"""bbcap benchmark: one command, seeded workloads, checked outputs.

    python3 bench/run.py --workload region_cli --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics:
median and p90 op latency, ops per second, peak RSS of the workload's child
process, set-up time (the median over several fresh interpreters of the
wall time of ``import bbcap.cli``) and the share of ops that succeeded.
Times are rescaled to a reference host speed (``calib.py``).  With
``--trace 1`` the loop runs twice, untraced and then traced over the same
ops (at most three passes of the pool), and the last line holds the
per-layer metrics, the tracing overhead, and the check that every output is
byte-identical in both runs.
The line before the last holds the input provenance, the environment and
the failure breakdown.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

SETUP_SAMPLES = 6          # fresh interpreters timed for set-up, before and again after the loop
DEADLINE_S = 170.0         # the whole run, set-up to result
TRACE_PASSES = 3           # every pass runs the same pool, so 3 cover every op
PROBE_TIMEOUT_S = 60.0
PROBE_AS_CAP = 2 << 30     # address-space cap of the probe child, bytes
PROBE_EXPECTED_EXITS = (0, 2)


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("BBC_CAPACITY_PRECISION", None)     # the checker reads the default 9 digits
    env.pop("BBC_TRACE", None)
    return env


def _child(args, deadline, timeout=None, preexec_fn=None):
    """Run one worker child to completion; returns the CompletedProcess."""
    left = deadline - time.monotonic()
    if timeout is not None:
        left = min(left, timeout)
    if left <= 0:
        raise BenchError("out of time before starting " + " ".join(args))
    try:
        return subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=left,
                              preexec_fn=preexec_fn)
    except subprocess.TimeoutExpired as exc:    # subprocess.run has killed and reaped it
        raise BenchError(f"worker {args[0]} timed out after {exc.timeout:.0f} s") from None


def _worker(args, deadline) -> dict:
    proc = _child(args, deadline)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (PROBE_AS_CAP, PROBE_AS_CAP))


def run_probe(deadline) -> dict:
    """Over-budget verify in its own address-capped child, recorded but not counted."""
    t0 = time.monotonic()
    try:
        proc = _child(["probe"], deadline, PROBE_TIMEOUT_S, _cap_address_space)
    except BenchError as exc:
        return {"ok": False, "outcome": str(exc), "seconds": time.monotonic() - t0}
    out = {"exit": proc.returncode, "seconds": time.monotonic() - t0}
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    exit_code = report.get("rc", proc.returncode)
    out["exit"] = exit_code
    if exit_code == 0:
        try:
            out["ok"] = json.loads(report["stdout"]).get("pass") is True
        except ValueError:
            out["ok"] = False
    else:
        out["ok"] = exit_code in PROBE_EXPECTED_EXITS
    tail = (report.get("stderr_tail") or proc.stderr).strip().splitlines()
    out["outcome"] = tail[-1][:200] if tail else "no output"
    return out


def _figures(passes, scaled: bool) -> dict:
    times = calib.op_times(passes, scaled)
    ok = [all(p["ok"][i] for p in passes) for i in range(len(times))]
    done = [t for t, good in zip(times, ok) if good] or times
    return {
        "p50_ms": statistics.median(done) * 1e3,
        "p90_ms": calib.percentile(done, 90) * 1e3,
        "ops_per_s": len(times) / sum(times),
    }


def loop_figures(result) -> dict:
    """Latency and throughput of one loop child, rescaled and raw."""
    passes = result["passes"]
    refs = [r for p in passes for r in p["refs"]]
    raw = _figures(passes, scaled=False)
    raw["wall_ops_per_s"] = sum(len(p["times"]) for p in passes) / sum(p["wall_s"] for p in passes)
    raw["reference_median_s"] = statistics.median(refs)
    return {**_figures(passes, scaled=True), "raw": raw}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "bbcap" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no program source at {ROOT / 'src' / 'bbcap'}\n")
        return 2
    try:
        _worker(["import-only"], deadline)          # byte-compiles the sources
        setup = [_worker(["import-only"], deadline) for _ in range(SETUP_SAMPLES)]
        loop_args = ["loop", "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds)]
        plain = _worker(loop_args, deadline)
        setup += [_worker(["import-only"], deadline) for _ in range(SETUP_SAMPLES)]
        expected = str(ROOT / "src" / "bbcap" / "__init__.py")
        if os.path.realpath(plain["environment"]["bbcap_file"]) != os.path.realpath(expected):
            raise BenchError(f"imported {plain['environment']['bbcap_file']}, not {expected}")
        probe = run_probe(deadline) if args.workload == "verify_oracle" and not args.trace else None
        traced = None
        if args.trace:
            passes = min(len(plain["passes"]), TRACE_PASSES)
            traced = _worker(loop_args + ["--passes", str(passes), "--trace"], deadline)
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1

    setup_raw = [x["import_s"] for x in setup]
    setup_s = statistics.median(
        calib.rescale(x["import_s"], x["ref_before"], x["ref_after"]) for x in setup)
    figures = loop_figures(plain)
    record = {
        "workload": args.workload,
        "provenance": plain["provenance"],
        "environment": plain["environment"],
        "passes": len(plain["passes"]),
        "loop": figures,
        "setup_raw_samples_s": setup_raw,
        "setup_raw_median_s": statistics.median(setup_raw),
        "failure_kinds": plain["failure_kinds"],
        "failed_ns_range": plain["failed_ns_range"],
        "wrong_outputs": plain["wrong_outputs"],
    }
    correct = plain["n_wrong"] == 0
    if traced is None:
        attempted, failed = plain["attempted"], plain["failed"]
        if probe is not None:
            record["probe"] = probe
        if "high_energy_probe" in plain:
            record["high_energy_probe"] = plain["high_energy_probe"]
        metrics = {
            "op_p50_ms": (figures["p50_ms"], "ms"),
            "op_p90_ms": (figures["p90_ms"], "ms"),
            "ops_per_s": (figures["ops_per_s"], "1/s"),
            "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
            "setup_s": (setup_s, "s"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        attempted, failed = traced["attempted"], traced["failed"]
        identical = traced["digests"] == plain["digests"][:len(traced["digests"])]
        record["traced_loop"] = loop_figures(traced)
        record["traced_failure_kinds"] = traced["failure_kinds"]
        record["outputs_identical_traced_vs_untraced"] = identical
        correct = correct and traced["n_wrong"] == 0 and identical
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = (
            figures["ops_per_s"] / record["traced_loop"]["ops_per_s"] - 1.0)
        units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: (layers[m["name"]], m["unit"]) for m in units if m["name"] in layers}

    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
