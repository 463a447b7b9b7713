"""Fast self-check of the benchmark (under two minutes on two cores).

    python3 bench/selfcheck.py

1. The checker accepts real program output and rejects it once one bound
   (or value) is moved by 1e-6.
2. Every workload, run for one pass with and without tracing, prints a last
   line with exactly the contract keys, ``correct`` true, no failed op, and
   every metric of BENCHMARK.json with its unit.
3. In a directory holding only BENCHMARK.json and this directory the
   benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import workloads  # noqa: E402

SEED = 7
NUDGE = 1e-6


def _cli(argv) -> str:
    import bbcap.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert bbcap.cli.main(list(argv)) == 0, argv
    return out.getvalue()


def _expect(op, good, bad, what):
    assert checker.check(op, good) is None, f"{what}: rejected good output: {checker.check(op, good)}"
    assert checker.check(op, bad) is not None, f"{what}: accepted an output nudged by {NUDGE}"
    print(f"ok  checker rejects {what} nudged by {NUDGE}")


def check_checker():
    op = workloads.cli_op("region", [0.2, 0.3, 0.1], "json", 1.5)
    text = _cli(op["argv"])
    data = json.loads(text)
    data["constraints"][3]["bound_bits"] += NUDGE
    _expect(op, text, json.dumps(data), "a region bound (JSON)")

    op = workloads.cli_op("region", [0.2, 0.3], "csv", None)
    text = _cli(op["argv"])
    lines = text.splitlines()
    subset, value = lines[1].split(",")
    lines[1] = f"{subset},{float(value) + NUDGE!r}"
    _expect(op, text, "\n".join(lines) + "\n", "an unconstrained region bound (CSV)")

    op = workloads.cli_op("convergence", [0.25, 0.15], "json", grid=[0.5, 40.0])
    text = _cli(op["argv"])
    rows = json.loads(text)
    rows[-1]["inner_bound_bits"] += NUDGE
    _expect(op, text, json.dumps(rows), "a convergence bound")

    op = workloads.cli_op("vertices", [0.2, 0.3, 0.1], "json", 2.0)
    text = _cli(op["argv"])
    data = json.loads(text)
    data["vertices"][-1][0] += NUDGE
    _expect(op, text, json.dumps(data), "a vertex coordinate")

    op = workloads.cli_op("verify", [0.2, 0.3], "json", 0.3)
    text = _cli(op["argv"])
    data = json.loads(text)
    data["cases"][0]["closed_form_bits"] += NUDGE
    _expect(op, text, json.dumps(data), "a verify closed-form bound")

    import bbcap

    op = {"cmd": "gaussian", "m": 3, "etas": [0.2, 0.3, 0.1], "ns": 3.0,
          "subset": [1, 3], "helpers": [2]}
    spec = bbcap.BroadcastChannelSpec(tuple(op["etas"]))
    res = {"inner": bbcap.inner_bound_finite_gaussian(spec, op["ns"], op["subset"]),
           "gain": bbcap.merging_gain(spec, op["ns"], op["subset"], op["helpers"])}
    _expect(op, res, dict(res, inner=res["inner"] + NUDGE), "a Gaussian-route bound")


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, w["name"], trace)
            assert proc.returncode == 0, proc.stderr[-2000:]
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] is True, proc.stdout.splitlines()[-2][:2000]
            assert isinstance(res["attempted"], int) and res["attempted"] >= 1
            assert res["failed"] == 0, proc.stdout.splitlines()[-2][:2000]
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, f"{w['name']} trace {trace}: {sorted(set(want) ^ set(got))}"
            assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
            print(f"ok  {w['name']} --trace {trace}: {len(got)} metrics with units, "
                  f"{res['attempted']} attempted, {res['failed']} failed")


def check_bare_directory():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "region_cli", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    assert proc.returncode != 0 and '"metrics"' not in last[0], proc.stdout[-500:]
    print(f"ok  without the program source the benchmark exits {proc.returncode}, no result")


if __name__ == "__main__":
    check_checker()
    check_bare_directory()
    check_contract()
    print("selfcheck passed")
