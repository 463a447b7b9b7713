"""The command line at its caps, run as processes: one table of cases, one runner.

``PYTHONPATH=src:tests python tests/process_checks.py`` from the repository root.

Each case is a ``python -m bbcap.cli`` child, its stdout and stderr sent to
files, its peak RSS read from its own ``os.wait4``.  Every child runs, one at
a time, before any reference is built: the kernel starts a child's peak RSS at
its parent's, so the runner imports only the standard library (its size is
printed first) and imports ``bbcap`` and ``oracles`` only once the last child
has exited.  Then each case is checked: its exit status, and the cap tables
byte for byte against the ``oracles`` renderers at the default 9 digits, the
Fock oracle's record for ``"pass": true``, and each documented refusal of
``refusals.REFUSALS`` for no stdout and exactly its one line.

One line per case: verdict, name, exit status, stdout lines, wall seconds and
peak MB, the last two a record, not a gate.  The exit status is 1 if any
case fails.
"""

import functools
import importlib.util
import json
import os
import resource
import sys
import tempfile
import time
from typing import Callable, NamedTuple

from refusals import REFUSALS


class Case(NamedTuple):
    name: str
    argv: list
    env: dict  # set in the child's environment, from which every BBC_* variable is dropped
    status: int
    check: Callable  # (stdout, stderr) -> bool, called once every child has exited


GRID = "0.01,0.5,3,40,900,20000"
E14 = "0.02,0.025,0.03,0.035,0.04,0.045,0.05,0.055,0.06,0.065,0.07,0.075,0.08,0.085"
E20 = ("0.02,0.022,0.024,0.026,0.028,0.03,0.032,0.034,0.036,0.038,"
       "0.04,0.042,0.044,0.046,0.048,0.05,0.052,0.054,0.056,0.058")
F4, F6 = "0.1,0.2,0.15,0.25", "0.1,0.2,0.15,0.25,0.05,0.04"
F12 = F6 + ",0.03,0.02,0.01,0.015,0.025,0.035"
# the children run the bbcap the runner would import, found without importing it
SRC = os.path.dirname(importlib.util.find_spec("bbcap").submodule_search_locations[0])


def _floats(text):
    return tuple(map(float, text.split(",")))


# the references import bbcap and oracles when first called, after the last child has exited
@functools.lru_cache(maxsize=1)
def _region(etas, n_s):
    from bbcap import BroadcastChannelSpec, capacity_region
    return capacity_region(BroadcastChannelSpec(_floats(etas)), n_s)


@functools.lru_cache(maxsize=1)
def _convergence(etas):
    from oracles import convergence_table
    return convergence_table(_floats(etas), _floats(GRID))


def _vertices(etas, fmt):
    from oracles import render_vertices_reference, vertices_reference
    return [render_vertices_reference(8, 1.5, vertices_reference(_region(etas, 1.5)), fmt, 9)]


def _constraints(etas, fmt):
    from oracles import region_reference_chunks
    return region_reference_chunks(_region(etas, 1.0), fmt, 9)


def _gaps(etas, fmt):
    from oracles import render_convergence_reference
    return [render_convergence_reference(_convergence(etas), fmt, 9)]


def _same(reference, lines):
    """stdout byte for byte the chunks of ``reference()`` joined, of ``lines``
    lines unless None; no stderr."""
    return lambda out, err: (err == "" and (lines is None or out.count("\n") == lines)
                             and _joins(out, reference()))


def _joins(out, chunks):
    """Is ``out`` the chunks joined?  Compared chunk by chunk, with no join held."""
    pos = 0
    for chunk in chunks:
        if not out.startswith(chunk, pos):
            return False
        pos += len(chunk)
    return pos == len(out)


def _passes(out, err):
    return err == "" and json.loads(out)["pass"] is True


TABLES = [  # command, --etas, energy, reference, CSV lines, formats
    ("vertices", "0.05,0.06,0.07,0.08,0.09,0.1,0.11,0.12", ["--ns", "1.5"], _vertices,
     109601 + 1, ("csv", "json")),
    ("region", E20, ["--ns", "1"], _constraints, 2**20, ("csv", "json")),
    ("convergence", E14, ["--ns-grid", GRID], _gaps, 6 * 16383 + 1, ("csv", "json")),
    ("convergence", E14 + ",0.01,0.015", ["--ns-grid", GRID], _gaps, 6 * 65535 + 1, ("csv",)),
]
VERIFY = [  # --etas, --ns, further arguments
    ("0.2,0.3,0.1", "2", []), (F4, "1", []), (F4, "1.6", []), (F4, "2", []), (F6, "0.3", []),
    (F6, "0.6", []), (F12, "0.01", []),
    (F12, "0.01", ["--ordering", ",".join(["E"] + [f"B{i}" for i in range(12, 0, -1)])]),
]
CASES = [
    *(Case(f"{command} m={etas.count(',') + 1} {fmt}", [command, "--etas", etas, *energy,
           "--format", fmt], {}, 0, _same(functools.partial(render, etas, fmt),
                                          lines if fmt == "csv" else None))
      for command, etas, energy, render, lines, formats in TABLES for fmt in formats),
    *(Case(f"verify m={etas.count(',') + 1} ns={ns}{' reversed' if extra else ''}",
           ["verify", "--etas", etas, "--ns", ns, *extra], {}, 0, _passes)
      for etas, ns, extra in VERIFY),
    *(Case(f"refusal {name}", argv, {} if precision is None else
           {"BBC_CAPACITY_PRECISION": precision}, status,
           lambda out, err, line=line: out == "" and err == line + "\n")
      for name, (argv, precision, status, line) in REFUSALS.items()),
]


def _run(case, path):
    """One case's child, stdout to ``path.out`` and stderr to ``path.err``:
    its exit status, wall seconds and peak RSS in MB."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("BBC_")}
    env |= case.env | {"PYTHONPATH": SRC}
    files = [(os.POSIX_SPAWN_OPEN, fd, f"{path}.{ext}", os.O_WRONLY | os.O_CREAT, 0o600)
             for fd, ext in ((1, "out"), (2, "err"))]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "bbcap.cli", *case.argv], env,
                         file_actions=files)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss / 1024


def main(cases=CASES) -> int:
    print(f"runner: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB "
          "at spawn, a floor under each child's peak", flush=True)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, str(i)) for i in range(len(cases))]
        runs = [_run(case, path) for case, path in zip(cases, paths)]
        for case, path, (status, wall, peak) in zip(cases, paths, runs):
            with open(f"{path}.out") as out, open(f"{path}.err") as err:
                out, err = out.read(), err.read()
            try:
                good, note = status == case.status and case.check(out, err), ""
            except Exception as exc:  # a record that does not parse fails its case
                good, note = False, f", {exc!r}"
            failed += not good
            if not good:
                note += f", stderr {err[-300:]!r}"
            print(f"{'ok' if good else 'FAIL'} {case.name}: exit {status}, "
                  f"{out.count(chr(10))} lines, {wall:.2f} s, {peak:.0f} MB{note}", flush=True)
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main())
