"""Golden-output lock on the command-line interface.

Each case runs ``cli.main`` in process and compares stdout byte for byte
with a file under ``tests/golden/``.  Each file was written once, from the
code as it stood before the refactor it locks, and is never rewritten to
make a case pass: a difference here is a change of output.

``PYTHONPATH=src python tests/test_golden.py NAME`` writes the file of a
new case NAME.  It refuses to overwrite a file that exists, so a
regenerated golden shows up as a deletion in the diff.
"""

import builtins
import io
import math
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from bbcap import channel, cli, gaussian, region

GOLDEN = Path(__file__).resolve().parent / "golden"
M10 = "0.05,0.07,0.04,0.09,0.06,0.08,0.03,0.1,0.05,0.11"

# file name -> (argv, BBC_CAPACITY_PRECISION or None)
CASES = {
    "region_inf.json": (["region", "--etas", "0.2,0.3", "--format", "json"], None),
    "region_finite.csv": (["region", "--etas", "0.2,0.3", "--ns", "1.0", "--format", "csv"], None),
    "region_m10.json": (["region", "--etas", M10, "--ns", "2.5"], None),
    "region_m10_inf.csv": (["region", "--etas", M10, "--format", "csv"], None),
    "region_unbounded.json": (["region", "--etas", "0.6,0,0.4", "--ns", "inf"], None),
    "region_unbounded.csv": (["region", "--etas", "0.6,0,0.4", "--format", "csv"], None),
    "region_energy_rounded.json": (["region", "--etas", "0.2,0.3", "--ns", "0.123456789123"], None),
    "region_m3_prec17.json": (["region", "--etas", "0.1,0.25,0.3", "--ns", "3.7"], "17"),
    "region_m3_inf_prec17.csv": (["region", "--etas", "0.1,0.25,0.3", "--format", "csv"], "17"),
    "vertices_inf.json": (["vertices", "--etas", "0.2,0.3,0.15"], None),
    "vertices_m5.csv": (
        ["vertices", "--etas", "0.1,0.2,0.05,0.15,0.12", "--ns", "1.5", "--format", "csv"], None),
    "vertices_m3_prec17.json": (["vertices", "--etas", "0.1,0.25,0.3", "--ns", "0.8"], "17"),
    "vertices_zero_weight.json": (["vertices", "--etas", "0.3,0,0.2", "--ns", "2.0"], None),
    "vertices_energy_unrounded.json": (
        ["vertices", "--etas", "0.2,0.3", "--ns", "0.123456789123"], None),
    "boundary.csv": (["boundary", "--etas", "0.2,0.3", "--ns", "1.0", "--points", "20"], None),
    "boundary.json": (["boundary", "--etas", "0.2,0.3", "--points", "12", "--format", "json"], None),
    "convergence.json": (["convergence", "--etas", "0.2,0.3", "--ns-grid", "0,1,10,100"], None),
    "convergence.csv": (
        ["convergence", "--etas", "0.2,0.3", "--ns-grid", "0.5,50", "--format", "csv"], None),
    "verify.json": (["verify", "--etas", "0.2,0.3", "--ns", "0.5"], None),
    "verify.csv": (["verify", "--etas", "0.2,0.3", "--ns", "0.4", "--format", "csv"], None),
    "verify_m3_prec17.json": (["verify", "--etas", "0.1,0.25,0.3", "--ns", "0.1"], "17"),
    "verify_m2_ordering_prec17.json": (
        ["verify", "--etas", "0.3,0.4", "--ns", "0.9", "--ordering", "B2,E,B1"], "17"),
}

# rendering edges: at precision 1 a JSON float prints 10.0 where CSV prints
# 1e+01, and the vertices energy stays unrounded at every precision
REGION3 = ["region", "--etas", "0.2,0.35,0.1", "--ns", "12.5"]
VERTICES3 = ["vertices", "--etas", "0.2,0.35,0.1", "--ns", "2.75"]
BOUNDARY = ["boundary", "--etas", "0.2,0.3", "--ns", "1.7", "--points", "8", "--format", "json"]
CONVERGENCE = ["convergence", "--etas", "0.2,0.3", "--ns-grid", "0.25,10,1000"]
for _p in ("1", "3"):
    CASES.update({
        f"region_finite_prec{_p}.json": (REGION3, _p),
        f"region_finite_prec{_p}.csv": (REGION3 + ["--format", "csv"], _p),
        f"vertices_prec{_p}.json": (VERTICES3, _p),
        f"boundary_finite_prec{_p}.json": (BOUNDARY, _p),
        f"convergence_prec{_p}.json": (CONVERGENCE, _p),
        f"convergence_prec{_p}.csv": (CONVERGENCE + ["--format", "csv"], _p),
    })
CASES.update({
    "boundary_prec17.csv": (["boundary", "--etas", "0.15,0.4", "--ns", "0.6", "--points", "6"], "17"),
    "convergence_prec17.json": (CONVERGENCE, "17"),
    "convergence_prec17.csv": (CONVERGENCE + ["--format", "csv"], "17"),
})


def _run(name: str, capsys, monkeypatch) -> str:
    argv, precision = CASES[name]
    if precision is None:
        monkeypatch.delenv("BBC_CAPACITY_PRECISION", raising=False)
    else:
        monkeypatch.setenv("BBC_CAPACITY_PRECISION", precision)
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, capsys, monkeypatch):
    assert _run(name, capsys, monkeypatch) == (GOLDEN / name).read_bytes().decode()


def _compensated_sum(items, start=0):
    """``sum`` as Python 3.12 and later add floats: Neumaier's compensated sum
    (gh-100425).  Integers add as before."""
    items = list(items)
    if isinstance(start, int) and all(isinstance(x, int) for x in items):
        return builtins.sum(items, start)
    total, c = float(start), 0.0
    for x in map(float, items):
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith(("verify", "boundary"))))
def test_output_does_not_depend_on_the_float_sum(name, capsys, monkeypatch):
    # pyproject.toml admits Python 3.10 and later; from 3.12 on, sum compensates
    assert _compensated_sum([0.1, 0.25, 0.3]) != 0.1 + 0.25 + 0.3
    for module in (channel, gaussian, region):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    assert _run(name, capsys, monkeypatch) == (GOLDEN / name).read_bytes().decode()


def test_output_file_matches_golden(tmp_path, capsys, monkeypatch):
    argv, precision = CASES["region_m3_prec17.json"]
    monkeypatch.setenv("BBC_CAPACITY_PRECISION", precision)
    target = tmp_path / "region.json"
    assert cli.main(argv + ["--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == (GOLDEN / "region_m3_prec17.json").read_bytes()


def test_usage_error_leaves_no_state(capsys, monkeypatch):
    assert cli.main(["region"]) == 1
    assert "--etas" in capsys.readouterr().err
    assert _run("region_inf.json", capsys, monkeypatch) == (GOLDEN / "region_inf.json").read_text()


def test_calls_in_one_process_match(capsys, monkeypatch):
    for name in ("vertices_m5.csv", "convergence.json", "boundary.csv", "region_unbounded.json"):
        assert _run(name, capsys, monkeypatch) == (GOLDEN / name).read_text(), name


def test_writer_refuses_to_overwrite():
    before = (GOLDEN / "verify.json").read_bytes()
    with pytest.raises(SystemExit) as exc:
        _write(["region_inf.json", "verify.json"])
    assert "region_inf.json" in exc.value.code and "verify.json" in exc.value.code
    assert (GOLDEN / "verify.json").read_bytes() == before


def _write(names) -> None:
    existing = [f"tests/golden/{name}" for name in names if (GOLDEN / name).exists()]
    if existing:
        sys.exit(f"refusing to overwrite {', '.join(existing)}: delete a file to regenerate it")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        argv, precision = CASES[name]
        os.environ.pop("BBC_CAPACITY_PRECISION", None)
        if precision is not None:
            os.environ["BBC_CAPACITY_PRECISION"] = precision
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(list(argv)) == 0, name
        (GOLDEN / name).write_bytes(out.getvalue().encode())


if __name__ == "__main__":
    _write(sys.argv[1:] or [n for n in CASES if not (GOLDEN / n).exists()])
