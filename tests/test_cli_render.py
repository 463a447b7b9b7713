"""Byte parity of the command-line output with the rendering it replaced.

``tests/oracles.py`` keeps each command's former ``_run_*`` body, which
rounded every value into a dict and printed it with ``json.dumps(indent=2)``
or formatted CSV cells from the rounded values.  Every command and format
must print the same bytes as that reference, on seeded random inputs and at
precisions 1, 9, 16 and 17.
"""

import functools
import math
import random
import struct

import numpy as np
import pytest

from bbcap import cli, fock, region
from bbcap.channel import BroadcastChannelSpec
from oracles import (
    check_polymatroid_reference,
    convergence_table,
    region_reference_chunks,
    render_boundary_reference,
    render_convergence_reference,
    render_region_reference,
    render_verify_reference,
    render_vertices_reference,
    vertices_reference,
)

PRECISIONS = ("1", "9", "16", "17")
FORMATS = ("json", "csv")


def _etas(rng, m, zeros=0):
    etas = [rng.uniform(0.0, 0.9 / m) for _ in range(m)]
    for i in rng.sample(range(m), zeros):
        etas[i] = 0.0
    return ",".join(map(repr, etas))


def _ns(rng):
    return repr(10 ** rng.uniform(-3, 4))


def _draws(seed, ms, zero_weight_ms=()):
    """(id, etas, ns) per receiver count, with --ns inf on every third draw."""
    rng = random.Random(seed)
    cases = []
    for i, m in enumerate(ms):
        cases.append((f"{i}_m{m}", _etas(rng, m), "inf" if i % 3 == 2 else _ns(rng)))
    for m in zero_weight_ms:
        cases.append((f"m{m}_zero_weight", _etas(rng, m, zeros=1 + m // 3), _ns(rng)))
    return cases


REGION_CASES = _draws(1, (1, 2, 3, 4, 6, 8, 10, 12), (3, 7)) + [
    ("unbounded", "0.6,0,0.4", "inf"),
    ("unbounded_m4", "0.125,0,0.375,0.5", "inf"),
    ("zero_energy", "0.2,0.3", "0"),
    ("negative_zero_energy", "0.2,0.3", "-0"),
]
VERTICES_CASES = _draws(2, (1, 2, 3, 4, 5, 6), (3, 5)) + [
    ("negative_zero_energy", "0.2,0,0.3", "-0"),
    # a gain depends on the prefix size alone: five distinct values per receiver
    ("equal_weights", "0.15,0.15,0.15,0.15", "2.5"),
    # gains near 1e-10: distinct corners that differ in the tenth decimal place
    ("m5_ns_1e-11", "0.05,0.06,0.07,0.08,0.09", "1e-11"),
    ("m5_ns_1e-9", "0.05,0.06,0.07,0.08,0.09", "1e-9"),
    ("zero_weight_inf", "0.2,0,0.3", "inf"),
]
BOUNDARY_CASES = _draws(3, (2, 2, 2, 2, 2, 2), (2,))
# Above those receiver counts, at precisions 9 (the default) and 17: m = 14
# and 16 at finite N_S and at inf, and an unbounded channel at m = 10
# (eta_all = 1, one receiver of zero weight).
LARGE_REGION_CASES = [
    (f"m{m}{suffix}", _etas(random.Random(m), m), ns)
    for m in (14, 16)
    for suffix, ns in (("", _ns(random.Random(-m))), ("_inf", "inf"))
] + [("unbounded_m10", "0.125,0.0625,0,0.125,0.125,0.0625,0.125,0.125,0.125,0.125", "inf")]
CONVERGENCE_CASES = [
    (case_id, etas, ",".join(_ns(random.Random(case_id)) for _ in range(4)))
    for case_id, etas, _ in _draws(4, (1, 2, 3, 4, 6), (4,)) + _draws(6, (8, 10))
] + [("grid_with_zeros", "0.2,0.3", "0,-0,10,1000")]
VERIFY_CASES = [
    ("m1", "0.35", "0.3", None),
    ("m2", "0.2,0.45", "0.15", None),
    ("m2_zero_weight", "0.3,0", "0.2", None),
    ("m2_ordering", "0.1,0.25", "0.1", "B2,E,B1"),
]


def _params(cases, precisions=PRECISIONS):
    return [
        pytest.param(*case[1:], prec, fmt, id=f"{case[0]}-p{prec}-{fmt}")
        for case in cases
        for prec in precisions
        for fmt in FORMATS
    ]


def _cli(capsys, monkeypatch, prec, argv) -> str:
    monkeypatch.setenv("BBC_CAPACITY_PRECISION", prec)
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def _same(out: str, expected: str):
    # pytest's own diff of two long texts can take minutes; name the first line
    if out != expected:
        lines = list(zip(out.splitlines(), expected.splitlines())) + [("<end>", "<end>")]
        i, (got, want) = next((i, p) for i, p in enumerate(lines) if p[0] != p[1])
        pytest.fail(f"line {i + 1}: {got!r} != {want!r}")


def _region(etas, ns):
    spec = BroadcastChannelSpec(tuple(float(x) for x in etas.split(",")))
    return region.capacity_region(spec, region.UNCONSTRAINED if ns == "inf" else float(ns))


@pytest.mark.parametrize(
    "etas,ns,prec,fmt", _params(REGION_CASES) + _params(LARGE_REGION_CASES, ("9", "17")))
def test_region(etas, ns, prec, fmt, capsys, monkeypatch):
    out = _cli(capsys, monkeypatch, prec, ["region", "--etas", etas, "--ns", ns, "--format", fmt])
    _same(out, render_region_reference(_region(etas, ns), fmt, int(prec)))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("ns", ["0.7", "inf"])
def test_region_reference_blocks_join_to_the_output(fmt, ns, capsys, monkeypatch):
    # process_checks compares the m = 20 reference block by block, never whole
    etas = "0.1,0.05,0.2,0.15,0.1"
    out = _cli(capsys, monkeypatch, "9", ["region", "--etas", etas, "--ns", ns, "--format", fmt])
    for block in (1, 2, 7, 31):
        _same("".join(region_reference_chunks(_region(etas, ns), fmt, 9, block)), out)


@pytest.mark.parametrize("etas,ns,prec,fmt", _params(VERTICES_CASES))
def test_vertices(etas, ns, prec, fmt, capsys, monkeypatch):
    out = _cli(capsys, monkeypatch, prec, ["vertices", "--etas", etas, "--ns", ns, "--format", fmt])
    reg = _region(etas, ns)
    _same(out, render_vertices_reference(reg.m, reg.energy, vertices_reference(reg), fmt, int(prec)))


# Above the vertex goldens (m <= 5): every format and precision at m = 6, and
# a CSV and a JSON case each at m = 7 and 8 (at m = 8 a corner's key is 64
# bits wide), where the reference alone (the walk, then one format call per
# coordinate, or json.dumps) takes 0.3 to 4 s per case.  The
# rows of ``region.vertices`` are checked bit for bit here too, at finite
# energy; test_region.py checks them at unconstrained energy.
LARGE_ETAS = {6: "0.05,0.06,0.07,0.08,0.09,0.1", 7: "0.05,0.06,0.07,0.08,0.09,0.1,0.11",
              8: "0.05,0.06,0.07,0.08,0.09,0.1,0.11,0.12"}
LARGE_CASES = [(6, fmt, prec) for fmt in FORMATS for prec in ("3", "9", "17")] + [
    (7, "csv", "17"), (8, "csv", "3"), (7, "json", "9"), (8, "json", "17")]


@functools.cache
def _large_reference(m: int) -> tuple:
    reg = _region(LARGE_ETAS[m], "1.5")
    return reg, vertices_reference(reg)


@pytest.mark.parametrize("m,fmt,prec", LARGE_CASES)
def test_vertices_above_the_goldens(m, fmt, prec, capsys, monkeypatch):
    argv = ["vertices", "--etas", LARGE_ETAS[m], "--ns", "1.5", "--format", fmt]
    out = _cli(capsys, monkeypatch, prec, argv)
    reg, pts = _large_reference(m)
    assert region.vertices(reg).tobytes() == np.array(pts).tobytes()
    _same(out, render_vertices_reference(m, reg.energy, pts, fmt, int(prec)))


@pytest.mark.parametrize("etas,ns,prec,fmt", _params(BOUNDARY_CASES))
def test_boundary(etas, ns, prec, fmt, capsys, monkeypatch):
    argv = ["boundary", "--etas", etas, "--ns", ns, "--points", "37", "--format", fmt]
    out = _cli(capsys, monkeypatch, prec, argv)
    pts = region.boundary_2d(_region(etas, ns), 37)
    _same(out, render_boundary_reference(pts, fmt, int(prec)))


@pytest.mark.parametrize("etas,grid,prec,fmt", _params(CONVERGENCE_CASES))
def test_convergence(etas, grid, prec, fmt, capsys, monkeypatch):
    argv = ["convergence", "--etas", etas, "--ns-grid", grid, "--format", fmt]
    out = _cli(capsys, monkeypatch, prec, argv)
    rows = convergence_table(
        [float(x) for x in etas.split(",")], [float(x) for x in grid.split(",")])
    _same(out, render_convergence_reference(rows, fmt, int(prec)))


def test_convergence_refuses_its_first_failing_energy(capsys, monkeypatch):
    # the bounds at N_S = 2 and 3 are made to fail at different pairs; the
    # command names N_S = 2's failure, as the loop over pairs names it
    spec, closed_form = BroadcastChannelSpec((0.2, 0.1, 0.3)), region._closed_form
    bumps = {2.0: np.eye(8)[0b011], 3.0: np.eye(8)[0b110]}

    def broken(n_s, kept, kept_joint):
        f = closed_form(n_s, kept, kept_joint)
        return f + sum(np.where(n_s == e, 5.0 * bump, 0.0) for e, bump in bumps.items())

    monkeypatch.setattr(region, "_closed_form", broken)
    s = region._subset_sums(spec.etas)
    first, second = (_failure(check_polymatroid_reference, broken(e, 1.0 - s[::-1], 1.0 - s[-1]), 3, 1e-12)
                     for e in bumps)
    assert first and second and first != second
    assert _failure(region.capacity_region, spec, 2.0) == first
    argv = ["convergence", "--etas", "0.2,0.1,0.3", "--ns-grid", "1,2,3"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"bbcap: error: {first}\n"


def _failure(check, *args):
    """The message of the ValueError ``check(*args)`` raises, or None."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("m", range(1, 17))
def test_subset_texts_in_the_ordered_subsets_order(m):
    # region.nonempty_subsets defines the order; the columns must follow it
    subsets = [sorted(t) for t in region.nonempty_subsets(m)]
    for sep in ("+", ",\n        ", ",\n      "):
        texts, masks = cli._subset_texts(m, sep)
        assert texts == [sep.join(map(str, t)) for t in subsets]
        assert masks.tolist() == [sum(1 << (i - 1) for i in t) for t in subsets]


@functools.cache
def _verify(etas, ns, ordering):
    spec = BroadcastChannelSpec(tuple(float(x) for x in etas.split(",")))
    return fock.verify_conditional_entropies(
        spec, float(ns), ordering=ordering and tuple(ordering.split(",")))


@pytest.mark.parametrize("etas,ns,ordering,prec,fmt", _params(VERIFY_CASES))
def test_verify(etas, ns, ordering, prec, fmt, capsys, monkeypatch):
    record = _verify(etas, ns, ordering)
    # the command renders the same record; the oracle suite runs once per case
    monkeypatch.setattr(fock, "verify_conditional_entropies", lambda *a, **k: record)
    argv = ["verify", "--etas", etas, "--ns", ns, "--format", fmt]
    if ordering:
        argv += ["--ordering", ordering]
    out = _cli(capsys, monkeypatch, prec, argv)
    _same(out, render_verify_reference(record, fmt, int(prec)))


def _random_doubles(n, seed=7):
    """Finite doubles from random bit patterns (subnormals to 1.8e308), both signs."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        if math.isfinite(x):
            out.append(x)
    return out + [rng.uniform(-10, 10) for _ in range(n)] + [0.0, -0.0, 5e-324, 1.0, 9.5]


def test_csv_float_is_its_own_rounding():
    # the former region and verify CSVs printed f"{float(s):.{p}g}" with s the
    # p-digit text of x; the emitter prints s itself
    for p in range(1, 18):
        for x in _random_doubles(2000):
            s = f"{x:.{p}g}"
            assert f"{float(s):.{p}g}" == s, (p, x)


def _formatter_inputs():
    """Bit patterns, decades 1e-6..1e17 (the edges of both fixed forms), whole
    numbers, signed zeros and the smallest subnormal."""
    rng = random.Random(11)
    decades = [s * 10 ** rng.uniform(-6, 17) for s in (1, -1) for _ in range(3000)]
    powers = [float(10**k) for k in range(9, 17)] + [10.0**k * 0.999999 for k in range(-6, 18)]
    whole = [float(rng.randint(-10**6, 10**6)) for _ in range(500)]
    return _random_doubles(3000) + decades + powers + whole + [0.0, -0.0, 5e-324, -5e-324]


@pytest.mark.parametrize("prec", range(1, 18))
def test_formatters_match_the_per_value_forms(prec):
    # the JSON formatter returns its %g text without the round trip when it can
    json_num, csv_num = cli._numbers(prec, "json"), cli._numbers(prec, "csv")
    for x in _formatter_inputs():
        assert json_num(x) == float.__repr__(float(format(x, f".{prec}g"))), (prec, x)
        assert csv_num(x) == format(x, f".{prec}g"), (prec, x)


def test_non_finite_json_floats_print_as_json_dumps():
    for prec in (1, 9, 15, 16, 17):
        num = cli._numbers(prec, "json")
        assert [num(x) for x in (math.nan, math.inf, -math.inf)] == ["NaN", "Infinity", "-Infinity"]


def test_the_shortcut_stops_at_15_digits():
    # at 16 and 17 digits a rounded text can read back as a shorter repr
    for prec, x, text in [(16, 0.0938595867742349, "0.09385958677423489"),
                          (17, 0.4007349163087638, "0.40073491630876379")]:
        assert format(x, f".{prec}g") == text
        assert cli._numbers(prec, "json")(x) == repr(x) != text
