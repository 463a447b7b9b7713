"""Accuracy of the float fields the goldens print, against 50 digits.

The golden test locks bytes, and bytes lock roundoff.  A numerics change
that moves a golden is accepted only when every changed value is within
its bound of the 50-digit reference of ``reference.py`` and no farther
from it than the value it replaces, plus the same bound.  ``PREVIOUS_FOCK``
keeps the Fock bits the verify goldens held before the Fock spectra came
from Schmidt factors (dense blocks summed term by term, then ``eigvalsh``);
``PREVIOUS_GAUSSIAN`` keeps the Gaussian bits and deviations they held
before those bits came from the thermal arm's outputs, as H(T | E) (they
were -H(T | A, complement) on the two-mode squeezed vacuum's output).
"""

import csv
import functools
import itertools
import json
import math
import random
from decimal import Decimal, localcontext

import pytest

from bbcap import cli, fock, region
from bbcap.channel import BroadcastChannelSpec
from bbcap.gaussian import entropy_g
from reference import DIGITS, closed_form_bits, verify_fock_bits
from test_golden import CASES, GOLDEN

# about 10 ulp of the entropies (at most 4 bits) whose difference is printed
ULP_BOUND = 4e-15
# a deviation is a difference of two values, each within ULP_BOUND
DEV_BOUND = 2 * ULP_BOUND

PREVIOUS_FOCK = {
    "verify.json": {
        "-H(B1|A,B2)": 0.2121856912704223,
        "-H(B2|A,B1)": 0.30595867676516963,
        "-H(B1,B2|A,-)": 0.47503363143933064,
        "purity H(A,B1,B2)=H(E)": 3.3306690738754696e-15,
    },
    "verify.csv": {
        "-H(B1|A,B2)": 0.19005752584754498,
        "-H(B2|A,B1)": 0.27471714148008675,
        "-H(B1,B2|A,-)": 0.42834188947975604,
        "purity H(A,B1,B2)=H(E)": 1.6653345369377348e-15,
    },
    "verify_m3_prec17.json": {
        "-H(B1|A,B2,B3)": 0.047042089089989886,
        "-H(B2|A,B1,B3)": 0.11199635274949635,
        "-H(B3|A,B1,B2)": 0.13243558476290793,
        "-H(B1,B2|A,B3)": 0.15235325175395456,
        "-H(B1,B3|A,B2)": 0.1717889394349574,
        "-H(B2,B3|A,B1)": 0.22752608451711417,
        "-H(B1,B2,B3|A,-)": 0.2628012959084689,
        "purity H(A,B1,B2,B3)=H(E)": 5.551115123125783e-17,
    },
    "verify_m2_ordering_prec17.json": {
        "-H(B1|A,B2)": 0.49140209419774983,
        "-H(B2|A,B1)": 0.6209306121280133,
        "-H(B1,B2|A,-)": 0.9482479412058017,
        "purity H(A,B1,B2)=H(E)": 1.3877787807814457e-14,
    },
}


# (gaussian_bits, abs_dev) per case, and max_abs_dev
PREVIOUS_GAUSSIAN = {
    "verify.json": {
        "-H(B1|A,B2)": (0.2121856917039565, 4.3353076684127245e-10),
        "-H(B2|A,B1)": (0.30595867738408045, 6.189081469543112e-10),
        "-H(B1,B2|A,-)": (0.47503363247253116, 1.0331967503773853e-09),
        "max_abs_dev": 1.0331967503773853e-09,
    },
    "verify.csv": {
        "-H(B1|A,B2)": (0.19005752607112236, 2.2357582452059432e-10),
        "-H(B2|A,B1)": (0.27471714180040885, 3.2032099195333785e-10),
        "-H(B1,B2|A,-)": (0.42834189001525913, 5.355014209840192e-10),
        "max_abs_dev": 5.355014209840192e-10,
    },
    "verify_m3_prec17.json": {
        "-H(B1|A,B2,B3)": (0.047042089219831995, 1.29843330531898e-10),
        "-H(B2|A,B1,B3)": (0.11199635305393468, 3.0444111120964124e-10),
        "-H(B3|A,B1,B2)": (0.13243558512156078, 3.586527463905753e-10),
        "-H(B1,B2|A,B3)": (0.15235325216540885, 4.114544538413867e-10),
        "-H(B1,B3|A,B2)": (0.17178893989824384, 4.6328843539278353e-10),
        "-H(B2,B3|A,B1)": (0.22752608513725608, 6.20141299423338e-10),
        "-H(B1,B2,B3|A,-)": (0.26280129664860313, 7.401343982138542e-10),
        "max_abs_dev": 7.401343982138542e-10,
    },
    "verify_m2_ordering_prec17.json": {
        "-H(B1|A,B2)": (0.491402094885361, 6.875968683317524e-10),
        "-H(B2|A,B1)": (0.6209306129751948, 8.471705559287557e-10),
        "-H(B1,B2|A,-)": (0.9482479425155796, 1.3097627427072212e-09),
        "max_abs_dev": 1.3097627427072212e-09,
    },
}


@functools.lru_cache(maxsize=None)
def _verify(name):
    """The parsed call, the program's record and the exact Fock bits of a verify golden."""
    args = cli.parse_args(CASES[name][0])
    report = fock.verify_conditional_entropies(
        BroadcastChannelSpec(args.etas), args.ns, cutoff=args.cutoff, ordering=args.ordering
    )
    return args, report, verify_fock_bits(args.etas, args.ns, report["cutoff"])


def _assert_near(value, exact, bound, previous=None, what=""):
    err = abs(value - float(exact))
    assert err <= bound, (what, err)
    if previous is not None:
        before = abs(previous - float(exact))
        assert err <= before + bound, (what, err, before)


@pytest.mark.parametrize("name", sorted(PREVIOUS_FOCK))
def test_fock_bits_within_ulp_bound_of_reference(name):
    _, report, exact = _verify(name)
    names = [c["case"] for c in report["cases"]]
    assert sorted(names) == sorted(exact) == sorted(PREVIOUS_FOCK[name])
    for c in report["cases"]:
        n = c["case"]
        _assert_near(c["fock_bits"], exact[n], ULP_BOUND, PREVIOUS_FOCK[name][n], n)


def _receivers(case: str) -> frozenset:
    """The subset T of a case named ``-H(B1,B3|A,B2)``."""
    return frozenset(int(label[1:]) for label in case[3 : case.index("|")].split(","))


@pytest.mark.parametrize("name", sorted(PREVIOUS_GAUSSIAN))
def test_gaussian_bits_within_ulp_bound_of_reference(name):
    # exactly, the Gaussian route is the closed form and each deviation is
    # |truncated Fock value - closed form|; the purity case's is 0
    args, report, fock_exact = _verify(name)
    previous = PREVIOUS_GAUSSIAN[name]
    *cases, purity = report["cases"]
    names = [c["case"] for c in cases]
    assert purity["case"].startswith("purity") and names == list(previous)[:-1]
    devs = [0]
    for n, c in zip(names, cases):
        closed = closed_form_bits(args.etas, args.ns, _receivers(n))
        devs.append(abs(fock_exact[n] - closed))
        _assert_near(c["gaussian_bits"], closed, ULP_BOUND, previous[n][0], n)
        _assert_near(c["closed_form_bits"], closed, ULP_BOUND, what=n)
        _assert_near(c["abs_dev"], devs[-1], DEV_BOUND, previous[n][1], n)
    _assert_near(report["max_abs_dev"], max(devs), DEV_BOUND, previous["max_abs_dev"])


def _golden_rows(name: str) -> list:
    """The rows of a region or convergence golden, subsets as lists of ints."""
    text = (GOLDEN / name).read_text()
    if name.endswith(".json"):
        data = json.loads(text)
        return data["constraints"] if isinstance(data, dict) else data
    rows = list(csv.DictReader(text.splitlines()))
    for row in rows:
        row["subset"] = [int(i) for i in row["subset"].split("+")]
    return rows


def _closed_bound(n_s) -> float:
    """``ULP_BOUND``, or 10 ulp of g(n_s) when larger: no g term of the difference exceeds g(n_s)."""
    return ULP_BOUND if n_s is None else max(ULP_BOUND, 10 * math.ulp(entropy_g(n_s)))


def _rounding(value, prec: int) -> float:
    """Half a unit in the last digit of ``value``, printed to ``prec`` significant
    digits; 0 at 17, where the text reads back as the double printed."""
    x = abs(float(value))
    if x == 0.0 or prec >= 17:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(x)) - prec + 1)


# every region and convergence golden but the two whose receivers take everything
BOUND_GOLDENS = sorted(
    n for n in CASES if n.startswith(("region", "convergence")) and "unbounded" not in n
)


@pytest.mark.parametrize("name", BOUND_GOLDENS)
def test_closed_form_bits_within_ulp_bound_of_reference(name):
    # a golden printed to p digits is within its bound plus half a unit in the p-th digit
    argv, prec = CASES[name]
    args, prec = cli.parse_args(argv), int(prec or cli.DEFAULT_PRECISION)
    rows = _golden_rows(name)
    assert rows

    def near(value, exact, bound, what):
        _assert_near(float(value), exact, bound + _rounding(value, prec), what=what)

    for i, row in enumerate(rows):
        t = frozenset(row["subset"])
        if "bound_bits" in row:
            n_s = None if args.ns == region.UNCONSTRAINED else args.ns
            near(row["bound_bits"], closed_form_bits(args.etas, n_s, t), _closed_bound(n_s), t)
            continue
        n_s = args.ns_grid[i // (2 ** len(args.etas) - 1)]  # the printed ns is rounded
        inner = closed_form_bits(args.etas, n_s, t)
        limit = closed_form_bits(args.etas, None, t)
        bound = _closed_bound(n_s)
        near(row["inner_bound_bits"], inner, bound, (n_s, t))
        near(row["asymptotic_bound_bits"], limit, ULP_BOUND, (n_s, t))
        near(row["gap_bits"], limit - inner, bound + ULP_BOUND, (n_s, t))


@pytest.mark.parametrize("m", [16, 20])
def test_bound_vector_within_ulp_bound_of_reference(m):
    # the bound vector above the goldens' sizes, on 40 sampled subsets
    # per energy: subset sums of up to 20 terms keep within the same bound
    rng = random.Random(m)
    raw = [rng.random() for _ in range(m + 1)]
    etas = tuple(0.95 * x / sum(raw) for x in raw[:m])
    spec = BroadcastChannelSpec(etas)
    for n_s in [None, 1e-2, 1.0, 1e4, 1e8]:
        f = region.capacity_region(spec, region.UNCONSTRAINED if n_s is None else n_s)._f
        for _ in range(40):
            t = frozenset(rng.sample(range(1, m + 1), rng.randint(1, m)))
            mask = sum(1 << (i - 1) for i in t)
            _assert_near(f[mask], closed_form_bits(etas, n_s, t), _closed_bound(n_s), what=(n_s, t))


def _closed_forms(etas, n_s) -> dict:
    """The 50-digit bound of every receiver subset, the empty one included (0)."""
    ground = range(1, len(etas) + 1)
    return {
        frozenset(t): closed_form_bits(etas, n_s, frozenset(t)) if t else Decimal(0)
        for r in range(len(etas) + 1) for t in itertools.combinations(ground, r)
    }


def test_vertex_coordinates_within_ulp_bound_of_reference():
    # each coordinate is one greedy increment f(S u {i}) - f(S): a difference
    # of two bounds, each within ULP_BOUND, so within DEV_BOUND
    args = cli.parse_args(CASES["vertices_m3_prec17.json"][0])
    got = json.loads((GOLDEN / "vertices_m3_prec17.json").read_text())["vertices"]
    f = _closed_forms(args.etas, args.ns)
    m = len(args.etas)
    want = set()
    with localcontext() as ctx:
        ctx.prec = DIGITS
        for r in range(m + 1):
            for order in itertools.permutations(range(1, m + 1), r):
                point = [Decimal(0)] * m
                for k, i in enumerate(order):
                    before = frozenset(order[:k])
                    point[i - 1] = max(f[before | {i}] - f[before], Decimal(0))
                want.add(tuple(point))
    assert len(got) == len(want)
    for p in got:
        assert any(all(abs(x - float(y)) <= DEV_BOUND for x, y in zip(p, q)) for q in want), p


def _boundary_reference(etas, n_s, n_points) -> list:
    """``region.boundary_2d`` in 50 digits: closed-form corners joined by
    segments whose interior points are spread by length, remainders first."""
    f = _closed_forms(etas, n_s)
    f1, f2, f12 = f[frozenset({1})], f[frozenset({2})], f[frozenset({1, 2})]
    with localcontext() as ctx:
        ctx.prec = DIGITS
        zero = Decimal(0)
        corners = [(zero, f2), (f12 - f2, f2), (f1, f12 - f1), (f1, zero)]
        if f12 >= f1 + f2:
            corners = [(zero, f2), (f1, f2), (f1, zero)]
        lengths = [((b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2).sqrt()
                   for a, b in zip(corners, corners[1:])]
        extra = n_points - len(corners)
        shares = [extra * l / sum(lengths) for l in lengths]
        alloc = [int(x) for x in shares]
        for _ in range(extra - sum(alloc)):
            k = max(range(len(lengths)), key=lambda i: shares[i] - alloc[i])
            alloc[k] += 1
        points = []
        for (a, b), k in zip(zip(corners, corners[1:]), alloc):
            points.append(a)
            for step in range(1, k + 1):
                frac = Decimal(step) / (k + 1)
                points.append((a[0] + frac * (b[0] - a[0]), a[1] + frac * (b[1] - a[1])))
        points.append(corners[-1])
    return points


def test_boundary_points_within_ulp_bound_of_reference():
    # a corner coordinate is a bound or a difference of two (DEV_BOUND); an
    # interior point interpolates two corners, which keeps their error, and
    # its three float operations on values below 1 add under ULP_BOUND
    args = cli.parse_args(CASES["boundary_prec17.csv"][0])
    rows = list(csv.reader((GOLDEN / "boundary_prec17.csv").read_text().splitlines()))[1:]
    want = _boundary_reference(args.etas, args.ns, args.points)
    assert len(rows) == len(want) == args.points
    for row, point in zip(rows, want):
        for text, exact in zip(row, point):
            _assert_near(float(text), exact, DEV_BOUND + ULP_BOUND, what=(row, point))


def _lock_cases():
    """(etas, subsets) at m in {1, 2, 4, 6, 12}: every subset at m <= 4, 24 seeded above."""
    rng = random.Random(15)
    for m in (1, 2, 4, 6, 12):
        raw = [rng.random() for _ in range(m + 1)]
        etas = tuple(0.95 * x / sum(raw) for x in raw[:m])
        ground = range(1, m + 1)
        if m <= 4:
            subsets = [frozenset(t) for r in ground for t in itertools.combinations(ground, r)]
        else:
            subsets = [frozenset(rng.sample(ground, rng.randint(1, m))) for _ in range(24)]
        yield etas, subsets


def test_covariance_route_within_1e_12_of_reference():
    # 1005 cases: 67 subsets at each half-decade N_S from 1e-2 to 1e2 and
    # at each decade on to 1e8
    energies = [10.0 ** (k / 2) for k in range(-4, 5)] + [10.0**k for k in range(3, 9)]
    worst = 0.0
    count = 0
    for etas, subsets in _lock_cases():
        spec = BroadcastChannelSpec(etas)
        for n_s in energies:
            for t in subsets:
                got = region.inner_bound_finite_gaussian(spec, n_s, t)
                worst = max(worst, abs(got - float(closed_form_bits(etas, n_s, t))))
                count += 1
    assert count == 1005
    assert worst <= 1e-12, worst
