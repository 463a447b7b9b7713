"""End-to-end acceptance suite.

Each check prints one summary line (visible with ``pytest -s``); the test
names themselves serve as the pass/fail report under ``pytest -v``.
Tolerances are pinned in the assertions; runtimes are enforced with
wall-clock budgets.
"""

import itertools
import math
import time

import numpy as np

from bbcap.channel import BroadcastChannelSpec, implementations_equivalent
from bbcap.fock import verify_conditional_entropies
from bbcap.gaussian import entropy_g
from bbcap.region import (
    asymptotic_bound,
    capacity_region,
    inner_bound_finite,
    merging_gain,
    merging_gain_gaussian,
    nonempty_subsets,
    vertices,
)
from oracles import all_orderings, match_point_sets, polytope_vertices_bruteforce

SPEC23 = BroadcastChannelSpec((0.2, 0.3))


def report(name, elapsed, detail):
    print(f"[acceptance] {name}: PASS in {elapsed:.2f}s ({detail})")


def interior_spec(rng, m, total_max=0.85):
    raw = rng.dirichlet(np.ones(m + 1))[:m] + 0.02
    raw *= rng.uniform(0.2, total_max) / raw.sum()
    return BroadcastChannelSpec(tuple(raw))


def test_two_receiver_region_closed_forms_and_vertices():
    t0 = time.perf_counter()
    reg = capacity_region(SPEC23)
    assert abs(reg.bound({1}) - math.log2(1.4)) < 1e-12
    assert abs(reg.bound({2}) - math.log2(1.6)) < 1e-12
    assert abs(reg.bound({1, 2}) - 1.0) < 1e-12

    greedy = vertices(reg)
    brute = polytope_vertices_bruteforce(
        {t: reg.bound(t) for t in nonempty_subsets(2)}, 2
    )
    assert match_point_sets(greedy, brute, tol=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report("two-receiver region", elapsed, f"{len(greedy)} vertices cross-checked")


def test_finite_energy_bounds_converge_to_unconstrained_limits():
    t0 = time.perf_counter()
    rng = np.random.RandomState(2026)
    grid = (1.0, 1e1, 1e2, 1e3, 1e4)
    worst = 0.0
    for k in range(20):
        spec = interior_spec(rng, int(rng.randint(2, 4)))
        for t in nonempty_subsets(spec.m):
            limit = asymptotic_bound(spec, t)
            gaps = [limit - inner_bound_finite(spec, n, t) for n in grid]
            assert all(b < a for a, b in zip(gaps, gaps[1:])), "gap not shrinking"
            assert gaps[-1] < 1e-3
            worst = max(worst, gaps[-1])
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report("convergence to limits", elapsed, f"worst residual gap {worst:.2e}")


def test_number_basis_oracle_matches_gaussian_and_closed_forms():
    t0 = time.perf_counter()
    worst = 0.0
    for n_s in (0.2, 0.5, 1.0):
        rep = verify_conditional_entropies(SPEC23, n_s)  # policy cutoff, tail < 1e-10
        assert rep["tail_mass"] < 1e-10
        assert rep["pass"]
        assert rep["max_abs_dev"] < 1e-6
        assert len([c for c in rep["cases"] if c["case"].startswith("-H")]) == 3
        worst = max(worst, rep["max_abs_dev"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report("number-basis oracle", elapsed, f"max deviation {worst:.2e}")


def test_all_split_orderings_implement_the_same_channel():
    t0 = time.perf_counter()
    rng = np.random.RandomState(99)
    worst = 0.0
    for _ in range(50):
        spec = interior_spec(rng, 2, total_max=0.95)
        ok, dev = implementations_equivalent(spec, list(all_orderings(spec)), 1.0)
        assert ok, f"two-receiver deviation {dev}"
        worst = max(worst, dev)
    for _ in range(10):
        spec = interior_spec(rng, 3, total_max=0.95)
        ok, dev = implementations_equivalent(spec, list(all_orderings(spec)), 1.0)
        assert ok, f"three-receiver deviation {dev}"
        worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12
    assert elapsed < 5.0
    report("ordering equivalence", elapsed, f"max covariance deviation {worst:.2e}")


def test_schmidt_spectrum_certification():
    t0 = time.perf_counter()
    worst = 0.0
    for eta, n_s in itertools.product((0.2, 0.5), (0.3, 0.7)):
        rep = verify_conditional_entropies(BroadcastChannelSpec((eta,)), n_s, 25)["schmidt"][0]
        assert rep["pass"], f"eta={eta}, ns={n_s}: deviation {rep['max_abs_dev']}"
        worst = max(worst, rep["max_abs_dev"])
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8
    assert elapsed < 60.0
    report("Schmidt spectrum", elapsed, f"max eigenvalue deviation {worst:.2e}")


def test_merging_gain_always_positive_with_agreeing_routes():
    t0 = time.perf_counter()
    rng = np.random.RandomState(424242)
    worst_dev, smallest = 0.0, math.inf
    for _ in range(1000):
        m = int(rng.randint(1, 5))
        raw = rng.dirichlet(np.ones(m + 1))[:m] + 0.01
        raw *= rng.uniform(0.2, 0.95) / raw.sum()
        spec = BroadcastChannelSpec(tuple(raw))
        n_s = float(rng.uniform(0.01, 10.0))
        receivers = list(range(1, m + 1))
        rng.shuffle(receivers)
        k = int(rng.randint(1, m + 1))
        s1 = set(receivers[:k])
        s2 = set(receivers[k : k + int(rng.randint(0, m - k + 1))])
        closed = merging_gain(spec, n_s, s1, s2)
        direct = merging_gain_gaussian(spec, n_s, s1, s2)
        dev = abs(closed - direct)
        assert dev < 1e-9
        assert closed > 0.0
        worst_dev = max(worst_dev, dev)
        smallest = min(smallest, closed)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(
        "merging gain positivity",
        elapsed,
        f"1000 draws, min gain {smallest:.2e}, max route dev {worst_dev:.2e}",
    )


def test_point_to_point_sanity():
    t0 = time.perf_counter()
    spec = BroadcastChannelSpec((0.5,))
    assert abs(asymptotic_bound(spec, {1}) - 1.0) < 1e-12
    finite = inner_bound_finite(spec, 1.0, {1})
    assert abs(finite - (2.0 - entropy_g(0.5))) < 1e-9
    assert abs(finite - 0.6225562489182657) < 1e-9
    # number-basis cross-check of the same bound
    rep = verify_conditional_entropies(spec, 1.0)
    case = next(c for c in rep["cases"] if c["case"].startswith("-H"))
    assert abs(case["closed_form_bits"] - finite) < 1e-12
    assert case["abs_dev"] < 1e-6
    elapsed = time.perf_counter() - t0
    report("point-to-point sanity", elapsed, f"bound {finite:.9f} bits")
