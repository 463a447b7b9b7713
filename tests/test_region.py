import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from bbcap import channel, cli, region
from bbcap.channel import BroadcastChannelSpec
from bbcap.fock import verify_conditional_entropies
from bbcap.gaussian import conditional_entropy, entropy_g
from bbcap.region import (
    MAX_BOUNDARY_POINTS,
    UNCONSTRAINED,
    CapacityRegion,
    asymptotic_bound,
    boundary_2d,
    capacity_region,
    contains,
    inner_bound_finite,
    inner_bound_finite_gaussian,
    merging_gain,
    merging_gain_gaussian,
    nonempty_subsets,
    vertices,
    _validate_subset,
)
from oracles import (
    check_polymatroid_reference,
    is_polymatroid_bruteforce,
    match_point_sets,
    output_state_tmsv,
    polytope_vertices_bruteforce,
    vertices_reference,
)

SPEC23 = BroadcastChannelSpec((0.2, 0.3))

LOG2_14 = math.log2(1.4)
LOG2_16 = math.log2(1.6)


def random_interior_spec(rng, m):
    raw = rng.dirichlet(np.ones(m + 1))[:m] + 0.02
    raw *= rng.uniform(0.2, 0.85) / raw.sum()
    return BroadcastChannelSpec(tuple(raw))


class TestInnerBoundFinite:
    def test_vacuum_input_gives_zero(self):
        for t in nonempty_subsets(2):
            assert inner_bound_finite(SPEC23, 0.0, t) == 0.0

    def test_two_receiver_closed_form(self):
        val = inner_bound_finite(SPEC23, 1.0, {1})
        assert val == pytest.approx(entropy_g(0.7) - entropy_g(0.5), abs=1e-14)
        assert val == pytest.approx(0.2841665387161574, abs=1e-12)

    def test_matches_gaussian_conditional_entropy(self):
        rng = np.random.RandomState(5)
        for _ in range(10):
            spec = random_interior_spec(rng, rng.randint(1, 4))
            n_s = rng.uniform(0.05, 8.0)
            for t in nonempty_subsets(spec.m):
                closed = inner_bound_finite(spec, n_s, t)
                direct = inner_bound_finite_gaussian(spec, n_s, t)
                assert abs(closed - direct) < 1e-9

    def test_nonnegative_and_monotone_in_energy(self):
        grid = [0.0, 0.5, 1.0, 4.0, 20.0, 100.0]
        for t in nonempty_subsets(2):
            vals = [inner_bound_finite(SPEC23, n, t) for n in grid]
            assert vals[0] == 0.0
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            assert all(v >= 0.0 for v in vals)

    @pytest.mark.parametrize("n_s", [-1.0, math.nan, math.inf])
    def test_invalid_photon_number(self, n_s):
        with pytest.raises(ValueError, match="photon number"):
            inner_bound_finite(SPEC23, n_s, {1})
        with pytest.raises(ValueError, match="photon number"):
            capacity_region(SPEC23, n_s)
        # the covariance route refuses it with the same words
        with pytest.raises(ValueError, match="photon number must be finite and nonnegative"):
            inner_bound_finite_gaussian(SPEC23, n_s, {1})
        with pytest.raises(ValueError, match="photon number must be finite and nonnegative"):
            merging_gain_gaussian(SPEC23, n_s, {1}, {2})

    def test_invalid_subset(self):
        with pytest.raises(ValueError):
            inner_bound_finite(SPEC23, 1.0, set())
        with pytest.raises(ValueError):
            inner_bound_finite(SPEC23, 1.0, {3})

    def test_fractional_receiver_index_is_refused(self):
        outside = "outside receivers 1..2"
        with pytest.raises(ValueError, match=outside):
            inner_bound_finite(SPEC23, 1.0, {1.9})
        with pytest.raises(ValueError, match=outside):
            capacity_region(SPEC23).bound({1.5})
        with pytest.raises(ValueError, match=outside):
            merging_gain(SPEC23, 1.0, {2}, {1.0})
        # whole numbers of any integer type still name a receiver
        assert inner_bound_finite(SPEC23, 1.0, {np.int64(2)}) == inner_bound_finite(SPEC23, 1.0, {2})

    @pytest.mark.parametrize(
        "subset,want",
        [([1, 3], {1, 3}), ([np.int32(1)], {1}), ([np.int64(2)], {2}), ([np.int64(3), 1], {1, 3}),
         ([np.uint8(1), 2], {1, 2})],
    )
    def test_accepted_receivers_come_back_as_ints(self, subset, want):
        got = _validate_subset(3, subset)
        assert got == want and all(type(i) is int for i in got)

    @pytest.mark.parametrize(
        "subset,message",
        [([0], "subset [0] outside receivers 1..3"),
         ([4], "subset [4] outside receivers 1..3"),
         ([1, 4], "subset [1, 4] outside receivers 1..3"),
         ([1.0], "subset [1.0] outside receivers 1..3"),
         (["1"], "subset ['1'] outside receivers 1..3"),
         ([np.bool_(True)], f"subset [{np.bool_(True)!r}] outside receivers 1..3"),
         ([], "receiver subset must be nonempty"),
         ([True], "subset [True] outside receivers 1..3"),  # a bool names no receiver
         ([False, 2], "subset [2, False] outside receivers 1..3")],
    )
    def test_refused_receivers_keep_their_message(self, subset, message):
        with pytest.raises(ValueError) as err:
            _validate_subset(3, subset)
        assert str(err.value) == message

    def test_empty_subset_where_allowed(self):
        assert _validate_subset(3, [], allow_empty=True) == frozenset()


class TestAsymptoticBound:
    def test_fig_parameters(self):
        assert asymptotic_bound(SPEC23, {1}) == pytest.approx(LOG2_14, abs=1e-15)
        assert asymptotic_bound(SPEC23, {2}) == pytest.approx(LOG2_16, abs=1e-15)
        assert asymptotic_bound(SPEC23, {1, 2}) == pytest.approx(1.0, abs=1e-15)

    def test_point_to_point_half(self):
        assert asymptotic_bound(BroadcastChannelSpec((0.5,)), {1}) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_is_the_energy_limit(self):
        spec = BroadcastChannelSpec((0.35, 0.15, 0.2))
        for t in nonempty_subsets(3):
            limit = asymptotic_bound(spec, t)
            gaps = [
                limit - inner_bound_finite(spec, n, t)
                for n in (1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6)
            ]
            assert all(g > 0 for g in gaps)
            assert all(b < a for a, b in zip(gaps, gaps[1:]))
            assert gaps[4] < 1e-3  # already met at n_s = 1e4

    def test_unbounded_flag_when_no_environment(self):
        spec = BroadcastChannelSpec((0.6, 0.4))
        assert math.isinf(asymptotic_bound(spec, {1}))
        spec = BroadcastChannelSpec((1.0, 0.0))
        assert math.isinf(asymptotic_bound(spec, {1}))
        assert asymptotic_bound(spec, {2}) == 0.0  # zero-weight receiver


class TestCapacityRegion:
    def test_unconstrained_region_bounds(self):
        reg = capacity_region(SPEC23)
        assert reg.energy == UNCONSTRAINED
        assert reg.bound({1}) == pytest.approx(LOG2_14, abs=1e-15)
        assert reg.bound({2}) == pytest.approx(LOG2_16, abs=1e-15)
        assert reg.bound({1, 2}) == pytest.approx(1.0, abs=1e-15)
        assert reg.bound(set()) == 0.0

    def test_point_to_point_degenerate(self):
        reg = capacity_region(BroadcastChannelSpec((0.5, 0.0, 0.0)))
        for t in nonempty_subsets(3):
            expect = 1.0 if 1 in t else 0.0
            assert reg.bound(t) == pytest.approx(expect, abs=1e-14)

    def test_finite_energy_region_strictly_inside(self):
        rng = np.random.RandomState(9)
        for _ in range(5):
            spec = random_interior_spec(rng, 3)
            inner = capacity_region(spec, 2.0)
            outer = capacity_region(spec)
            for t in nonempty_subsets(3):
                assert inner.bound(t) < outer.bound(t)

    def test_constraint_count_and_guard(self):
        # one bound per subset, f[0] = 0 included
        assert capacity_region(SPEC23)._f.shape == (4,)
        assert capacity_region(BroadcastChannelSpec((0.1,) * 4), 1.0)._f.shape == (16,)
        with pytest.raises(ValueError):
            capacity_region(BroadcastChannelSpec((0.001,) * 21))

    @pytest.mark.parametrize("m", [0, 21, 64, 2.5, 2.9, True, False])  # a bool counts nothing
    def test_receiver_count_refused_before_allocation(self, m):
        with pytest.raises(ValueError, match=r"1\.\.20"):
            CapacityRegion(m, UNCONSTRAINED, [0.0])

    def test_polymatroid_validation_rejects_bad_bounds(self):
        # f[mask] over subsets {}, {1}, {2}, {1, 2}
        CapacityRegion(2, UNCONSTRAINED, [0.0, 0.5, 0.6, 0.9])
        with pytest.raises(ValueError):  # not monotone
            CapacityRegion(2, UNCONSTRAINED, [0.0, 0.5, 0.6, 0.4])
        with pytest.raises(ValueError):  # not submodular
            CapacityRegion(2, UNCONSTRAINED, [0.0, 0.5, 0.6, 1.5])
        with pytest.raises(ValueError, match="never NaN"):
            CapacityRegion(1, UNCONSTRAINED, [0.0, math.nan])
        with pytest.raises(ValueError, match=r"^bound vector needs 2\^2 entries and f\[0\] = 0$"):
            CapacityRegion(2, UNCONSTRAINED, [0.0, 1.0, 1.0])

    @pytest.mark.parametrize("energy", [math.nan, -3.0, "Unconstrained"])
    def test_energy_is_unconstrained_or_a_photon_number(self, energy):
        with pytest.raises(ValueError):
            CapacityRegion(2, energy, [0.0, 0.5, 0.6, 0.9])
        assert CapacityRegion(2, np.float64(2.5), [0.0, 0.5, 0.6, 0.9]).energy == 2.5

    @pytest.mark.parametrize("n_s", ["2.5", None, True, False])
    @pytest.mark.parametrize("call", [
        lambda n_s: CapacityRegion(2, n_s, [0.0, 0.5, 0.6, 0.9]),
        lambda n_s: inner_bound_finite(SPEC23, n_s, {1}),
        lambda n_s: verify_conditional_entropies(SPEC23, n_s),
    ], ids=["CapacityRegion", "inner_bound_finite", "verify_conditional_entropies"])
    def test_photon_number_is_a_real_number(self, call, n_s):
        # float() would read the text, and a bool as 0 or 1; None would raise TypeError
        with pytest.raises(ValueError, match=re.escape(f"must be a real number, got {n_s!r}")):
            call(n_s)

    def test_polymatroid_check_runs_above_eight_receivers(self):
        f = capacity_region(BroadcastChannelSpec((0.05,) * 10), 3.0)._f.copy()
        CapacityRegion(10, 3.0, f)
        f[-1] += 1.0  # not submodular
        with pytest.raises(ValueError):
            CapacityRegion(10, 3.0, f)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_check_agrees_with_exhaustive_loop(self, m):
        outcomes = _agreement_with_the_loop(m)
        # at m = 1 a bound fails only by being negative, which the NaN check names
        assert None in outcomes and len(set(outcomes)) >= min(m, 4)

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("m", [2, 5, 8])
    def test_check_in_row_groups_agrees_with_exhaustive_loop(self, m, rows, monkeypatch):
        # the gain rows go in groups of CHECK_BLOCK gains: one vector's m
        # rows at once up to m = 13, in groups from m = 14, one at a time
        # from m = 17; blocks of one and three rows take those paths at small m
        monkeypatch.setattr(region, "CHECK_BLOCK", rows << (m - 1))
        assert len(set(_agreement_with_the_loop(m))) >= 3

    @pytest.mark.parametrize("block", [None, 1, 3])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_stack_names_its_first_failing_vector(self, m, block, monkeypatch):
        # stacks of one to five vectors, passing ones among them; a gain row
        # holds every vector's gains, and with a small CHECK_BLOCK the rows
        # go in groups, or one at a time.  At m = 1 only a negative bound
        # fails, which few cases draw
        if block:
            monkeypatch.setattr(region, "CHECK_BLOCK", block << (m - 1))
        rng = np.random.RandomState(150 + m)
        firsts = []
        for case in range(40):
            kind, rows, stack = case % 4, [], []
            for _ in range(rng.randint(1, 6)):
                f, tol, _ = _check_case(rng, m, kind)
                if rng.rand() < 0.5:  # a polymatroid at any of the tolerances
                    f = capacity_region(random_interior_spec(rng, m), float(rng.uniform(0.5, 5)))._f
                stack.append(f)
                rows.append(_outcome(check_polymatroid_reference, f, m, tol))
            failing = [i for i, outcome in enumerate(rows) if outcome is not None]
            expect = rows[failing[0]] if failing else None
            assert _outcome(_check_at, np.array(stack), m, tol) == expect
            firsts.append(failing[0] if failing else None)
        assert None in firsts and (m == 1 or any(i for i in firsts if i is not None)), firsts


class TestOneGate:
    """Every region is made by its constructor, and every bound vector a
    command prints is checked once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"init": 0, "check": 0}
        init, check = CapacityRegion.__init__, region._check_polymatroid

        def counted_init(self, *args):
            counts["init"] += 1
            init(self, *args)

        def counted_check(*args):
            counts["check"] += 1
            check(*args)

        monkeypatch.setattr(CapacityRegion, "__init__", counted_init)
        monkeypatch.setattr(region, "_check_polymatroid", counted_check)
        return counts

    @pytest.mark.parametrize("energy", [UNCONSTRAINED, 0.0, 2.5])
    def test_capacity_region_goes_through_the_constructor(self, counts, energy):
        reg = capacity_region(SPEC23, energy)
        assert counts == {"init": 1, "check": 1}
        CapacityRegion(2, energy, reg._f)
        assert counts == {"init": 2, "check": 2}

    @pytest.mark.parametrize("argv, inits", [
        (["region", "--etas", "0.2,0.3", "--ns", "inf"], 1),
        (["vertices", "--etas", "0.2,0.3,0.1", "--ns", "1.5"], 1),
        (["boundary", "--etas", "0.2,0.3", "--ns", "2"], 1),
        # the limit and the grid: one stack, checked without a region
        (["convergence", "--etas", "0.2,0.3,0.1", "--ns-grid", "0.5,3,40"], 0),
    ], ids=["region", "vertices", "boundary", "convergence"])
    def test_each_command_checks_once(self, counts, capsys, argv, inits):
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert counts == {"init": inits, "check": 1}

    @pytest.mark.parametrize("rows", [1, 7])
    def test_check_temporaries_within_three_stacks(self, rows):
        # at m = 16: one vector's gain rows go two at a time, the 7 rows of
        # the convergence grid's stack one at a time, each longer than CHECK_BLOCK
        etas = tuple(0.02 + 0.005 * i for i in range(14)) + (0.01, 0.015)
        energies = (UNCONSTRAINED, 0.01, 0.5, 3.0, 40.0, 900.0, 20000.0)[:rows]
        f = region._bound_rows(BroadcastChannelSpec(etas), energies)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            region._check_polymatroid(f, 16)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        groups = 0 if rows << 15 > region.CHECK_BLOCK else 4 * region.CHECK_BLOCK * 8
        assert peak <= 3 * f.nbytes + groups, peak / f.nbytes


def _agreement_with_the_loop(m) -> list:
    """Each case's outcome, once the check and the loop over pairs agree on
    its verdict and message.

    There are four kinds of vector: perturbed closed-form bounds, some with
    unbounded flags next to finite ones (inf - finite must not trip the
    check); gains tied at exactly the tolerance; and bounds rounded to a
    few digits, at the looser tolerance 1e-6.  The constructor checks at
    ``EXACT_TOL`` and names a negative bound before the check runs, so the
    check is also called directly, at each tolerance, on every vector
    without a negative bound.
    """
    rng = np.random.RandomState(60 + m)
    outcomes = []
    for case in range(48):
        f, tol, exact = _check_case(rng, m, case % 4)
        expect = _outcome(check_polymatroid_reference, f, m, tol)
        if tol == region.EXACT_TOL:
            assert _outcome(CapacityRegion, m, UNCONSTRAINED, f) == expect
        if f.min() >= -region.EXACT_TOL:
            assert _outcome(_check_at, f, m, tol) == expect
        if m <= 4 and exact and f.min() >= 0:  # the loop takes no negative bound
            bounds = {t: f[sum(1 << (i - 1) for i in t)] for t in nonempty_subsets(m)}
            assert (expect is None) == is_polymatroid_bruteforce(bounds, m, tol)
        outcomes.append(expect)
    return outcomes


def _outcome(check, *args):
    """None if ``check(*args)`` passes, else its ValueError's message."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _check_at(f, m, tol):
    """``region._check_polymatroid(f, m)`` with its one tolerance, ``EXACT_TOL``,
    set to ``tol`` (the cases below tie gains with 2^-20 and 1e-6)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(region, "EXACT_TOL", tol)
        region._check_polymatroid(f, m)


def _check_case(rng, m, kind):
    """(bound vector, tolerance, whether its arithmetic is exact) of one kind."""
    spread = min(0.5, 3.0 / (1 << m))  # a few entries at large m, as many failing pairs
    if kind == 2:  # integers of 2^-20: gains and second differences tie with tol exactly
        w = rng.randint(0, 4, size=m)
        sums = np.array([sum(w[i] for i in range(m) if mask >> i & 1) for mask in range(1 << m)])
        f = np.minimum(sums, rng.randint(1, 3 * m + 1)) + rng.choice(
            [-1, 0, 1], size=1 << m, p=[spread / 2, 1 - spread, spread / 2])
        f = np.maximum(f, 0) * 2.0**-20
        f[0] = 0.0
        return f, 2.0**-20, True
    f = capacity_region(random_interior_spec(rng, m), float(rng.uniform(0.5, 5)))._f.copy()
    noisy = rng.rand(f.size) < (spread if rng.rand() < 0.5 else 0.0)
    f[noisy] += rng.normal(scale=0.3, size=noisy.sum())
    if rng.rand() < 0.5:  # else a negative bound may stay
        f[noisy] = np.maximum(f[noisy], 0.0)
    if kind == 1:
        f[rng.rand(f.size) < min(0.2, 6.0 / (1 << m))] = math.inf
    f[0] = 0.0
    if kind == 3:  # rounded to a few digits: steps near the looser tolerance
        digits = int(rng.randint(4, 8))
        f = np.array([float(f"{x:.{digits}g}") for x in f])
        return f, 1e-6, False
    return f, 1e-12, True


class TestBoundVector:
    """The 2^m bounds, one array expression, against the single-subset functions."""

    @pytest.mark.parametrize("m", range(1, channel.MAX_RECEIVERS + 1))
    def test_every_subset_matches_the_scalar_functions_bitwise(self, m):
        # the decades 1e-2..1e8 spread over m, three or four each, g's floor
        # 1e-12 and an energy of verify's range; up to the largest m verify
        # takes, since it reads its closed forms from this one-row vector,
        # unchecked (at 1e-12 a region may refuse it)
        rng = np.random.RandomState(90 + m)
        specs = [random_interior_spec(rng, m)]
        if m in (3, 6):  # a zero-weight receiver, and no environment at all
            etas = list(specs[0].etas)
            etas[1] = 0.0
            specs += [BroadcastChannelSpec(etas), BroadcastChannelSpec([1.0 / m] * m)]
        energies = [UNCONSTRAINED, 0.0, 1e-12, float(rng.uniform(0.1, 2.0))] + [
            10.0 ** k for k in range(-2, 9)][m % 3 :: 3]
        ground = frozenset(range(1, m + 1))
        for spec in specs:
            for energy in energies:
                f = region._bound_rows(spec, [energy])[0]
                for mask in range(1, 1 << m):
                    t = frozenset(i + 1 for i in range(m) if mask >> i & 1)
                    if energy == UNCONSTRAINED:
                        got = [asymptotic_bound(spec, t)]
                    else:
                        got = [inner_bound_finite(spec, energy, t),
                               merging_gain(spec, energy, t, ground - t)]
                    assert all(type(x) is float for x in got)
                    assert [x.hex() for x in got] == [float(f[mask]).hex()] * len(got), (
                        spec, energy, t)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_grid_rows_are_the_regions_bitwise(self, m):
        # a stack of every energy, the limit in it twice, row by row against
        # one region per energy: a column of photon numbers gives each row
        # the bits of the float expression
        rng = np.random.RandomState(120 + m)
        spec = random_interior_spec(rng, m)
        weightless = BroadcastChannelSpec((0.0,) + spec.etas[1:])
        energies = [UNCONSTRAINED, 0.0] + [10.0 ** k for k in range(-2, 9)] + [UNCONSTRAINED]
        for spec in (spec, weightless, BroadcastChannelSpec([1.0 / m] * m)):
            rows = region._bound_rows(spec, energies)
            assert rows.shape == (len(energies), 1 << m)
            for energy, row in zip(energies, rows):
                assert row.tobytes() == capacity_region(spec, energy)._f.tobytes(), (spec, energy)

    def test_check_names_the_receivers(self):
        # f[mask] over the subsets of three receivers
        f = capacity_region(BroadcastChannelSpec((0.3, 0.1, 0.1)), 2.0)._f
        slack, gain_1 = f[0b010] + f[0b100] - f[0b110], f[0b111] - f[0b110]
        assert 0.0 < slack < gain_1
        cases = [
            (0b011, f[0b010] - 1e-9 - f[0b011], "monotone in receiver 1"),
            (0b011, 0.5, "submodular in receivers 1 and 2"),
            (0b110, (slack + gain_1) / 2, "submodular in receivers 2 and 3"),
        ]
        for mask, step, message in cases:
            bad = f.copy()
            bad[mask] += step
            with pytest.raises(ValueError, match=f"^bound not {message}$"):
                CapacityRegion(3, 2.0, bad)
        bad = f.copy()
        bad[0b111] += 1e-13  # within EXACT_TOL
        CapacityRegion(3, 2.0, bad)


class TestContains:
    def test_origin(self):
        assert contains(capacity_region(SPEC23), (0.0, 0.0))

    def test_sum_face_vertex(self):
        # exact corner of the pentagon, tight on the sum face
        assert contains(capacity_region(SPEC23), (LOG2_14, 1.0 - LOG2_14))

    def test_outside_point(self):
        assert not contains(capacity_region(SPEC23), (0.5, 0.6))

    def test_negative_coordinates_excluded(self):
        assert not contains(capacity_region(SPEC23), (-0.1, 0.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            contains(capacity_region(SPEC23), (0.1, 0.1, 0.1))

    def test_non_finite_point_refused(self):
        with pytest.raises(ValueError, match="^rate point must be finite"):
            contains(capacity_region(SPEC23), [math.nan, 0.1])


class TestVertices:
    def test_two_receiver_pentagon(self):
        pts = vertices(capacity_region(SPEC23))
        expected = [
            (0.0, 0.0),
            (LOG2_14, 0.0),
            (0.0, LOG2_16),
            (LOG2_14, 1.0 - LOG2_14),
            (1.0 - LOG2_16, LOG2_16),
        ]
        assert match_point_sets(pts, expected, tol=1e-12)

    def test_single_receiver_segment(self):
        pts = vertices(capacity_region(BroadcastChannelSpec((0.5,))))
        assert match_point_sets(pts, [(0.0,), (1.0,)], tol=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_bruteforce_enumeration(self, m):
        rng = np.random.RandomState(40 + m)
        for _ in range(6):
            spec = random_interior_spec(rng, m)
            energy = UNCONSTRAINED if rng.rand() < 0.5 else float(rng.uniform(0.5, 5))
            reg = capacity_region(spec, energy)
            bounds = {t: reg.bound(t) for t in nonempty_subsets(m)}
            brute = polytope_vertices_bruteforce(bounds, m)
            assert match_point_sets(vertices(reg), brute, tol=1e-9)

    def test_vertices_lie_on_boundary(self):
        reg = capacity_region(SPEC23)
        for p in vertices(reg):
            assert contains(reg, p)
            slacks = [
                reg.bound(t) - sum(p[i - 1] for i in t) for t in nonempty_subsets(2)
            ] + list(p)
            assert min(abs(s) for s in slacks) < 1e-9  # something is tight

    def test_unbounded_region_refused(self):
        with pytest.raises(ValueError):
            vertices(capacity_region(BroadcastChannelSpec((0.7, 0.3))))


def _same_rows_bitwise(got, reference):
    """``got`` holds the reference's rows, in its order, bit for bit."""
    want = np.array(reference, dtype=float).reshape(len(reference), -1)
    assert isinstance(got, np.ndarray) and got.dtype == float and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got).any()  # no -0.0, which compares equal to 0.0


class TestVerticesReference:
    """The level-wise enumeration against the depth-first walk it replaced."""

    @pytest.mark.parametrize("m", range(1, 9))
    def test_every_receiver_count_and_energy(self, m):
        # m = 8 at finite energy: test_cli_render.py, next to the output bytes
        rng = np.random.RandomState(70 + m)
        spec = random_interior_spec(rng, m)
        for energy in [UNCONSTRAINED, float(rng.uniform(0.1, 50.0))][: 1 if m == 8 else 2]:
            reg = capacity_region(spec, energy)
            _same_rows_bitwise(vertices(reg), vertices_reference(reg))

    @pytest.mark.parametrize("etas", [
        (0.15, 0.15, 0.15, 0.15),                # exact ties: many orderings, one point
        (0.2, 0.0, 0.3, 0.0, 0.1),               # zero-weight receivers
        (0.0, 0.0, 0.0),                         # the origin alone
        (0.25, 0.25, 0.0, 0.1, 0.1, 0.0),
    ])
    @pytest.mark.parametrize("energy", [UNCONSTRAINED, 0.0, 2.5])
    def test_ties_and_zero_weights(self, etas, energy):
        reg = capacity_region(BroadcastChannelSpec(etas), energy)
        _same_rows_bitwise(vertices(reg), vertices_reference(reg))

    def test_near_ties_compare_with_the_last_point_kept(self):
        # sorted, the corners are (0, 0), (0, d), (d, d), (2d, 0): a chain of
        # steps of d = 0.6e-10, each one an extreme point; the one row dropped
        # is the second (2d, 0), equal to the last row kept
        d = 0.6e-10
        reg = CapacityRegion(2, UNCONSTRAINED, [0.0, 2 * d, d, 2 * d])
        pts = vertices(reg)
        _same_rows_bitwise(pts, vertices_reference(reg))
        assert pts.tolist() == [[0.0, 0.0], [0.0, d], [d, d], [2 * d, 0.0]]

    @pytest.mark.parametrize("n_s", [1e-11, 1e-9])
    def test_near_ties_at_low_energy(self, n_s):
        # bounds of 1e-10 or less: most corners sit within 1e-10 of another
        # one, and every one of them is kept
        reg = capacity_region(BroadcastChannelSpec((0.05, 0.06, 0.07, 0.08, 0.09, 0.1, 0.11)), n_s)
        pts = vertices(reg)
        _same_rows_bitwise(pts, vertices_reference(reg))
        assert len(pts) == 13700  # 1 + the ordered subsets of 7 receivers

    @pytest.mark.parametrize("seed", range(6))
    def test_near_tie_walk_against_the_plain_walk(self, seed):
        # random channels, m <= 7, a quarter of the receivers of zero weight
        # and a fifth of the channels of equal weights, N_S log-uniform on
        # [1e-11, 1e8]: the bound is strictly submodular in the k receivers of
        # positive weight, so each ordered subset of them is its own vertex,
        # however close the low energies put them
        rng = np.random.RandomState(seed)
        for _ in range(100):
            m = rng.randint(1, 8)
            raw = rng.uniform(0.05, 1.0, m)
            if rng.uniform() < 0.2:
                raw[:] = raw[0]
            raw[rng.uniform(size=m) < 0.25] = 0.0
            etas = tuple(raw * (rng.uniform(0.2, 0.95) / max(raw.sum(), 1.0)))
            reg = capacity_region(BroadcastChannelSpec(etas), 10 ** rng.uniform(-11, 8))
            pts = vertices(reg)
            k = np.count_nonzero(etas)
            assert len(pts) == sum(math.perm(k, j) for j in range(k + 1)), etas
            _same_rows_bitwise(pts, vertices_reference(reg))

    def test_gains_clip_to_positive_zero(self):
        # monotone within the check tolerance, yet f({1, 2}) - f({1}) = -1e-13
        reg = CapacityRegion(2, UNCONSTRAINED, [0.0, 0.5, 0.3, 0.5 - 1e-13])
        _same_rows_bitwise(vertices(reg), vertices_reference(reg))
        # a -0.0 bound gives the gain -0.0 - 0.0 = -0.0, which would print as "-0"
        pts = vertices(CapacityRegion(2, UNCONSTRAINED, [0.0, 0.5, -0.0, 0.5]))
        assert not np.signbit(pts).any()
        assert pts.tolist() == [[0.0, 0.0], [0.5, 0.0]]


class TestBoundary2d:
    def test_passes_through_corners(self):
        pts = boundary_2d(capacity_region(SPEC23), 50)
        assert len(pts) >= 50
        for corner in ((1.0 - LOG2_16, LOG2_16), (LOG2_14, 1.0 - LOG2_14)):
            assert any(
                max(abs(x - corner[0]), abs(y - corner[1])) < 1e-12 for x, y in pts
            )
        assert pts[0] == pytest.approx((0.0, LOG2_16), abs=1e-12)
        assert pts[-1] == pytest.approx((LOG2_14, 0.0), abs=1e-12)

    def test_points_feasible_tight_and_ordered(self):
        reg = capacity_region(SPEC23)
        pts = boundary_2d(reg, 33)
        assert all(contains(reg, p) for p in pts)
        for x, y in pts:
            slack = min(
                reg.bound({1}) - x, reg.bound({2}) - y, reg.bound({1, 2}) - x - y
            )
            assert abs(slack) < 1e-9
        assert all(b[0] >= a[0] - 1e-15 for a, b in zip(pts, pts[1:]))

    def test_degenerate_second_receiver(self):
        reg = capacity_region(BroadcastChannelSpec((0.4, 0.0)))
        pts = boundary_2d(reg, 10)
        assert all(abs(y) < 1e-12 for _, y in pts)
        assert pts[-1][0] == pytest.approx(math.log2(1.0 / 0.6), abs=1e-12)

    def test_wrong_receiver_count(self):
        with pytest.raises(ValueError):
            boundary_2d(capacity_region(BroadcastChannelSpec((0.5,))), 10)

    def test_point_count_capped(self):
        reg = capacity_region(SPEC23)
        assert boundary_2d(reg, MAX_BOUNDARY_POINTS).shape == (MAX_BOUNDARY_POINTS, 2)
        for n in (1, MAX_BOUNDARY_POINTS + 1, 10**9):
            with pytest.raises(ValueError, match="boundary points"):
                boundary_2d(reg, n)

    @pytest.mark.parametrize("n", [200.5, 200.0, "200", True, np.float64(3)])
    def test_point_count_must_be_a_whole_number(self, n):
        reg = capacity_region(SPEC23)
        with pytest.raises(ValueError, match="boundary points"):
            boundary_2d(reg, n)
        # any integer type but bool counts
        assert np.array_equal(boundary_2d(reg, np.int64(50)), boundary_2d(reg, 50))


class TestMergingGain:
    def test_full_set_equals_inner_bound(self):
        assert merging_gain(SPEC23, 1.0, {1, 2}) == pytest.approx(
            inner_bound_finite(SPEC23, 1.0, {1, 2}), abs=1e-12
        )

    def test_two_receiver_helper_case(self):
        # -H(B2 | A, B1) at unit energy: g(0.8) - g(0.5)
        val = merging_gain(SPEC23, 1.0, {2}, {1})
        assert val == pytest.approx(entropy_g(0.8) - entropy_g(0.5), abs=1e-12)
        assert val == pytest.approx(0.40649315662706575, abs=1e-12)

    def test_zero_energy(self):
        assert merging_gain(SPEC23, 0.0, {1}, {2}) == 0.0

    def test_zero_rate_is_positive_zero_on_both_routes(self):
        # 0.0 == -0.0, so compare signs: a zero conditional entropy negates to -0.0
        for value in (merging_gain(SPEC23, 0.0, {1}, {2}),
                      merging_gain_gaussian(SPEC23, 0.0, {1}, {2}),
                      merging_gain_gaussian(BroadcastChannelSpec((0.4,)), 0.0, {1}),
                      inner_bound_finite_gaussian(SPEC23, 0.0, {1}),
                      inner_bound_finite_gaussian(SPEC23, 0.0, {1, 2})):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_routes_agree_on_random_draws(self):
        rng = np.random.RandomState(77)
        for _ in range(60):
            m = rng.randint(1, 13)
            spec = random_interior_spec(rng, m)
            n_s = 10 ** rng.uniform(-2, 2)
            receivers = list(range(1, m + 1))
            rng.shuffle(receivers)
            k = rng.randint(1, m + 1)
            s1 = set(receivers[:k])
            s2 = set(receivers[k : k + rng.randint(0, m - k + 1)])
            closed = merging_gain(spec, n_s, s1, s2)
            direct = merging_gain_gaussian(spec, n_s, s1, s2)
            assert abs(closed - direct) < 1e-9
            assert closed > 0.0

    def test_tmsv_route_matches_thermal_route(self):
        # -H(S1 | A, S2) on the TMSV output against H(S1 | R, E) on the
        # thermal arm's outputs, equal by purity.  Each route resolves its
        # spectra to about 4 ulp(2 n_s + 1) per matrix row (NU_FLOOR), so
        # the two agree within twice that at the TMSV output's 2(m + 2) rows
        rng = np.random.RandomState(79)
        for _ in range(150):
            m = rng.randint(1, 13)
            spec = random_interior_spec(rng, m)
            n_s = 10 ** rng.uniform(-2, 2)
            receivers = list(range(1, m + 1))
            rng.shuffle(receivers)
            k = rng.randint(1, m + 1)
            s1 = receivers[:k]
            s2 = receivers[k:] if rng.rand() < 0.5 else receivers[k : k + rng.randint(0, m - k + 1)]
            recv = channel.receiver_labels(spec)
            tmsv_route = -conditional_entropy(
                output_state_tmsv(spec, n_s), [recv[i - 1] for i in s1],
                ["A"] + [recv[i - 1] for i in s2])
            thermal_route = merging_gain_gaussian(spec, n_s, s1, s2)
            bound = 8 * math.ulp(2 * n_s + 1) * 2 * (m + 2)
            assert abs(tmsv_route - thermal_route) <= bound, (m, n_s, s1, s2)

    def test_complement_helpers_give_the_inner_bound_exactly(self):
        rng = np.random.RandomState(78)
        for _ in range(200):
            m = rng.randint(1, 13)
            spec = random_interior_spec(rng, m)
            n_s = 10 ** rng.uniform(-2, 4)
            t = {int(i) for i in rng.choice(m, rng.randint(1, m + 1), replace=False) + 1}
            complement = set(range(1, m + 1)) - t
            assert merging_gain(spec, n_s, t, complement) == inner_bound_finite(spec, n_s, t)

    def test_high_energy(self):
        val = merging_gain(SPEC23, 1e4, {1}, {2})
        assert val == pytest.approx(0.48538561202216, abs=1e-12)

    def test_needs_no_covariance_route(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("covariance route called")

        monkeypatch.setattr(channel, "_thermal_output", refuse)
        with pytest.raises(AssertionError, match="covariance route called"):
            merging_gain_gaussian(SPEC23, 1.0, {2}, {1})
        assert merging_gain(SPEC23, 1.0, {2}, {1}) == pytest.approx(
            entropy_g(0.8) - entropy_g(0.5), abs=1e-12
        )

    @pytest.mark.parametrize("n_s", [-1.0, math.nan, math.inf])
    def test_invalid_photon_number(self, n_s):
        with pytest.raises(ValueError, match="photon number"):
            merging_gain(SPEC23, n_s, {1})

    def test_listing_order_does_not_matter(self):
        # 12 and 4 collide in a small hash table, so a frozenset's iteration
        # order follows the order the subset was listed in; the eta sum must not
        spec = BroadcastChannelSpec((
            0.0868837573799192, 0.0337286049680616, 0.028512631979593434,
            0.06964126463465874, 0.016674500619536622, 0.12427365647873671,
            0.09709345813538116, 0.11237630855694875, 0.05264649299311455,
            0.12662893612869025, 0.018373819000804495, 0.09824397335843672,
        ))
        gains = {merging_gain(spec, 1.7, p) for p in itertools.permutations((12, 2, 4))}
        assert len(gains) == 1

    def test_overlap_and_empty_rejected(self):
        with pytest.raises(ValueError):
            merging_gain(SPEC23, 1.0, {1}, {1})
        with pytest.raises(ValueError):
            merging_gain(SPEC23, 1.0, set(), {1})


class TestSerialization:
    """A region's JSON is what ``bbcap region`` prints, and the constructor
    alone reads it back."""

    @staticmethod
    def _printed(capsys, monkeypatch, argv, prec="9") -> dict:
        monkeypatch.setenv("BBC_CAPACITY_PRECISION", prec)
        assert cli.main(["region", *argv]) == 0
        return json.loads(capsys.readouterr().out)

    @staticmethod
    def _read(data) -> CapacityRegion:
        f = np.zeros(1 << data["m"])
        for c in data["constraints"]:
            mask = sum(1 << (i - 1) for i in c["subset"])
            f[mask] = math.inf if c.get("unbounded") else c["bound_bits"]
        return CapacityRegion(data["m"], data["energy"], f)

    def test_round_trip_preserves_membership(self, capsys, monkeypatch):
        # default display precision: generic points keep their verdicts
        reg = capacity_region(SPEC23, 1.5)
        data = self._printed(capsys, monkeypatch, ["--etas", "0.2,0.3", "--ns", "1.5"])
        rebuilt = self._read(data)
        rng = np.random.RandomState(2)
        for _ in range(200):
            p = rng.uniform(-0.1, 1.1, size=2)
            assert contains(reg, p) == contains(rebuilt, p)

    def test_full_precision_round_trip_is_exact_on_vertices(self, capsys, monkeypatch):
        reg = capacity_region(SPEC23)
        rebuilt = self._read(self._printed(capsys, monkeypatch, ["--etas", "0.2,0.3"], "17"))
        for p in vertices(reg):
            assert contains(rebuilt, p)

    def test_unbounded_flag_never_a_float(self, capsys, monkeypatch):
        data = self._printed(capsys, monkeypatch, ["--etas", "0.6,0.4"])
        flagged = [c for c in data["constraints"] if c.get("unbounded")]
        assert len(flagged) == 3
        assert all("bound_bits" not in c for c in flagged)
        assert self._read(data).unbounded

    def test_energy_tag(self, capsys, monkeypatch):
        for argv, energy in ((["--etas", "0.2,0.3"], UNCONSTRAINED),
                             (["--etas", "0.2,0.3", "--ns", "2"], 2.0)):
            rebuilt = self._read(self._printed(capsys, monkeypatch, argv))
            assert rebuilt.energy == energy
