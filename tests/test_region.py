import itertools
import math

import numpy as np
import pytest

from bbcap import channel
from bbcap.channel import BroadcastChannelSpec
from bbcap.gaussian import conditional_entropy, entropy_g
from bbcap.region import (
    MAX_BOUNDARY_POINTS,
    UNCONSTRAINED,
    VERTEX_DEDUPE_TOL,
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
    region_from_dict,
    region_to_dict,
    vertices,
    _near_tie_keep,
    _validate_subset,
)
from oracles import (
    dedupe_reference,
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
        data = region_to_dict(capacity_region(SPEC23))
        data["constraints"][0]["subset"] = [1.2]
        with pytest.raises(ValueError, match=outside):
            region_from_dict(data)
        # whole numbers of any integer type still name a receiver
        assert inner_bound_finite(SPEC23, 1.0, {np.int64(2)}) == inner_bound_finite(SPEC23, 1.0, {2})

    @pytest.mark.parametrize(
        "subset,want",
        [([1, 3], {1, 3}), ([True], {1}), ([np.int64(2)], {2}), ([np.int64(3), 1], {1, 3}),
         ([True, 2], {1, 2})],
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
         ([], "receiver subset must be nonempty")],
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
        assert len(region_to_dict(capacity_region(SPEC23))["constraints"]) == 3
        reg = capacity_region(BroadcastChannelSpec((0.1,) * 4), 1.0)
        assert len(region_to_dict(reg)["constraints"]) == 15
        with pytest.raises(ValueError):
            capacity_region(BroadcastChannelSpec((0.001,) * 21))

    @pytest.mark.parametrize("m", [0, 21, 64, 2.5, 2.9])
    def test_receiver_count_refused_before_allocation(self, m):
        with pytest.raises(ValueError, match=r"1\.\.20"):
            CapacityRegion(m, UNCONSTRAINED, [0.0])
        with pytest.raises(ValueError, match=r"1\.\.20"):
            region_from_dict({"m": m, "energy": UNCONSTRAINED, "constraints": []})

    def test_polymatroid_validation_rejects_bad_bounds(self):
        # f[mask] over subsets {}, {1}, {2}, {1, 2}
        CapacityRegion(2, UNCONSTRAINED, [0.0, 0.5, 0.6, 0.9])
        with pytest.raises(ValueError):  # not monotone
            CapacityRegion(2, UNCONSTRAINED, [0.0, 0.5, 0.6, 0.4])
        with pytest.raises(ValueError):  # not submodular
            CapacityRegion(2, UNCONSTRAINED, [0.0, 0.5, 0.6, 1.5])
        nan_bound = {
            "m": 1,
            "energy": "unconstrained",
            "constraints": [{"subset": [1], "bound_bits": math.nan}],
        }
        with pytest.raises(ValueError):
            region_from_dict(nan_bound)

    def test_polymatroid_check_runs_above_eight_receivers(self):
        f = capacity_region(BroadcastChannelSpec((0.05,) * 10), 3.0)._f.copy()
        CapacityRegion(10, 3.0, f)
        f[-1] += 1.0  # not submodular
        with pytest.raises(ValueError):
            CapacityRegion(10, 3.0, f)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_check_agrees_with_exhaustive_loop(self, m):
        # perturbed closed-form bounds, some with unbounded flags next to
        # finite ones (inf - finite must not trip the check)
        rng = np.random.RandomState(60 + m)
        verdicts = []
        for _ in range(40):
            reg = capacity_region(random_interior_spec(rng, m), float(rng.uniform(0.5, 5)))
            bounds = {t: reg.bound(t) for t in nonempty_subsets(m)}
            noisy, flagged = rng.rand(2) < 0.5
            for t in bounds:
                if noisy and rng.rand() < 0.3:
                    bounds[t] = max(bounds[t] + rng.normal(scale=0.3), 0.0)
                if flagged and rng.rand() < 0.2:
                    bounds[t] = math.inf
            expect = is_polymatroid_bruteforce(bounds, m, 1e-12)
            f = np.zeros(1 << m)
            for t, b in bounds.items():
                f[sum(1 << (i - 1) for i in t)] = b
            try:
                CapacityRegion(m, UNCONSTRAINED, f)
                verdicts.append(True)
            except ValueError:
                verdicts.append(False)
            assert verdicts[-1] == expect
        assert any(verdicts) and not all(verdicts)


class TestBoundVector:
    """The 2^m bounds, one array expression, against the single-subset functions."""

    @pytest.mark.parametrize("m", range(1, 11))
    def test_every_subset_matches_the_scalar_functions_bitwise(self, m):
        # the decades 1e-2..1e8 spread over m, three or four each
        rng = np.random.RandomState(90 + m)
        specs = [random_interior_spec(rng, m)]
        if m in (3, 6):  # a zero-weight receiver, and no environment at all
            etas = list(specs[0].etas)
            etas[1] = 0.0
            specs += [BroadcastChannelSpec(etas), BroadcastChannelSpec([1.0 / m] * m)]
        energies = [UNCONSTRAINED, 0.0] + [10.0 ** k for k in range(-2, 9)][m % 3 :: 3]
        ground = frozenset(range(1, m + 1))
        for spec in specs:
            for energy in energies:
                f = capacity_region(spec, energy)._f
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
        bad[0b111] += 1e-13  # within check_tol
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
        # steps of d = 0.6e-10.  Each step is within the dedupe tolerance, so
        # comparing with the previous row would keep (0, 0) alone; comparing
        # with the last row kept also keeps (2d, 0), 1.2e-10 away
        d = 0.6e-10
        reg = CapacityRegion(2, UNCONSTRAINED, [0.0, 2 * d, d, 2 * d])
        pts = vertices(reg)
        _same_rows_bitwise(pts, vertices_reference(reg))
        assert pts.tolist() == [[0.0, 0.0], [2 * d, 0.0]]

    @pytest.mark.parametrize("n_s", [1e-11, 1e-9])
    def test_near_ties_at_low_energy(self, n_s):
        # bounds of 1e-10 or less: most corners sit within the dedupe
        # tolerance of another one, so the near-tie pass runs over every row
        reg = capacity_region(BroadcastChannelSpec((0.05, 0.06, 0.07, 0.08, 0.09, 0.1, 0.11)), n_s)
        pts = vertices(reg)
        _same_rows_bitwise(pts, vertices_reference(reg))
        assert len(pts) < 13700  # 1 + the ordered subsets of 7 receivers

    @pytest.mark.parametrize("seed", range(6))
    def test_near_tie_walk_against_the_plain_walk(self, seed):
        # sorted distinct rows on a grid of 0.35 tolerances, the first column
        # rising: runs dropped after their first row, runs whose walk keeps
        # rows inside them, and walks that go on past a wide gap, since the
        # row after it can lie within the tolerance of a row kept before
        rng = np.random.RandomState(seed)
        pts = rng.randint(-2, 3, (300, 2 + seed % 2)) * 0.35e-10
        pts[:, 0] = np.cumsum(rng.choice([0.0, 0.35e-10, 3e-10], 300))
        pts = np.unique(pts, axis=0)  # sorted as tuples, distinct
        gap = np.abs(pts[1:] - pts[:-1]).max(axis=1)
        ties = np.flatnonzero(gap <= VERTEX_DEDUPE_TOL)
        keep = _near_tie_keep(pts, np.append(gap, math.inf), ties)
        assert len(ties) and not keep.all()
        assert pts[keep].tolist() == [list(p) for p in dedupe_reference(map(tuple, pts.tolist()))]

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
    def test_round_trip_preserves_membership(self):
        # default display precision: generic points keep their verdicts
        reg = capacity_region(SPEC23, 1.5)
        rebuilt = region_from_dict(region_to_dict(reg, round_to=9))
        rng = np.random.RandomState(2)
        for _ in range(200):
            p = rng.uniform(-0.1, 1.1, size=2)
            assert contains(reg, p) == contains(rebuilt, p)

    def test_full_precision_round_trip_is_exact_on_vertices(self):
        reg = capacity_region(SPEC23)
        rebuilt = region_from_dict(region_to_dict(reg, round_to=17))
        for p in vertices(reg):
            assert contains(rebuilt, p)

    def test_unbounded_flag_never_a_float(self):
        data = region_to_dict(capacity_region(BroadcastChannelSpec((0.6, 0.4))))
        flagged = [c for c in data["constraints"] if c.get("unbounded")]
        assert len(flagged) == 3
        assert all("bound_bits" not in c for c in flagged)
        rebuilt = region_from_dict(data)
        assert rebuilt.unbounded

    def test_energy_tag(self):
        assert region_to_dict(capacity_region(SPEC23))["energy"] == "unconstrained"
        assert region_to_dict(capacity_region(SPEC23, 2.0))["energy"] == 2.0

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -0.5])
    def test_bad_energy_is_refused(self, energy):
        data = region_to_dict(capacity_region(SPEC23, 2.0))
        data["energy"] = energy
        with pytest.raises(ValueError, match="finite and nonnegative"):
            region_from_dict(data)
