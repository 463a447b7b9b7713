import itertools
import math
import tracemalloc

import numpy as np
import pytest

from bbcap import channel, fock, gaussian, region
from bbcap.channel import BroadcastChannelSpec, receiver_labels
from bbcap.fock import (
    ENTROPY_TOL,
    FockState,
    InconclusiveVerificationError,
    cutoff_for_tail,
    reduce_density,
    split_with_vacuum,
    tail_mass,
    tmsv_fock,
    verify_conditional_entropies,
)
from bbcap.gaussian import conditional_entropy, entropy_g, reduce, von_neumann_entropy
from bbcap.region import inner_bound_finite, inner_bound_finite_gaussian, nonempty_subsets
from oracles import (
    channel_output_fock,
    output_state_tmsv,
    reduce_density_reference,
    spectral_entropy,
    split_photon_weights_loop,
    thermal_weight,
)

SPEC23 = BroadcastChannelSpec((0.2, 0.3))


def _state(labels, table: dict, cutoff: int) -> FockState:
    """A ``FockState`` from a dict of occupation tuples to amplitudes."""
    occ = np.array(list(table), dtype=np.int64).reshape(len(table), len(labels))
    return FockState(labels, occ, np.array(list(table.values()), dtype=float), cutoff)


class TestFockStateValidation:
    @pytest.mark.parametrize(
        "labels, occ, amps",
        [
            (("a", "b"), np.zeros((2, 3), np.int64), [0.6, 0.8]),
            (("a", "b"), np.array([[0, 1], [-1, 2]]), [0.6, 0.8]),
            (("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]), [0.6, 0.8]),
            (("a", "b"), np.array([[0, 1], [1, 0]]), [0.6, 0.8, 0.0]),
            (("a", "a"), np.array([[0, 1], [1, 0]]), [0.6, 0.8]),
        ],
        ids=["column_count", "negative", "float_occupations", "amplitude_count",
             "duplicate_labels"],
    )
    def test_bad_table_is_refused(self, labels, occ, amps):
        with pytest.raises(ValueError):
            FockState(labels, occ, amps, 2)


class TestTmsvFock:
    def test_zero_energy_is_vacuum(self):
        st = tmsv_fock(0.0, 10)
        assert st.occupations.tolist() == [[0, 0]] and st.amplitudes.tolist() == [1.0]
        assert st.norm_sq == 1.0

    def test_tail_matches_geometric_closed_form(self):
        for n_s, cutoff in ((0.5, 20), (1.0, 12), (0.2, 8), (3.0, 25)):
            st = tmsv_fock(n_s, cutoff)
            assert abs(1.0 - st.norm_sq - tail_mass(n_s, cutoff)) < 1e-14

    def test_half_energy_tail_value(self):
        assert tail_mass(0.5, 20) == pytest.approx((1.0 / 3.0) ** 21, rel=1e-12)
        assert tail_mass(0.5, 20) < 1e-10

    def test_marginal_spectrum_entropy_is_g(self):
        st = tmsv_fock(0.5, 25)
        rho = reduce_density(st, ("A",))
        assert spectral_entropy(rho.eigenvalues()) == pytest.approx(entropy_g(0.5), abs=ENTROPY_TOL)

    def test_support_is_diagonal_pairs(self):
        st = tmsv_fock(0.7, 15)
        assert np.array_equal(st.occupations[:, 0], st.occupations[:, 1])


class TestSplitWithVacuum:
    def test_full_transmittance_appends_vacuum(self):
        st = tmsv_fock(0.5, 12)
        out = split_with_vacuum(st, "A'", 1.0, "B")
        assert out.occupations.tolist() == [[k, k, 0] for k, _ in st.occupations.tolist()]
        assert out.norm_sq == pytest.approx(st.norm_sq, abs=1e-15)

    def test_zero_transmittance_transfers_everything(self):
        st = tmsv_fock(0.5, 12)
        out = split_with_vacuum(st, "A'", 0.0, "B")
        assert out.occupations.tolist() == [[k, 0, k] for k, _ in st.occupations.tolist()]

    def test_single_photon_balanced_amplitudes(self):
        one = _state(("a",), {(1,): 1.0}, 1)
        out = split_with_vacuum(one, "a", 0.5, "b")
        assert out.occupations.tolist() == [[0, 1], [1, 0]]
        # both output amplitudes positive under this package's convention
        assert out.amplitudes == pytest.approx([math.sqrt(0.5)] * 2, abs=1e-15)
        rho = reduce_density(out, ("a",))
        assert sorted(np.round(rho.eigenvalues(), 12)) == [0.5, 0.5]

    def test_norm_and_photon_number_conserved(self):
        rng = np.random.RandomState(4)
        st = tmsv_fock(0.8, 18)
        for step, label in enumerate(("B", "C")):
            st = split_with_vacuum(st, "A'", rng.uniform(0.2, 0.9), label)
            assert abs(st.norm_sq - (1.0 - tail_mass(0.8, 18))) < 1e-14
            occ = st.occupations  # sender count = everything else
            assert np.array_equal(occ[:, 0], occ[:, 1:].sum(axis=1))

    def test_bad_arguments(self):
        st = tmsv_fock(0.5, 5)
        with pytest.raises(ValueError):
            split_with_vacuum(st, "A'", 1.5, "B")
        with pytest.raises(ValueError):
            split_with_vacuum(st, "nope", 0.5, "B")
        with pytest.raises(ValueError):
            split_with_vacuum(st, "A'", 0.5, "A")


class TestReduceDensity:
    def test_keep_all_is_rank_one(self):
        st = tmsv_fock(0.6, 8)
        rho = reduce_density(st, st.mode_labels)
        eigs = rho.eigenvalues()
        assert eigs[0] == pytest.approx(st.norm_sq, abs=1e-12)
        assert np.all(np.abs(eigs[1:]) < 1e-12)

    def test_tmsv_arm_is_diagonal_thermal(self):
        st = tmsv_fock(0.5, 20)
        rho = reduce_density(st, ("A'",))
        # every block is 1x1: the photon-number populations themselves
        assert all(len(basis) == 1 for basis, _ in rho.blocks)
        pops = {basis[0][0]: float((fac @ fac.T)[0, 0]) for basis, fac in rho.blocks}
        for k in range(21):
            assert pops[k] == pytest.approx(thermal_weight(0.5, k), abs=1e-14)

    def test_channel_receiver_marginal_is_attenuated_thermal(self):
        st = channel_output_fock(SPEC23, 0.5, 21)
        rho = reduce_density(st, ("B1",))
        pops = {basis[0][0]: float((fac @ fac.T)[0, 0]) for basis, fac in rho.blocks}
        for k in range(6):
            assert pops[k] == pytest.approx(thermal_weight(0.1, k), abs=ENTROPY_TOL)
        gauss = von_neumann_entropy(reduce(output_state_tmsv(SPEC23, 0.5), ["B1"]))
        assert spectral_entropy(rho.eigenvalues()) == pytest.approx(gauss, abs=ENTROPY_TOL)

    def test_receiver_pair_blocks_conserve_total_photons(self):
        st = channel_output_fock(SPEC23, 0.5, 15)
        rho = reduce_density(st, ("B1", "B2"))
        for basis, _ in rho.blocks:
            assert np.unique(basis.sum(axis=1)).size == 1

    @pytest.mark.parametrize(
        "occ, amps, keep",
        [
            ([[0, 0], [0, 0]], [0.6, 0.8], ("a",)),
            ([[0, 0], [0, 0]], [0.6, 0.8], ("a", "b")),
            ([[0, 1], [1, 0], [0, 1]], [0.6, 0.6, 0.529], ("b",)),
            ([[0, 1], [1, 0], [0, 1]], [0.0, 0.8, 0.6], ("a",)),
        ],
    )
    def test_repeated_rows_are_refused(self, occ, amps, keep):
        # a scatter would keep one amplitude of each repeat: [0.64] for the first
        state = FockState(("a", "b"), np.array(occ), amps, 1)
        with pytest.raises(ValueError, match="occupation rows repeat"):
            reduce_density(state, keep)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            reduce_density(tmsv_fock(0.5, 5), ("X",))
        with pytest.raises(ValueError):
            reduce_density(tmsv_fock(0.5, 5), ())


class TestDensityMatrixValidation:
    def test_factor_must_match_its_basis(self):
        basis = np.array([[0], [1]])
        with pytest.raises(ValueError, match="^block factor does not match its basis size$"):
            fock.DensityMatrix(("a",), [(basis, np.full((3, 1), 0.5))], 1)

    def test_trace_above_one_is_refused(self):
        basis = np.array([[0], [1]])
        with pytest.raises(ValueError, match=r"^trace 1\.25 exceeds 1$"):
            fock.DensityMatrix(("a",), [(basis, np.array([[1.0], [0.5]]))], 1)


def _verify_keeps(spec) -> list:
    """The mode sets ``verify_conditional_entropies`` reduces onto."""
    recv = receiver_labels(spec)
    rests = [tuple(lab for lab in recv if lab not in t) for r in range(1, spec.m + 1)
             for t in itertools.combinations(recv, r)]
    return [("A",) + recv] + [("A",) + rest for rest in rests] + [("E",)]


def _cascade_with_extreme_stages():
    st = tmsv_fock(0.7, 9)
    for eta, label in ((1.0, "B1"), (0.0, "B2"), (0.35, "B3")):
        st = split_with_vacuum(st, "A'", eta, label)
    return st


def _mixed_totals_state():
    # kept tuple (0,) meets traced tuples of totals 0, 1 and 3; (1,) joins
    # its block through (1,); entries are out of lexicographic order
    amps = {(1, 2): 0.3, (0, 3): -0.2, (0, 0): 0.5, (1, 1): 0.4, (0, 1): -0.35, (2, 0): 0.25}
    return _state(("a", "b"), amps, 3)


def _scrambled_state():
    # every kept element sums several terms, in an order that is not sorted
    rng = np.random.RandomState(7)
    occs = list(itertools.product(range(4), repeat=3))
    rng.shuffle(occs)
    amps = rng.uniform(-1.0, 1.0, len(occs))
    amps /= np.linalg.norm(amps)
    return _state(("a", "b", "c"), dict(zip(occs, amps.tolist())), 9)


def _staircase_state(n: int) -> FockState:
    # kept i meets traced i and i + 1: one n x (n + 1) factor holding 2n entries
    amps = {}
    for i in range(n):
        amps[(i, i)] = amps[(i, i + 1)] = math.sqrt(0.5 / n)
    return _state(("a", "b"), amps, n)


def _reference_cases():
    cases = [("tmsv_keep_all", lambda: tmsv_fock(0.6, 8), ("A", "A'"))]
    orderings = {1: ("E", "B1"), 2: ("B2", "E", "B1"), 3: ("B3", "E", "B1", "B2")}
    for spec, cutoff in ((BroadcastChannelSpec((0.3,)), 20),
                         (SPEC23, 15), (BroadcastChannelSpec((0.1, 0.25, 0.3)), 9)):
        for ordering in (None, orderings[spec.m]):
            for keep in _verify_keeps(spec):
                name = f"m{spec.m}_{'-'.join(ordering or ('default',))}_{'-'.join(keep)}"
                cases.append((name, lambda s=spec, c=cutoff, o=ordering:
                              channel_output_fock(s, 0.4, c, o), keep))
    schmidt = lambda: split_with_vacuum(tmsv_fock(0.5, 20), "A'", 0.8, "B")
    cases.append(("schmidt_A-B", schmidt, ("A", "B")))
    labels = ("A", "A'", "B1", "B2", "B3")
    for r in range(1, len(labels) + 1):
        for keep in itertools.combinations(labels, r):
            cases.append((f"eta01_{'-'.join(keep)}", _cascade_with_extreme_stages, keep))
    bell = _state(("a", "b"), {(0, 0): math.sqrt(0.5), (1, 1): math.sqrt(0.5)}, 1)
    cases += [("bell_a", lambda: bell, ("a",)), ("bell_ab", lambda: bell, ("a", "b"))]
    cases.append(("empty", lambda: _state(("a", "b"), {}, 3), ("a",)))
    for keep in (("a",), ("b",), ("b", "a")):
        cases.append((f"mixed_totals_{'-'.join(keep)}", _mixed_totals_state, keep))
    for keep in (("a",), ("c", "a"), ("b", "c"), ("a", "b", "c")):
        cases.append((f"scrambled_{'-'.join(keep)}", _scrambled_state, keep))
    cases.append(("staircase_a", lambda: _staircase_state(30), ("a",)))
    big = _state(("a", "b", "c"), {(2**40, 0, 2**40): 0.6, (2**40, 1, 2**40 - 1): 0.8}, 2**41)
    cases += [("huge_occupations_a-b", lambda: big, ("a", "b")),
              ("huge_occupations_c", lambda: big, ("c",))]
    return cases


REFERENCE_CASES = _reference_cases()


EPS = np.finfo(float).eps


class TestReduceDensityMatchesReference:
    """The Schmidt factors against the dense blocks of the union-find loop.

    Each element of M Mᵀ and of the reference block sums the same r products
    (r traced configurations) in some order, so each is within
    γ_r ‖m_i‖ ‖m_j‖ of the exact value, with γ_r ≈ r·eps and m_i the rows of M:
    the two differ by at most 3·r·eps·‖m_i‖ ‖m_j‖.  Squared singular values
    and ``eigvalsh`` are both backward stable, so by Weyl's inequality every
    eigenvalue agrees within 8·n·eps·‖ρ‖₂ (n the largest side of any factor).
    """

    @pytest.mark.parametrize(
        "make, keep", [c[1:] for c in REFERENCE_CASES], ids=[c[0] for c in REFERENCE_CASES]
    )
    def test_same_blocks(self, make, keep):
        state = make()
        got = reduce_density(state, keep).blocks
        want = reduce_density_reference(state, keep)
        assert [tuple(map(tuple, basis.tolist())) for basis, _ in got] == [
            basis for basis, _ in want
        ]
        for (_, fac), (_, ref) in zip(got, want):
            norms = np.linalg.norm(fac, axis=1)
            bound = 3 * fac.shape[1] * EPS * np.outer(norms, norms)
            assert np.all(np.abs(fac @ fac.T - ref) <= bound)

    @pytest.mark.parametrize(
        "make, keep", [c[1:] for c in REFERENCE_CASES], ids=[c[0] for c in REFERENCE_CASES]
    )
    def test_same_spectrum(self, make, keep):
        state = make()
        rho = reduce_density(state, keep)
        ref = reduce_density_reference(state, keep)
        want = np.sort(np.concatenate([np.linalg.eigvalsh(b) for _, b in ref] or [[]]))[::-1]
        vals = rho.eigenvalues()
        got = np.zeros(want.size)
        got[: vals.size] = vals
        assert np.all(got >= 0.0)
        n = max((max(fac.shape) for _, fac in rho.blocks), default=0)
        scale = want[0] if want.size else 0.0
        assert np.all(np.abs(got - want) <= 8 * n * EPS * scale)

    @pytest.mark.parametrize(
        "make, keep", [c[1:] for c in REFERENCE_CASES], ids=[c[0] for c in REFERENCE_CASES]
    )
    def test_factors_hold_the_amplitudes(self, make, keep):
        # every entry is one factor element, copied: a scatter that sums nothing
        state = make()
        flat = np.concatenate([fac.ravel() for _, fac in reduce_density(state, keep).blocks]
                              + [np.zeros(0)])
        amps = state.amplitudes
        assert np.sort(flat[flat != 0.0]).tobytes() == np.sort(amps[amps != 0.0]).tobytes()

    def test_empty_state_has_no_blocks(self):
        rho = reduce_density(_state(("a", "b"), {}, 3), ("a",))
        assert rho.blocks == () and rho.eigenvalues().size == 0


ETAS12 = (0.1, 0.2, 0.15, 0.25, 0.05, 0.04, 0.03, 0.02, 0.01, 0.015, 0.025, 0.035)


class TestDenseBudget:
    def test_peak_memory_stays_within_the_estimate(self, monkeypatch):
        # the figure verification budgets, read from the gate itself: a memory
        # budget one byte below the peak must refuse the run, and one of five
        # times the peak admit it.  Large and small tables at m = 1 to 12; the
        # small ones at large m are bounded by their 2^m keep sets' weights, and
        # the smallest by the 64-entry floor
        for etas, n_s in (((0.7,), 2.0), ((0.2, 0.3), 1.6), ((0.2, 0.3, 0.1), 0.05),
                          ((0.2, 0.3, 0.1), 1.0), ((0.1, 0.2, 0.15, 0.25), 0.3),
                          ((0.1, 0.2, 0.15, 0.25), 1.0), ((0.7,), 0.01), ((0.7,), 0.0),
                          (ETAS12[:5], 0.5), (ETAS12[:5], 0.01), (ETAS12[:5], 0.0),
                          (ETAS12[:8], 0.1), (ETAS12[:8], 0.01), (ETAS12, 0.03), (ETAS12, 0.01),
                          (ETAS12, 0.0)):
            spec = BroadcastChannelSpec(etas)
            cutoff = cutoff_for_tail(n_s)
            _, run = fock._largest_run(spec.m, cutoff)
            sizes = []

            def runs():
                for occ, amps in fock._sector_runs(spec, n_s, cutoff):
                    sizes.append(len(amps))
                    yield occ, amps

            tracemalloc.start()
            try:
                _, certified = fock._block_spectra(runs(), spec.m, cutoff)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert certified, etas
            assert max(sizes) <= run, etas
            assert sum(sizes) == math.comb(cutoff + spec.m + 1, spec.m + 1), etas
            monkeypatch.setattr(fock, "MAX_DENSE_BYTES", peak - 1)
            with pytest.raises(InconclusiveVerificationError, match="bytes, above the budget"):
                fock._budget(spec.m, n_s, cutoff)
            monkeypatch.setattr(fock, "MAX_DENSE_BYTES", 5 * peak)
            assert fock._budget(spec.m, n_s, cutoff)[0] == cutoff, etas

    def test_verification_is_inconclusive(self, monkeypatch):
        monkeypatch.setattr(fock, "MAX_DENSE_BYTES", 1000)
        monkeypatch.setattr(fock, "_sector_runs", None)  # refused before any sector is built
        with pytest.raises(InconclusiveVerificationError, match="budget of 1000 bytes"):
            verify_conditional_entropies(SPEC23, 0.2, cutoff=15)

    @pytest.mark.parametrize("etas, n_s, message", [
        ((0.1,) * 5, 1.5, "the 32 keep sets at cutoff 45 take 576302720 entry passes, "
                          "above the budget of 132158208"),
        (ETAS12, 0.05, "the 4096 keep sets at cutoff 7 take 317521920 entry passes, "
                       "above the budget of 132158208"),
    ])
    def test_work_over_budget_is_inconclusive(self, monkeypatch, etas, n_s, message):
        # both fit the memory budget: 2118760 and 50388 entries in the largest run
        monkeypatch.setattr(fock, "_sector_runs", None)  # refused before any sector is built
        with pytest.raises(InconclusiveVerificationError, match=f"^{message}$"):
            verify_conditional_entropies(BroadcastChannelSpec(etas), n_s)

    def test_work_budget_is_the_costliest_run_of_m_up_to_4(self, monkeypatch):
        # the work gate admits every run of m <= 4, m = 4 at MAX_CUTOFF exactly at
        # its budget, and m = 5 less.  At every m <= 12 the memory gate admits
        # what the work gate does: the largest estimate is m = 4 at MAX_CUTOFF, a
        # sector of C(64, 4) entries at 384 bytes and 61 × 16 weights at 8
        assert fock.MAX_WORK == math.comb(fock.MAX_CUTOFF + 5, 5) << 4 == 132158208
        assert math.comb(fock.MAX_CUTOFF + 6, 6) << 5 > fock.MAX_WORK
        largest = math.comb(64, 4) * 384 + 8 * 61 * 16
        assert largest == 243992192 <= fock.MAX_DENSE_BYTES
        monkeypatch.setattr(fock, "MAX_DENSE_BYTES", largest)
        for m in range(1, 13):
            for cutoff in range(fock.MAX_CUTOFF + 1):
                if math.comb(cutoff + m + 1, m + 1) << m <= fock.MAX_WORK:
                    assert fock._budget(m, 0.0, cutoff) == (cutoff, 0.0), (m, cutoff)
                else:
                    assert m > 4, (m, cutoff)
        monkeypatch.setattr(fock, "MAX_DENSE_BYTES", largest - 1)
        with pytest.raises(InconclusiveVerificationError, match="243992192 bytes, above"):
            fock._budget(4, 0.0, fock.MAX_CUTOFF)


def _tampered_runs(monkeypatch, change):
    """Route verification through runs whose amplitude table ``change`` edits."""
    runs = fock._sector_runs

    def tampered(*args, **kwargs):
        for occ, amps in runs(*args, **kwargs):
            yield change(occ, amps.copy())

    monkeypatch.setattr(fock, "_sector_runs", tampered)


def _scaled(entry, factor):
    def change(occ, amps):
        amps[(occ == entry).all(axis=1)] *= factor
        return occ, amps
    return change


def _swapped(first, second):
    def change(occ, amps):
        at = [np.flatnonzero((occ == entry).all(axis=1)) for entry in (first, second)]
        amps[at[0]], amps[at[1]] = amps[at[1]], amps[at[0]]
        return occ, amps
    return change


# (etas, n_s, ordering): the four verify goldens' inputs, a zero-weight
# receiver, eta_E = 0 at m = 2 and m = 3, a receiver whose share underflows,
# and custom orderings
SPECTRUM_CASES = [
    ((0.2, 0.3), 0.5, None), ((0.2, 0.3), 0.4, None), ((0.1, 0.25, 0.3), 0.1, None),
    ((0.3, 0.4), 0.9, ("B2", "E", "B1")), ((0.0, 0.4), 0.6, None), ((0.5, 0.5), 0.7, None),
    ((0.1, 0.2, 0.15), 0.3, ("E", "B3", "B1", "B2")), ((0.1, 0.2, 0.15, 0.25), 0.2, None),
    ((1e-300, 0.5), 0.5, None), ((0.3, 0.3, 0.4), 1.0, None),
]


class TestRankOneCertificate:
    """The streamed block weights and their certificate, the product form.

    An entry is the rounded product of sqrt(w_k), common to its sector, and
    m stage factors, each within 4.5 u (u = eps/2) of its exact value; an
    entry with one occupied mode has factors within 2 u.  The check compares
    each entry with the product of 2p + 1 such entries (p its occupied modes
    besides the base mode) and correctly rounded roots of factorials, and
    accepts a relative residual up to B = (1.5 m^2 + 8 m + 3) eps, so
    scaling one amplitude by 1 + delta is detected whenever delta is at
    least 2B: 50 eps at m = 2, below the (24m + 4) eps used here,
    118 eps at m = 4, and at m = 12, where B = 315 eps, 630 eps, about
    1.4e-13 (CHANGES.md).
    """

    def test_one_amplitude_off_by_1e_12_fails(self, monkeypatch):
        _tampered_runs(monkeypatch, _scaled((3, 1, 1, 1), 1 + 1e-12))
        report = verify_conditional_entropies(SPEC23, 0.5, cutoff=21)
        # the entropies cannot see it; the certificate does
        assert all(c["abs_dev"] < ENTROPY_TOL for c in report["cases"])
        assert [c["pass"] for c in report["cases"]] == [False, False, True, True]
        assert report["pass"] is False

    @pytest.mark.parametrize("entry", [(3, 1, 1, 1), (5, 2, 2, 1), (2, 0, 2, 0), (6, 2, 0, 4),
                                       (1, 1, 0, 0)])
    def test_smallest_detected_change(self, monkeypatch, entry):
        delta = (24 * SPEC23.m + 4) * EPS
        _tampered_runs(monkeypatch, _scaled(entry, 1 + delta))
        assert verify_conditional_entropies(SPEC23, 0.5, cutoff=21)["pass"] is False

    def test_untouched_table_passes_through_the_same_route(self, monkeypatch):
        _tampered_runs(monkeypatch, _scaled((3, 1, 1, 1), 1.0))
        assert verify_conditional_entropies(SPEC23, 0.5, cutoff=21)["pass"] is True

    def test_missing_entry_fails(self, monkeypatch):
        # weight 3.9e-10: too light for any entropy to notice, not for its row's norm
        def drop(occ, amps):
            keep = ~(occ == (10, 8, 1, 1)).all(axis=1)
            return occ[keep], amps[keep]

        _tampered_runs(monkeypatch, drop)
        report = verify_conditional_entropies(SPEC23, 0.5, cutoff=21)
        assert all(c["abs_dev"] < ENTROPY_TOL for c in report["cases"])
        assert report["pass"] is False

    def test_flipped_sign_fails_though_no_weight_moves(self, monkeypatch):
        # (A, B1)'s block t = 2, row (3, 1), turns rank two; every square,
        # so every block weight in every reduction, stays bit for bit
        untouched = verify_conditional_entropies(SPEC23, 0.5, cutoff=21)
        _tampered_runs(monkeypatch, _scaled((3, 1, 1, 1), -1.0))
        report = verify_conditional_entropies(SPEC23, 0.5, cutoff=21)
        assert ([c["fock_bits"] for c in report["cases"]]
                == [c["fock_bits"] for c in untouched["cases"]])
        assert [c["pass"] for c in report["cases"]] == [False, False, True, True]
        assert report["pass"] is False

    def test_swap_within_a_block_fails(self, monkeypatch):
        # both entries lie in row (10, 8) of (A, B1)'s block t = 2, which keeps
        # its norm and turns rank two; the weights that move elsewhere are
        # about 1e-10, too light for any entropy to notice
        _tampered_runs(monkeypatch, _swapped((10, 8, 1, 1), (10, 8, 2, 0)))
        report = verify_conditional_entropies(SPEC23, 0.5, cutoff=21)
        assert all(c["abs_dev"] < ENTROPY_TOL for c in report["cases"])
        assert all(s["max_abs_dev"] < fock.SCHMIDT_TOL for s in report["schmidt"])
        assert report["pass"] is False

    def test_top_of_the_cutoff_range(self, monkeypatch):
        # m = 4: N_S = 2 needs cutoff 56 and N_S = 2.1 cutoff 59, the largest
        # below MAX_CUTOFF; a 1e-12 change of an entry in sector 52 still fails
        spec = BroadcastChannelSpec((0.1, 0.2, 0.15, 0.25))
        report = verify_conditional_entropies(spec, 2.1)
        assert report["cutoff"] == 59 and report["pass"] is True
        _tampered_runs(monkeypatch, _scaled((52, 10, 12, 10, 12, 8), 1 + 1e-12))
        report = verify_conditional_entropies(spec, 2.0)
        assert report["cutoff"] == 56
        assert all(c["abs_dev"] < ENTROPY_TOL for c in report["cases"])
        assert report["pass"] is False

    @pytest.mark.parametrize("m, n_s, entry", [(6, 0.3, (7,) + (1,) * 7),
                                               (12, 0.01, (4, 1, 1, 1, 1) + (0,) * 9)])
    def test_one_amplitude_off_by_1e_12_fails_above_four_receivers(self, monkeypatch, m, n_s,
                                                                    entry):
        _tampered_runs(monkeypatch, _scaled(entry, 1 + 1e-12))
        report = verify_conditional_entropies(BroadcastChannelSpec(ETAS12[:m]), n_s)
        assert all(c["abs_dev"] < ENTROPY_TOL for c in report["cases"])
        assert report["pass"] is False

    @pytest.mark.parametrize("entry", [(21, 1, 0, 20), (21, 0, 0, 21)])
    def test_nan_amplitude_fails(self, monkeypatch, entry):
        _tampered_runs(monkeypatch, _scaled(entry, math.nan))
        with np.errstate(invalid="ignore"):
            report = verify_conditional_entropies(SPEC23, 0.5, cutoff=21)
        # every weight sum that meets the entry is NaN, and so is every entropy
        assert not any(c["pass"] for c in report["cases"] + report["schmidt"])
        assert report["pass"] is False

    @pytest.mark.parametrize("etas, n_s, ordering", SPECTRUM_CASES)
    def test_streamed_spectra_match_svd(self, etas, n_s, ordering):
        # block t's weight sums its d r squares (within d r u) and the SVD's
        # top squared singular value is within 8 max(d, r) eps; the other
        # singular values come from rounding alone
        spec = BroadcastChannelSpec(etas)
        cutoff = cutoff_for_tail(n_s)
        state = channel_output_fock(spec, n_s, cutoff, ordering)
        spectra, certified = fock._block_spectra(fock._sector_runs(spec, n_s, cutoff, ordering),
                                                 spec.m, cutoff)
        assert certified and spectra.shape == (2**spec.m, cutoff + 1)
        for mask, weights in enumerate(spectra):
            kept = tuple(i for i in range(1, spec.m + 1) if mask >> (i - 1) & 1)
            rho = reduce_density(state, ("A",) + tuple(f"B{i}" for i in kept))
            blocks = np.zeros(cutoff + 1, dtype=bool)
            for basis, fac in rho.blocks:
                t = basis[0, 0] - basis[0, 1:].sum()
                sv = np.linalg.svd(fac, compute_uv=False) ** 2
                d, r = fac.shape
                bound = (d * r / 2 + 8 * max(d, r)) * EPS
                assert abs(weights[t] - sv[0]) <= bound * sv[0], (kept, t)
                assert sv[1:].sum() <= min(d, r) * ((3 * spec.m + 8 * max(d, r)) * EPS) ** 2 * sv[0]
                blocks[t] = True
            assert not weights[~blocks].any(), kept

    def test_sectors_join_to_the_whole_table(self, monkeypatch):
        spec, n_s, ordering = BroadcastChannelSpec((0.1, 0.25, 0.3)), 0.8, ("B3", "E", "B1", "B2")
        cutoff = cutoff_for_tail(n_s)
        state = channel_output_fock(spec, n_s, cutoff, ordering)
        whole, _ = fock._block_spectra(fock._sector_runs(spec, n_s, cutoff, ordering), 3, cutoff)
        monkeypatch.setattr(fock, "RUN_ENTRIES", state.amplitudes.size - 1)
        sectors = list(fock._sector_runs(spec, n_s, cutoff, ordering))
        assert [occ[:, 0].tolist() for occ, _ in sectors] == [
            [k] * math.comb(k + 3, 3) for k in range(cutoff + 1)]
        assert np.array_equal(np.concatenate([occ for occ, _ in sectors]), state.occupations)
        assert np.array_equal(np.concatenate([a for _, a in sectors]), state.amplitudes)
        spectra, certified = fock._block_spectra(iter(sectors), 3, cutoff)
        assert certified
        assert spectra.shape == whole.shape == (8, cutoff + 1)
        for mask, weights in enumerate(spectra):
            # each weight adds the same squares in another grouping, each sum
            # within (entries - 1) u of the exact one
            np.testing.assert_allclose(weights, whole[mask], rtol=state.amplitudes.size * EPS,
                                       atol=0)

    @pytest.mark.parametrize("etas, n_s, ordering", [
        ((0.3,), 2.0, None), ((0.2, 0.3), 0.5, ("B2", "E", "B1")), ((0.3, 0.0, 0.2), 0.4, None),
        ((0.1, 0.25, 0.3), 0.0, None), ((0.1, 0.2, 0.15, 0.25), 0.3, ("E", "B4", "B1", "B3", "B2")),
    ])
    def test_sector_runs_join_to_the_whole_run(self, monkeypatch, etas, n_s, ordering):
        # the sector split depends on RUN_ENTRIES alone, and never moves a bit
        spec = BroadcastChannelSpec(etas)
        cutoff = cutoff_for_tail(n_s)
        monkeypatch.setattr(fock, "RUN_ENTRIES", 2**62)
        (occ, amps), = fock._sector_runs(spec, n_s, cutoff, ordering)
        monkeypatch.setattr(fock, "RUN_ENTRIES", 0)
        sectors = list(fock._sector_runs(spec, n_s, cutoff, ordering))
        assert len(sectors) == cutoff + 1
        assert np.concatenate([o for o, _ in sectors]).tobytes() == occ.tobytes()
        assert np.concatenate([a for _, a in sectors]).tobytes() == amps.tobytes()

    def test_binomial_weights_are_the_scalar_expression(self):
        rng = np.random.RandomState(3)
        for eta in [0.0, 1.0, 0.5, 1e-300, 1 - 1e-16] + list(rng.uniform(0, 1, 20) ** 4):
            for top in (0, 1, 7, 61):
                want = [math.comb(n, k) * eta**k * (1.0 - eta) ** (n - k)
                        for n in range(top) for k in range(n + 1)]
                assert fock._binomial_weights(eta, top).tolist() == want


def _entropy(state, keep) -> float:
    """Von Neumann entropy (bits) of the reduced state on ``keep``, from its spectrum."""
    return spectral_entropy(reduce_density(state, keep).eigenvalues())


class TestEntropyFock:
    def test_pure_projector_is_zero(self):
        # tail at this cutoff is ~1e-16, so the kept weight is 1 to precision
        st = tmsv_fock(0.4, 30)
        assert _entropy(st, st.mode_labels) == pytest.approx(0.0, abs=1e-10)

    def test_balanced_qubit_is_one_bit(self):
        bell = _state(("a", "b"), {(0, 0): math.sqrt(0.5), (1, 1): math.sqrt(0.5)}, 1)
        assert _entropy(bell, ("a",)) == pytest.approx(1.0, abs=1e-12)

    def test_truncated_thermal_matches_g(self):
        st = tmsv_fock(0.5, 20)
        assert _entropy(st, ("A",)) == pytest.approx(entropy_g(0.5), abs=1e-8)


class TestVerifyConditionalEntropies:
    def test_half_energy_reference_case(self):
        report = verify_conditional_entropies(SPEC23, 0.5, cutoff=25)
        assert report["pass"]
        assert report["max_abs_dev"] < 1e-6
        by_case = {c["case"]: c for c in report["cases"]}
        first = by_case["-H(B1|A,B2)"]
        assert first["fock_bits"] == pytest.approx(
            entropy_g(0.35) - entropy_g(0.25), abs=1e-6
        )
        assert first["closed_form_bits"] == pytest.approx(0.21218569170395585, abs=1e-12)

    def test_zero_energy_all_zero(self):
        report = verify_conditional_entropies(SPEC23, 0.0, cutoff=5)
        assert report["pass"]
        for case in report["cases"]:
            assert case["fock_bits"] == pytest.approx(0.0, abs=1e-12)

    def test_purity_case_present(self):
        report = verify_conditional_entropies(SPEC23, 0.5, cutoff=21)
        purity = [c for c in report["cases"] if c["case"].startswith("purity")]
        assert len(purity) == 1 and purity[0]["abs_dev"] < 1e-6

    def test_budget_violation_is_inconclusive(self):
        with pytest.raises(InconclusiveVerificationError):
            verify_conditional_entropies(SPEC23, 0.5, cutoff=10)
        with pytest.raises(InconclusiveVerificationError):
            verify_conditional_entropies(SPEC23, 3.0)  # needs cutoff > 60

    @pytest.mark.parametrize("n_s", [math.nan, math.inf, -0.5])
    @pytest.mark.parametrize("cutoff", [None, 20])
    def test_bad_energy_is_refused(self, n_s, cutoff):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            verify_conditional_entropies(SPEC23, n_s, cutoff=cutoff)

    def test_fractional_cutoff_is_refused(self):
        with pytest.raises(ValueError, match="whole number, got 20.7"):
            verify_conditional_entropies(SPEC23, 0.5, cutoff=20.7)
        assert verify_conditional_entropies(SPEC23, 0.2, cutoff=np.int64(15))["cutoff"] == 15

    def test_too_many_receivers(self):
        # the network's cap, m <= 12, before any budget: N_S = 5 would be inconclusive
        for n_s in (0.2, 5.0):
            with pytest.raises(ValueError, match="network construction limited to m <= 12"):
                verify_conditional_entropies(BroadcastChannelSpec((0.05,) * 13), n_s)

    @pytest.mark.parametrize("m, n_s, cutoff", [(5, 1.0, 33), (6, 0.6, 23), (8, 0.2, 12),
                                                (12, 0.01, 4)])
    def test_every_m_the_network_admits(self, m, n_s, cutoff):
        report = verify_conditional_entropies(BroadcastChannelSpec(ETAS12[:m]), n_s)
        assert report["pass"] is True and report["cutoff"] == cutoff
        assert len(report["cases"]) == 2**m and len(report["schmidt"]) == m
        assert report["max_abs_dev"] < 1e-8

    @pytest.mark.parametrize("m, n_s", [(6, 0.3), (12, 0.01)])
    def test_reversed_ordering_keeps_each_receiver_its_row(self, m, n_s):
        # the weights' rows are masks of receiver numbers, not of split
        # positions: splitting E, Bm, ..., B1 reverses every stage, and each
        # case still reads its own receivers' blocks (measured: within 9e-15)
        spec = BroadcastChannelSpec(ETAS12[:m])
        ordering = ("E",) + tuple(f"B{i}" for i in range(m, 0, -1))
        default = verify_conditional_entropies(spec, n_s)
        split_reversed = verify_conditional_entropies(spec, n_s, ordering=ordering)
        assert default["pass"] is True and split_reversed["pass"] is True
        assert len(split_reversed["cases"]) == 2**m
        for a, b in zip(default["cases"], split_reversed["cases"]):
            assert a["case"] == b["case"] and a["closed_form_bits"] == b["closed_form_bits"]
            for key in ("fock_bits", "gaussian_bits"):
                assert abs(a[key] - b[key]) <= 1e-12, (a["case"], key)

    def test_closed_forms_are_one_row_of_the_bound_vector(self, monkeypatch):
        # one _bound_rows call for every subset's closed form, and no scalar bound
        bound_rows, calls = region._bound_rows, []

        def counted(*args):
            calls.append(args)
            return bound_rows(*args)

        def refuse(*args):
            raise AssertionError("verification evaluated a bound one subset at a time")

        monkeypatch.setattr(region, "_bound_rows", counted)
        monkeypatch.setattr(region, "inner_bound_finite", refuse)
        spec = BroadcastChannelSpec(ETAS12[:3])
        report = verify_conditional_entropies(spec, 0.2)
        assert report["pass"] is True and len(calls) == 1
        monkeypatch.undo()
        assert [c["closed_form_bits"] for c in report["cases"][:-1]] == [
            inner_bound_finite(spec, 0.2, t) for t in nonempty_subsets(3)]

    def test_four_receivers(self):
        report = verify_conditional_entropies(BroadcastChannelSpec((0.1, 0.2, 0.15, 0.25)), 0.1)
        assert report["pass"] and len(report["cases"]) == 16
        assert report["max_abs_dev"] < 1e-8

    def test_amplitude_table_over_budget_is_inconclusive(self, monkeypatch):
        spec = BroadcastChannelSpec((0.1, 0.2, 0.15, 0.25))
        # cutoff 9 at N_S = 0.1: one run of all C(14, 5) = 2002 entries at 384
        # bytes, and 10 × 16 keep-set weights at 8
        monkeypatch.setattr(fock, "MAX_DENSE_BYTES", 2002 * 384 + 8 * 10 * 16 - 1)
        monkeypatch.setattr(fock, "_sector_runs", None)  # never reached
        with pytest.raises(InconclusiveVerificationError,
                           match="the largest run of sectors at cutoff 9 holds 2002 entries: "
                                 "770048 bytes, above the budget of 770047 bytes"):
            verify_conditional_entropies(spec, 0.1)

    def test_purity_fails_when_a_stage_is_off(self, monkeypatch):
        weights = fock._binomial_weights
        calls = []

        def widened(eta, top):
            calls.append(eta)
            return weights(eta + 1e-3 if len(calls) == 1 else eta, top)

        # the first weights verification computes are the first stage's
        monkeypatch.setattr(fock, "_binomial_weights", widened)
        report = verify_conditional_entropies(SPEC23, 0.5, cutoff=21)
        purity = report["cases"][-1]
        assert purity["case"].startswith("purity") and purity["pass"] is False
        assert purity["abs_dev"] > 1e-4
        assert report["pass"] is False

    def test_photon_weights_are_the_double_loop(self):
        # the purity reference, bit for bit: same scalar terms, same bin order
        rng = np.random.RandomState(5)
        draws = [(0.5, 20, 0.0), (0.5, 20, 1.0), (0.0, 0, 0.3), (2.0, fock.MAX_CUTOFF, 0.5)]
        draws += [(rng.uniform(0, 2), rng.randint(0, fock.MAX_CUTOFF + 1),
                   rng.uniform() ** rng.choice([1, 4, 20])) for _ in range(300)]
        for n_s, cutoff, eta in draws:
            w = [thermal_weight(n_s, n) for n in range(cutoff + 1)]
            assert (fock._photon_weights(n_s, int(cutoff), eta).tolist()
                    == split_photon_weights_loop(w, eta).tolist()), (n_s, cutoff, eta)

    def test_pass_needs_every_schmidt_certificate(self, monkeypatch):
        monkeypatch.setattr(fock, "SCHMIDT_TOL", 0.0)
        report = verify_conditional_entropies(SPEC23, 0.2, cutoff=15)
        assert all(c["pass"] for c in report["cases"])
        assert [s["pass"] for s in report["schmidt"]] == [False, False]
        assert report["pass"] is False

    def test_report_serializes_with_plain_types(self):
        import json

        report = verify_conditional_entropies(SPEC23, 0.2, cutoff=15)
        assert json.loads(json.dumps(report)) == report
        assert report["pass"] is True
        assert list(report) == ["etas", "ns", "cutoff", "tail_mass", "cases", "max_abs_dev",
                                "pass", "schmidt"]
        assert list(report["cases"][0]) == ["case", "gaussian_bits", "fock_bits",
                                            "closed_form_bits", "abs_dev", "tail_mass", "pass"]
        assert [s["arm_transmittance"] for s in report["schmidt"]] == [0.2, 0.3]
        assert list(report["schmidt"][0]) == ["arm_transmittance", "ns", "cutoff", "tail_mass",
                                              "max_abs_dev", "pass"]


def _schmidt_spectrum(eta_receiver, n_s, cutoff):
    """The (A, B) spectrum that a one-receiver Schmidt record certifies."""
    state = split_with_vacuum(tmsv_fock(n_s, cutoff), "A'", 1.0 - eta_receiver, "B")
    return reduce_density(state, ("A", "B")).eigenvalues()


def _schmidt_record(eta_receiver, n_s, cutoff) -> dict:
    """The Schmidt record of a one-receiver channel of transmittance ``eta_receiver``."""
    spec = BroadcastChannelSpec((eta_receiver,))
    return verify_conditional_entropies(spec, n_s, cutoff)["schmidt"][0]


class TestSchmidtSpectrum:
    def test_untouched_tmsv(self):
        assert _schmidt_record(0.0, 0.5, 25)["pass"]
        spectrum = _schmidt_spectrum(0.0, 0.5, 25)
        for k in range(10):
            assert spectrum[k] == pytest.approx(
                thermal_weight(0.5, k), abs=1e-10
            )

    def test_reference_case(self):
        report = _schmidt_record(0.2, 0.5, 25)
        assert report["pass"] and report["max_abs_dev"] < 1e-8
        spectrum = _schmidt_spectrum(0.2, 0.5, 25)
        for k in range(10):
            assert spectrum[k] == pytest.approx(
                thermal_weight(0.4, k), abs=1e-8
            )

    def test_spectrum_is_geometric(self):
        assert _schmidt_record(0.3, 0.6, 25)["pass"]
        mu = 0.7 * 0.6
        ratio = mu / (mu + 1.0)
        spans = _schmidt_spectrum(0.3, 0.6, 25)[:8]
        for a, b in zip(spans, spans[1:]):
            assert b / a == pytest.approx(ratio, abs=1e-6)

    def test_budget_checked(self):
        with pytest.raises(InconclusiveVerificationError):
            _schmidt_record(0.2, 0.5, 8)

    @pytest.mark.parametrize("n_s", [math.nan, math.inf])
    @pytest.mark.parametrize("cutoff", [None, 20])
    def test_bad_energy_is_refused(self, n_s, cutoff):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            _schmidt_record(0.2, n_s, cutoff)

    def test_fractional_cutoff_is_refused(self):
        with pytest.raises(ValueError, match="whole number"):
            _schmidt_record(0.2, 0.5, 25.0)


class TestSchmidtRecord:
    """Each receiver's Schmidt record reads the certified (A, Bj) block
    weights of the one channel output that verification builds."""

    @pytest.mark.parametrize("etas", [(0.3,), (0.2, 0.3), (0.1, 0.25, 0.3),
                                      (0.1, 0.2, 0.15, 0.25)])
    def test_one_channel_output_and_no_partial_trace(self, monkeypatch, etas):
        def refuse(*args, **kwargs):
            raise AssertionError("verification took a second route")

        monkeypatch.setattr(fock, "reduce_density", refuse)
        monkeypatch.setattr(fock, "split_with_vacuum", refuse)
        monkeypatch.setattr(fock.DensityMatrix, "eigenvalues", refuse)
        runs, calls = fock._sector_runs, []

        def counted(*args, **kwargs):
            calls.append(args)
            return runs(*args, **kwargs)

        monkeypatch.setattr(fock, "_sector_runs", counted)
        report = verify_conditional_entropies(BroadcastChannelSpec(etas), 0.2)
        assert report["pass"] is True and len(report["schmidt"]) == len(etas)
        assert len(calls) == 1

    @pytest.mark.parametrize("etas, n_s, ordering", SPECTRUM_CASES)
    def test_weights_match_the_single_splitter_svd(self, monkeypatch, etas, n_s, ordering):
        # both sides add squares of amplitudes each within a few ulp of the
        # exact ones; the bound of test_streamed_spectra_match_svd, at the
        # size d x r of the output's block, covers the two roundings
        spec, spectra = BroadcastChannelSpec(etas), []
        block_spectra = fock._block_spectra

        def recorded(*args):
            spectra.append(block_spectra(*args))
            return spectra[-1]

        monkeypatch.setattr(fock, "_block_spectra", recorded)
        report = verify_conditional_entropies(spec, n_s, ordering=ordering)
        cutoff = report["cutoff"]
        for j, (eta, record) in enumerate(zip(etas, report["schmidt"]), 1):
            weights, certified = spectra[0][0][1 << (j - 1)], spectra[0][1]
            assert certified and record["pass"] is True, j
            sv = _schmidt_spectrum(eta, n_s, cutoff)
            assert sv.size == cutoff + 1
            for t in range(cutoff + 1):
                d, r = cutoff - t + 1, math.comb(t + spec.m - 1, spec.m - 1)
                assert abs(weights[t] - sv[t]) <= (d * r / 2 + 8 * max(d, r)) * EPS * sv[t], (j, t)
            expected = [thermal_weight((1.0 - eta) * n_s, t) for t in range(cutoff + 1)]
            assert record["max_abs_dev"] == np.max(np.abs(weights - expected))

    @pytest.mark.parametrize("entry, passes", [((1, 1, 0, 0), [False, False]),
                                               ((1, 0, 1, 0), [False, False])])
    def test_one_amplitude_off_by_1e_12_fails_its_receiver(self, monkeypatch, entry, passes):
        # (1, 1, 0, 0) breaks rank one in (A, B2)'s block t = 1 only, but the
        # product check gives one verdict for the table, which every record reads
        _tampered_runs(monkeypatch, _scaled(entry, 1 + 1e-12))
        schmidt = verify_conditional_entropies(SPEC23, 0.5, cutoff=21)["schmidt"]
        assert [s["pass"] for s in schmidt] == passes
        assert all(s["max_abs_dev"] < fock.SCHMIDT_TOL for s in schmidt)

    @pytest.mark.parametrize("etas", [(1 + 1e-12,), (-1e-12, 0.5)])
    def test_shares_just_outside_the_unit_interval(self, etas):
        # a spec admits every eta within ETA_TOL of [0, 1]
        assert verify_conditional_entropies(BroadcastChannelSpec(etas), 0.5)["pass"] is True

    @pytest.mark.parametrize("eta", [0.0, 0.2, 1.0])
    def test_check_is_the_one_receiver_record(self, eta):
        # the ends of [0, 1]: the environment takes all of the arm, or none
        report = verify_conditional_entropies(BroadcastChannelSpec((eta,)), 0.5, cutoff=25)
        assert report["schmidt"] == [{"arm_transmittance": eta, "ns": 0.5, "cutoff": 25,
                                      "tail_mass": tail_mass(0.5, 25),
                                      "max_abs_dev": report["schmidt"][0]["max_abs_dev"],
                                      "pass": True}]


class TestCutoffPolicy:
    def test_policy_cutoffs(self):
        assert cutoff_for_tail(0.2) == 12
        assert cutoff_for_tail(0.5) == 20
        assert cutoff_for_tail(1.0) == 33

    @pytest.mark.parametrize("n_s", [0.0, 1e-3, 0.1, 0.2, 0.5, 1.0, 1.7, 2.0])
    def test_cutoff_is_the_first_within_budget(self, n_s):
        want = next(m for m in range(fock.MAX_CUTOFF + 1) if tail_mass(n_s, m) < fock.TAIL_BUDGET)
        assert cutoff_for_tail(n_s) == want

    @pytest.mark.parametrize("nbar", [0.0, 1e-3, 0.5, 2.0, 37.0])
    def test_weight_lists_are_the_scalar_expression(self, nbar):
        # r**n / (nbar + 1), bit for bit, however the list is built
        r = nbar / (nbar + 1.0)
        want = [(r**n / (nbar + 1.0) if nbar else float(n == 0)) for n in range(61)]
        hexes = [w.hex() for w in want]
        assert [w.hex() for w in fock._thermal_weights(nbar, range(61))] == hexes
        amps = tmsv_fock(nbar, 60).amplitudes
        assert amps.tobytes() == np.sqrt([w for w in want if w > 0.0]).tobytes()

    def test_verify_checks_the_energy_a_fixed_number_of_times(self, monkeypatch):
        # once per weight list, never once per photon number
        calls = []
        real = gaussian._photon_number

        def counted(n_s):
            calls.append(n_s)
            return real(n_s)

        monkeypatch.setattr(gaussian, "_photon_number", counted)
        counts = []
        for cutoff in (12, 40):
            calls.clear()
            verify_conditional_entropies(SPEC23, 0.2, cutoff=cutoff)
            counts.append(len(calls))
        assert counts[0] == counts[1], counts

    def test_refuses_past_sixty(self):
        with pytest.raises(InconclusiveVerificationError):
            cutoff_for_tail(3.0)


@pytest.mark.parametrize("n_s", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda n_s: tmsv_fock(n_s, 5),
        lambda n_s: tail_mass(n_s, 3),
        cutoff_for_tail,
    ],
    ids=["tmsv_fock", "tail_mass", "cutoff_for_tail"],
)
def test_photon_number_must_be_finite_and_nonnegative(call, n_s):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        call(n_s)


@pytest.mark.parametrize("count", [-1, np.int64(-3), 2.0, 20.7, math.nan, "3", True, False])
@pytest.mark.parametrize(
    "call",
    [
        lambda count: tmsv_fock(0.5, count),
        lambda count: tail_mass(0.5, count),
        lambda count: verify_conditional_entropies(SPEC23, 0.5, cutoff=count),
    ],
    ids=["tmsv_fock", "tail_mass", "verify"],
)
def test_count_must_be_a_whole_number_at_least_zero(call, count):
    with pytest.raises(ValueError, match="must be a whole number|must be nonnegative"):
        call(count)


class TestSpectrumCount:
    """The covariance route takes one symplectic spectrum per entropy it needs."""

    SPEC4 = (0.1, 0.2, 0.15, 0.25)

    @staticmethod
    def _count(monkeypatch) -> list:
        # every spectrum, a validation's or an entropy's, passes through the one kernel
        sizes = []
        real = gaussian._spectrum

        def counted(cov):
            sizes.append(len(cov) // 2)
            return real(cov)

        monkeypatch.setattr(gaussian, "_spectrum", counted)
        return sizes

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_verify_takes_two_to_the_m_plus_one(self, m, monkeypatch):
        # the output's validation, H(E), and H(T, E) per nonempty subset T
        sizes = self._count(monkeypatch)
        assert verify_conditional_entropies(BroadcastChannelSpec(self.SPEC4[:m]), 0.1)["pass"]
        assert len(sizes) == 2**m + 1

    def test_inner_bound_takes_three(self, monkeypatch):
        # the output's validation, H(T, E) and H(E)
        sizes = self._count(monkeypatch)
        inner_bound_finite_gaussian(BroadcastChannelSpec(self.SPEC4), 0.7, {2, 3})
        assert sizes == [5, 3, 1]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_verify_reports_the_conditional_entropies(self, m):
        spec = BroadcastChannelSpec(self.SPEC4[:m])
        report = verify_conditional_entropies(spec, 0.3)
        state = channel._thermal_output(spec, 0.3)
        recv = receiver_labels(spec)
        subsets = list(nonempty_subsets(m))
        assert len(report["cases"]) == len(subsets) + 1  # and the purity case
        for t, case in zip(subsets, report["cases"]):
            want = conditional_entropy(state, [recv[i - 1] for i in sorted(t)], ("E",))
            assert case["gaussian_bits"].hex() == want.hex(), case["case"]


class TestOracleVsGaussianEverywhere:
    def test_every_mode_subset_agrees(self):
        # every reduced entropy of the channel output, both routes
        n_s, cutoff = 0.5, 21
        fock_state = channel_output_fock(SPEC23, n_s, cutoff)
        gauss_state = output_state_tmsv(SPEC23, n_s)
        labels = gauss_state.mode_labels
        for size in range(1, len(labels) + 1):
            for keep in itertools.combinations(labels, size):
                h_fock = _entropy(fock_state, keep)
                h_gauss = von_neumann_entropy(reduce(gauss_state, keep))
                assert h_fock == pytest.approx(h_gauss, abs=ENTROPY_TOL), keep
