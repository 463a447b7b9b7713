import math
import types
import warnings

import numpy as np
import pytest

from bbcap import channel, cli, gaussian
from bbcap.channel import BroadcastChannelSpec
from bbcap.gaussian import (
    CovarianceState,
    conditional_entropy,
    entropy_g,
    reduce,
    symplectic_eigenvalues,
    von_neumann_entropy,
)
from oracles import (
    beam_splitter,
    mode_blocks_reference,
    output_state_tmsv,
    permute_modes,
    spectral_entropy,
    split_thermal_populations,
    symplectic_form,
    thermal_entropy_spectral,
    thermal_state,
    tmsv,
)

G_HALF = 1.3774437510817343  # (1.5 log2 1.5 + 0.5), checked against the spectral sum


class TestEntropyG:
    def test_zero(self):
        assert entropy_g(0.0) == 0.0

    def test_one_is_two_bits(self):
        assert entropy_g(1.0) == pytest.approx(2.0, abs=1e-14)

    def test_half_matches_spectral_sum(self):
        assert entropy_g(0.5) == pytest.approx(G_HALF, abs=1e-12)
        assert entropy_g(0.5) == pytest.approx(thermal_entropy_spectral(0.5), abs=1e-12)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            entropy_g(-1e-6)

    def test_tiny_input_returns_zero(self):
        assert entropy_g(5e-13) == 0.0

    def test_monotone_and_concave_on_grid(self):
        xs = np.linspace(0.0, 50.0, 401)
        vals = [entropy_g(x) for x in xs]
        diffs = np.diff(vals)
        assert np.all(diffs > 0)
        assert np.all(np.diff(diffs) < 1e-12)

    def test_large_argument_asymptote(self):
        x = 1e6
        assert entropy_g(x) - math.log2(x) == pytest.approx(math.log2(math.e), abs=1e-5)

    def test_huge_argument_no_cancellation(self):
        # closed form must track log2 x + log2 e + 1/(2 x ln 2) deep into
        # the regime where the textbook two-term difference loses digits
        for x in (1e14, 1e15, 1e16):
            expect = math.log2(x) + math.log2(math.e) + 1.0 / (2.0 * x * math.log(2))
            assert entropy_g(x) == pytest.approx(expect, abs=1e-10)

    def test_array_entries_are_the_floats_bitwise(self):
        # libm's logarithms on every entry, whatever numpy's SIMD dispatch
        rng = np.random.RandomState(5)
        xs = np.concatenate([10.0 ** rng.uniform(-14, 17, 4000), [0.0, 5e-13, 1e-12, 1.0]])
        got = entropy_g(xs.reshape(-1, 2))
        assert got.shape == (2002, 2)
        assert [x.hex() for x in got.ravel().tolist()] == [entropy_g(x).hex() for x in xs]

    def test_array_with_a_negative_entry_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            entropy_g(np.array([1.0, -1e-6]))


class TestTmsv:
    def test_zero_energy_is_vacuum(self):
        st = tmsv(0.0)
        np.testing.assert_allclose(st.cov, np.eye(4), atol=0)
        assert von_neumann_entropy(st) == 0.0

    def test_unit_energy_entries(self):
        st = tmsv(1.0)
        assert st.cov[0, 0] == pytest.approx(3.0, abs=1e-15)
        assert st.cov[0, 2] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-15)
        assert st.cov[1, 3] == pytest.approx(-2.0 * math.sqrt(2.0), abs=1e-15)

    def test_marginal_is_thermal_with_entropy_g(self):
        st = tmsv(1.0, ("A", "B"))
        marginal = reduce(st, ["B"])
        np.testing.assert_allclose(marginal.cov, 3.0 * np.eye(2), atol=1e-14)
        assert von_neumann_entropy(marginal) == pytest.approx(2.0, abs=1e-9)
        # independent spectral route
        assert von_neumann_entropy(marginal) == pytest.approx(
            thermal_entropy_spectral(1.0), abs=1e-9
        )

    @pytest.mark.parametrize("n_s", [0.0, 0.3, 1.0, 7.5, 120.0])
    def test_purity(self, n_s):
        nus = symplectic_eigenvalues(tmsv(n_s))
        assert max(abs(nu - 1.0) for nu in nus) < 1e-9

    def test_negative_energy_raises(self):
        with pytest.raises(ValueError):
            tmsv(-0.1)

    @pytest.mark.parametrize("n_s", [math.nan, math.inf])
    def test_non_finite_energy_raises(self, n_s):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            tmsv(n_s)


class TestThermalState:
    @pytest.mark.parametrize(
        "nbar,entropy", [(0.0, 0.0), (1.0, 2.0), (0.5, G_HALF)]
    )
    def test_entropy(self, nbar, entropy):
        assert von_neumann_entropy(thermal_state(nbar, "T")) == pytest.approx(
            entropy, abs=1e-9
        )

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            thermal_state(-2.0, "T")

    @pytest.mark.parametrize("nbar", [math.nan, math.inf])
    def test_non_finite_raises(self, nbar):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            thermal_state(nbar, "T")


class TestBeamSplitter:
    def test_symplectic_identity(self):
        rng = np.random.RandomState(7)
        omega = symplectic_form(3)
        for _ in range(20):
            s = beam_splitter(rng.uniform(0, 1), 0, 2, 3)
            assert np.max(np.abs(s @ omega @ s.T - omega)) < 1e-12

    def test_products_stay_symplectic(self):
        s = beam_splitter(0.8, 1, 2, 3) @ beam_splitter(0.3, 0, 1, 3)
        omega = symplectic_form(3)
        assert np.max(np.abs(s @ omega @ s.T - omega)) < 1e-12

    def test_full_transmittance_is_identity(self):
        s = beam_splitter(1.0, 0, 1, 2)
        np.testing.assert_allclose(s, np.eye(4), atol=0)

    def test_zero_transmittance_swaps_marginals(self):
        st = tmsv(0.7, ("A", "B"))
        joined = CovarianceState(("A", "B", "C"), _embed(st.cov, 3))
        swapped = _apply(beam_splitter(0.0, 1, 2, 3), joined)
        assert von_neumann_entropy(reduce(swapped, ["C"])) == pytest.approx(
            entropy_g(0.7), abs=1e-9
        )
        np.testing.assert_allclose(reduce(swapped, ["B"]).cov, np.eye(2), atol=1e-12)

    def test_balanced_split_of_tmsv_arm_gives_half_thermal(self):
        st = tmsv(1.0, ("A", "B"))
        joined = CovarianceState(("A", "B", "C"), _embed(st.cov, 3))
        out = _apply(beam_splitter(0.5, 1, 2, 3), joined)
        for label in ("B", "C"):
            np.testing.assert_allclose(
                reduce(out, [label]).cov, 2.0 * np.eye(2), atol=1e-12
            )
        # number-basis oracle: binomial split of a thermal arm is thermal
        pops = split_thermal_populations(1.0, 0.5, k_max=60)
        assert spectral_entropy(pops) == pytest.approx(entropy_g(0.5), abs=1e-9)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            beam_splitter(1.2, 0, 1, 2)
        with pytest.raises(ValueError):
            beam_splitter(0.5, 1, 1, 2)
        with pytest.raises(ValueError):
            beam_splitter(0.5, 0, 3, 2)


def _embed(cov4, n_modes):
    out = np.eye(2 * n_modes)
    out[:4, :4] = cov4
    return out


def _apply(s, state):
    """Gaussian unitary with symplectic matrix s: V -> S V S.T, validated."""
    cov = s @ state.cov @ s.T
    return CovarianceState(state.mode_labels, 0.5 * (cov + cov.T))


class TestApply:
    def test_vacuum_invariant(self):
        vac = CovarianceState(("a", "b"), np.eye(4))
        out = _apply(beam_splitter(0.3, 0, 1, 2), vac)
        np.testing.assert_allclose(out.cov, np.eye(4), atol=1e-14)


class TestReduce:
    def test_keep_all_is_identity(self):
        st = tmsv(0.8)
        out = reduce(st, st.mode_labels)
        np.testing.assert_allclose(out.cov, st.cov, atol=0)
        assert out.mode_labels == st.mode_labels

    def test_tmsv_arm_is_thermal(self):
        st = tmsv(2.5, ("A", "B"))
        np.testing.assert_allclose(
            reduce(st, ["A"]).cov, thermal_state(2.5, "A").cov, atol=1e-12
        )

    def test_commutes_with_permutation(self):
        st = tmsv(1.3, ("A", "B"))
        joined = CovarianceState(("A", "B", "C"), _embed(st.cov, 3))
        mixed = _apply(beam_splitter(0.4, 1, 2, 3), joined)
        permuted = permute_modes(mixed, ("C", "A", "B"))
        direct = reduce(permuted, ["A", "C"])
        rearranged = permute_modes(reduce(mixed, ["A", "C"]), ("C", "A"))
        np.testing.assert_allclose(direct.cov, rearranged.cov, atol=0)

    def test_errors(self):
        st = tmsv(1.0)
        with pytest.raises(ValueError, match=r"^must keep at least one mode$"):
            reduce(st, [])
        with pytest.raises(ValueError, match=r"^unknown mode label 'nope'$"):
            reduce(st, ["nope"])
        with pytest.raises(ValueError, match=r"^unknown mode label 'nope'$"):
            reduce(st, ["A", "nope"])


class TestReduceGather:
    """``reduce`` gathers with ``take``; the (n, 2, n, 2) fancy index is its reference."""

    @staticmethod
    def _random_state(rng, n):
        a = rng.standard_normal((2 * n, 2 * n)) * rng.uniform(0.1, 100.0)
        return CovarianceState(range(n), a @ a.T + np.eye(2 * n))

    def test_matches_the_fancy_index_bit_for_bit(self):
        rng = np.random.RandomState(91)
        for n in range(1, 14):
            state = self._random_state(rng, n)
            for _ in range(10):
                keep = [int(i) for i in rng.choice(n, rng.randint(1, n + 1), replace=False)]
                got = reduce(state, keep)  # keep comes in random order
                idx = sorted(keep)
                assert got.mode_labels == tuple(idx)
                want = mode_blocks_reference(state.cov, idx)
                assert got.cov.tobytes() == want.tobytes(), (n, keep)

    def test_blocks_in_any_order(self):
        rng = np.random.RandomState(92)
        for n in range(1, 14):
            cov = self._random_state(rng, n).cov
            idx = [int(i) for i in rng.permutation(n)[: rng.randint(1, n + 1)]]
            assert gaussian._mode_blocks(cov, idx).tobytes() == (
                mode_blocks_reference(cov, idx).tobytes())


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        vac = CovarianceState(("a", "b", "c"), np.eye(6))
        assert symplectic_eigenvalues(vac) == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)

    def test_thermal(self):
        assert symplectic_eigenvalues(thermal_state(3.0, "T")) == pytest.approx(
            [7.0], abs=1e-12
        )

    def test_tmsv_joint_is_pure(self):
        assert symplectic_eigenvalues(tmsv(4.0)) == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_row_swaps_match_the_dense_form(self):
        # i Lᵀ (Ω L) from row swaps against i Lᵀ Ω L with Ω built densely
        rng = np.random.RandomState(41)
        for n in range(1, 14):
            a = rng.standard_normal((2 * n, 2 * n)) * rng.uniform(0.1, 10.0)
            cov = a @ a.T + (1.0 + np.max(np.abs(a))) ** 2 * np.eye(2 * n)
            chol = np.linalg.cholesky(cov)
            dense = np.linalg.eigvalsh(1j * chol.T @ symplectic_form(n) @ chol)[n:][::-1]
            got = symplectic_eigenvalues(CovarianceState(range(n), cov))
            assert np.max(np.abs(np.subtract(got, dense))) <= 1e-12 * np.max(np.abs(cov))


class TestSpectrumKernel:
    """``_spectrum`` calls numpy's private LAPACK gufuncs with no wrapper; the
    public ``np.linalg.cholesky``/``eigvalsh`` route is its reference, bit for
    bit.  A numpy that changes those gufuncs fails here."""

    NOT_PD = "uncertainty relation violated: covariance not positive definite"

    @staticmethod
    def _public(cov):
        n = len(cov) // 2
        chol = np.linalg.cholesky(cov)
        omega_l = chol.reshape(n, 2, -1)[:, ::-1] * gaussian._OMEGA_SIGNS
        return np.linalg.eigvalsh(1j * (chol.T @ omega_l.reshape(2 * n, 2 * n)))[n:][::-1]

    def test_every_reduction_of_thermal_outputs_bit_for_bit(self):
        rng = np.random.RandomState(38)
        for m in range(1, 13):
            for n_s in [10.0**k for k in range(-2, 9)]:
                raw = rng.dirichlet(np.ones(m + 1))[:m] * rng.uniform(0.3, 0.95)
                state = channel._thermal_output(BroadcastChannelSpec(tuple(raw)), n_s)
                for size in range(1, m + 2):
                    keep = rng.choice(m + 1, size, replace=False).tolist()
                    cov = gaussian._mode_blocks(state.cov, sorted(keep))
                    got = [nu.hex() for nu in gaussian._spectrum(cov)]
                    assert got == [nu.hex() for nu in self._public(cov)], (m, n_s, keep)

    @pytest.mark.parametrize("cov", [np.diag([2.0, -1.0]), np.array([[1.0, 2.0], [2.0, 1.0]])])
    def test_not_positive_definite_is_refused_with_no_warning(self, cov):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                gaussian._spectrum(cov)
            assert str(err.value) == self.NOT_PD
            with pytest.raises(ValueError) as err:
                CovarianceState(("a",), cov)
            assert str(err.value) == self.NOT_PD

    def test_nan_is_refused_with_no_warning(self):
        cov = np.eye(4)
        cov[1, 1] = math.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="covariance entries must be finite"):
                CovarianceState(("a", "b"), cov)
            # past validation, a NaN spectrum that LAPACK cannot take is its error
            with pytest.raises(np.linalg.LinAlgError):
                gaussian._spectrum(np.full((4, 4), math.nan))

    def test_failed_eigvalsh_exits_one_with_one_line(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise FloatingPointError("invalid value encountered in eigvalsh_lo")

        lapack = gaussian._umath_linalg
        monkeypatch.setattr(gaussian, "_umath_linalg", types.SimpleNamespace(
            cholesky_lo=lapack.cholesky_lo, eigvalsh_lo=fail))
        assert cli.main(["verify", "--etas", "0.2,0.3", "--ns", "0.5"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "bbcap: error: Eigenvalues did not converge\n")


class TestConditionalEntropy:
    def test_pure_tmsv_conditional_is_minus_g(self):
        st = tmsv(1.7, ("A", "B"))
        assert conditional_entropy(st, ["A"], ["B"]) == pytest.approx(
            -entropy_g(1.7), abs=1e-9
        )

    def test_product_of_thermals_is_additive(self):
        cov = np.diag([3.0, 3.0, 5.0, 5.0])
        st = CovarianceState(("A", "B"), cov)
        assert conditional_entropy(st, ["A"], ["B"]) == pytest.approx(
            entropy_g(1.0), abs=1e-9
        )

    def test_empty_conditioner(self):
        st = thermal_state(1.0, "T")
        assert conditional_entropy(st, ["T"], []) == pytest.approx(2.0, abs=1e-9)

    def test_overlap_and_empty_subsystem_raise(self):
        st = tmsv(1.0, ("A", "B"))
        with pytest.raises(ValueError):
            conditional_entropy(st, ["A"], ["A"])
        with pytest.raises(ValueError):
            conditional_entropy(st, [], ["A"])


class TestStateValidation:
    def test_asymmetric_covariance_rejected(self):
        cov = np.eye(4)
        cov[0, 2] = 1e-6
        with pytest.raises(ValueError):
            CovarianceState(("a", "b"), cov)

    def test_uncertainty_violation_rejected(self):
        with pytest.raises(ValueError) as err:
            CovarianceState(("a",), 0.5 * np.eye(2))
        assert str(err.value) == (
            "uncertainty relation violated: min symplectic eigenvalue 0.5000000000000001")

    @pytest.mark.parametrize("scale", [1e4, 1e8])
    def test_refusal_scales_with_the_covariance(self, scale):
        # nu = sqrt(det) = 1 - d for diag(scale, (1 - d)^2 / scale); rounding
        # resolves nu - 1 only to NU_FLOOR * dim * max|V|, so a deficit
        # inside that is the vacuum, with no entropy, and one beyond it is refused
        floor = gaussian.NU_FLOOR * 2 * scale
        inside = CovarianceState(("a",), np.diag([scale, (1.0 - floor / 2) ** 2 / scale]))
        assert repr(von_neumann_entropy(inside)) == "0.0"
        with pytest.raises(ValueError, match="uncertainty relation violated"):
            CovarianceState(("a",), np.diag([scale, (1.0 - max(2 * floor, 2e-9)) ** 2 / scale]))

    @pytest.mark.parametrize(
        "cov", [np.diag([2.0, -1.0]), np.diag([-2.0, -3.0]), np.array([[1.0, 2.0], [2.0, 1.0]])]
    )
    def test_non_positive_definite_rejected(self, cov):
        with pytest.raises(ValueError, match="uncertainty relation violated"):
            CovarianceState(("a",), cov)
        # the entropy takes the same path, so an unvalidated state gets none
        with pytest.raises(ValueError, match="uncertainty relation violated"):
            von_neumann_entropy(CovarianceState(("a",), cov, validate=False))

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, x):
        with pytest.raises(ValueError, match="covariance entries must be finite"):
            CovarianceState(("a",), [[x, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize(
        "entry,value,message",
        [
            ((1, 2), math.nan, "covariance entries must be finite"),
            ((0, 2), 1e-6, "covariance not symmetric (max asymmetry 1.000e-06)"),
            ((0, 0), 1e-3,
             "uncertainty relation violated: min symplectic eigenvalue 0.03162277660168379"),
            ((0, 0), -1.0, "uncertainty relation violated: covariance not positive definite"),
        ],
    )
    def test_refusal_messages(self, entry, value, message):
        cov = np.eye(4)
        cov[entry] = value
        with pytest.raises(ValueError) as err:
            CovarianceState(("a", "b"), cov)
        assert str(err.value) == message

    def test_shape_mismatches_rejected(self):
        with pytest.raises(ValueError, match="^state must have at least one mode$"):
            CovarianceState((), np.zeros((0, 0)))
        with pytest.raises(ValueError):
            CovarianceState(("a", "b"), np.eye(2))
        with pytest.raises(ValueError):
            CovarianceState(("a", "a"), np.eye(4))


class TestPurityBookkeeping:
    def test_pure_state_bipartition_entropies_match(self):
        # H(P) = H(complement) for every bipartition of a pure state
        from bbcap.channel import BroadcastChannelSpec

        rng = np.random.RandomState(11)
        for _ in range(5):
            etas = rng.dirichlet((1.0, 1.0, 1.0, 1.0))[:3] * 0.9
            st = output_state_tmsv(BroadcastChannelSpec(tuple(etas)), rng.uniform(0.2, 3.0))
            labels = list(st.mode_labels)
            for size in (1, 2):
                part = labels[:size]
                rest = labels[size:]
                assert von_neumann_entropy(reduce(st, part)) == pytest.approx(
                    von_neumann_entropy(reduce(st, rest)), abs=1e-9
                )

    def test_validity_preserved_by_apply_and_reduce(self):
        rng = np.random.RandomState(23)
        st = tmsv(2.0, ("A", "B"))
        joined = CovarianceState(("A", "B", "C", "D"), _embed(st.cov, 4))
        for _ in range(30):
            i, j = rng.choice(4, size=2, replace=False)
            joined = _apply(beam_splitter(rng.uniform(0, 1), int(i), int(j), 4), joined)
        # constructors validate; explicit check on a random reduction too
        sub = reduce(joined, ["A", "C"])
        assert min(symplectic_eigenvalues(sub)) >= 1.0 - 1e-9
