import types

import numpy as np
import pytest

import bbcap
from bbcap import channel, fock, gaussian, region
from bbcap.channel import (
    ORDERING_EQUIV_TOL,
    BroadcastChannelSpec,
    DegenerateSplitError,
    build_network,
    implementations_equivalent,
    output_labels,
    receiver_labels,
    validate_ordering,
)
from bbcap.gaussian import reduce, symplectic_eigenvalues, von_neumann_entropy
from oracles import all_orderings, output_state_tmsv, tmsv


def random_spec(rng, m, eta_total_max=0.95):
    raw = rng.dirichlet(np.ones(m + 1))[:m]
    return BroadcastChannelSpec(tuple(raw * rng.uniform(0.3, eta_total_max)))


class TestSpecValidation:
    def test_basic_properties(self):
        spec = BroadcastChannelSpec((0.2, 0.3))
        assert spec.m == 2
        assert spec.eta_env == pytest.approx(0.5, abs=1e-15)
        assert receiver_labels(spec) == ("B1", "B2")
        assert output_labels(spec) == ("B1", "B2", "E")

    def test_rejects_bad_etas(self):
        with pytest.raises(ValueError):
            BroadcastChannelSpec(())
        with pytest.raises(ValueError):
            BroadcastChannelSpec((0.5, 0.6))
        with pytest.raises(ValueError):
            BroadcastChannelSpec((-0.1,))
        with pytest.raises(ValueError):
            BroadcastChannelSpec((1.2,))

    def test_ordering_must_be_exact_permutation(self):
        spec = BroadcastChannelSpec((0.2, 0.3))
        with pytest.raises(ValueError):
            validate_ordering(spec, ("B1", "B2"))
        with pytest.raises(ValueError):
            validate_ordering(spec, ("B1", "B1", "E"))


def test_package_exports_are_the_modules_all():
    # the package re-exports each library module's __all__, and nothing else
    public = {name for name, value in vars(bbcap).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {*gaussian.__all__, *channel.__all__, *region.__all__, *fock.__all__}
    assert "validate_ordering" not in public  # importable from bbcap.channel only


class TestBuildNetwork:
    def test_environment_then_receivers_split(self):
        # splitting E first then B2 leaves B1 on the through-arm:
        # stage transmittances (eta_1 + eta_2, eta_1 / (eta_1 + eta_2)),
        # shares (eta_E, eta_2 / (eta_1 + eta_2))
        net = build_network(BroadcastChannelSpec((0.2, 0.3)), ("E", "B2", "B1"))
        assert [s.transmittance for s in net.stages] == pytest.approx(
            [0.5, 0.4], abs=1e-15
        )
        assert [s.share for s in net.stages] == pytest.approx([0.5, 0.6], abs=1e-15)
        assert [s.output for s in net.stages] == ["E", "B2"]
        assert net.final_label == "B1"

    def test_receiver_first_split(self):
        # peeling B1 off first: through transmittances (1 - eta_1, eta_2 / (1 - eta_1)),
        # shares (eta_1, eta_E / (1 - eta_1))
        net = build_network(BroadcastChannelSpec((0.2, 0.3)), ("B1", "E", "B2"))
        assert [s.transmittance for s in net.stages] == pytest.approx(
            [0.8, 0.375], abs=1e-15
        )
        assert [s.share for s in net.stages] == pytest.approx([0.2, 0.625], abs=1e-15)

    def test_single_receiver(self):
        net = build_network(BroadcastChannelSpec((0.35,)), ("E", "B1"))
        assert [s.transmittance for s in net.stages] == pytest.approx(
            [0.35], abs=1e-15
        )
        assert [s.share for s in net.stages] == pytest.approx([0.65], abs=1e-15)
        assert net.final_label == "B1"

    def test_shares_rebuild_every_eta_to_relative_ulps(self):
        # share_j times the transmittances before it is eta_j / r_1 with
        # every factor within (m + 2) eps, however small eta_j is
        rng = np.random.RandomState(3)
        eps = np.finfo(float).eps
        for _ in range(3000):
            m = rng.randint(1, 13)
            labels = output_labels(BroadcastChannelSpec((0.0,) * m))
            ordering = tuple(rng.permutation(labels))
            w = 10.0 ** rng.uniform(-30.0, 0.0, m + 1)
            w[-1] = rng.uniform(0.1, 1.0)  # the arm keeps a share to the end
            w /= w.sum()
            by_label = dict(zip(ordering, w.tolist()))
            spec = BroadcastChannelSpec(tuple(by_label[lab] for lab in labels[:-1]))
            net = build_network(spec, ordering)
            through = 1.0
            rebuilt = {}
            for stage in net.stages:
                assert 0.0 <= stage.share <= 1.0 and 0.0 <= stage.transmittance <= 1.0
                rebuilt[stage.output] = stage.share * through
                through *= stage.transmittance
            rebuilt[net.final_label] = through
            want = dict(zip(labels, spec.etas + (spec.eta_env,)))
            for label in labels:
                err = abs(rebuilt[label] - want[label])
                assert err <= 2 * (m + 2) * eps * want[label], (label, err, want[label])

    def test_eta_just_below_zero_takes_nothing(self):
        # the spec admits eta down to -1e-12; the cascade treats it as 0
        spec = BroadcastChannelSpec((-1e-13, 0.5))
        for ordering in all_orderings(spec):
            net = build_network(spec, ordering)
            assert all(s.share >= 0.0 for s in net.stages)
        ok, _ = implementations_equivalent(spec, list(all_orderings(spec)), 1.0)
        assert ok

    def test_degenerate_prefix_raises_with_stage_named(self):
        spec = BroadcastChannelSpec((1.0, 0.0))
        with pytest.raises(DegenerateSplitError, match="stage 2"):
            build_network(spec, ("B1", "B2", "E"))

    def test_default_ordering_puts_zero_weight_first(self):
        spec = BroadcastChannelSpec((1.0, 0.0))
        assert build_network(spec).ordering == ("B2", "E", "B1")  # no degenerate stage
        assert build_network(BroadcastChannelSpec((0.2, 0.3))).ordering == ("B1", "B2", "E")


class TestApplyChannel:
    def test_lossless_to_first_receiver(self):
        spec = BroadcastChannelSpec((1.0, 0.0))
        st = output_state_tmsv(spec, 1.4)
        np.testing.assert_allclose(
            reduce(st, ["A", "B1"]).cov, tmsv(1.4).cov, atol=1e-12
        )
        np.testing.assert_allclose(reduce(st, ["B2"]).cov, np.eye(2), atol=1e-12)

    def test_marginals_are_attenuated_thermals(self):
        st = output_state_tmsv(BroadcastChannelSpec((0.2, 0.3)), 1.0)
        for label, eta in (("B1", 0.2), ("B2", 0.3), ("E", 0.5)):
            np.testing.assert_allclose(
                reduce(st, [label]).cov, (2.0 * eta + 1.0) * np.eye(2), atol=1e-12
            )

    def test_output_mode_order_is_canonical(self):
        for ordering in all_orderings(BroadcastChannelSpec((0.2, 0.3))):
            st = output_state_tmsv(BroadcastChannelSpec((0.2, 0.3)), 1.0, ordering)
            assert st.mode_labels == ("A", "B1", "B2", "E")

    def test_global_purity(self):
        st = output_state_tmsv(BroadcastChannelSpec((0.2, 0.3)), 1.0)
        assert max(abs(nu - 1.0) for nu in symplectic_eigenvalues(st)) < 1e-9

    def test_vacuum_input_gives_vacuum(self):
        st = output_state_tmsv(BroadcastChannelSpec((0.2, 0.3)), 0.0)
        np.testing.assert_allclose(st.cov, np.eye(8), atol=1e-12)

    def test_environment_entropy(self):
        st = output_state_tmsv(BroadcastChannelSpec((0.2, 0.3)), 1.0)
        assert von_neumann_entropy(reduce(st, ["E"])) == pytest.approx(
            gaussian.entropy_g(0.5), abs=1e-9
        )


class TestThermalOutput:
    """The outputs of a thermal arm: the TMSV output with the reference traced."""

    @pytest.mark.parametrize("n_s", [1e-2, 1.0, 1e2])
    def test_is_the_tmsv_output_on_the_outputs(self, n_s):
        rng = np.random.RandomState(34)
        for m in (1, 2, 5, 12):
            spec = random_spec(rng, m)
            ordering = tuple(rng.permutation(output_labels(spec)))
            got = channel._thermal_output(spec, n_s, ordering)
            want = reduce(output_state_tmsv(spec, n_s, ordering), output_labels(spec))
            assert got.mode_labels == want.mode_labels
            assert float(np.max(np.abs(got.cov - want.cov))) <= 1e-12 * (2 * n_s + 1)

    @pytest.mark.parametrize("m", [1, 4, 12])
    def test_validates_once(self, m, monkeypatch):
        sizes = []
        real = gaussian.symplectic_eigenvalues

        def counted(state):
            sizes.append(state.n_modes)
            return real(state)

        monkeypatch.setattr(gaussian, "symplectic_eigenvalues", counted)
        channel._thermal_output(BroadcastChannelSpec((0.9 / m,) * m), 1.3)
        assert sizes == [m + 1]

    @pytest.mark.parametrize("n_s", [10.0**k for k in range(-2, 9)])
    def test_all_outputs_hold_the_arm_entropy(self, n_s):
        # a passive split of one thermal mode: one symplectic eigenvalue 2 n_s + 1
        # and m vacuum ones, which must add no entropy at any energy.  The
        # spectrum holds nu to a few eps absolute, which g amplifies by its
        # slope log2(1 + 1/n_s) (half of it per unit of nu)
        rng = np.random.RandomState(35)
        eps = np.finfo(float).eps
        for m in (1, 6, 12):
            state = channel._thermal_output(random_spec(rng, m), n_s)
            want = gaussian.entropy_g(n_s)
            bound = 16 * np.spacing(want) + 8 * eps * np.log2(1.0 + 1.0 / n_s)
            assert abs(von_neumann_entropy(state) - want) <= bound


class TestDenseCascadeOracle:
    """The library's output covariance against a cascade of dense splitter
    matrices acting on a TMSV, with the reference traced."""

    @staticmethod
    def _assert_matches(spec, n_s, ordering):
        got = channel._thermal_output(spec, n_s, ordering)
        want = reduce(output_state_tmsv(spec, n_s, ordering), output_labels(spec))
        assert got.mode_labels == want.mode_labels
        scale = max(1.0, float(np.max(np.abs(want.cov))))
        assert float(np.max(np.abs(got.cov - want.cov))) <= 1e-12 * scale, ordering

    @pytest.mark.parametrize("n_s", [1e-2, 1.0, 1e2])
    def test_every_ordering_up_to_three_receivers(self, n_s):
        rng = np.random.RandomState(31)
        for m in (1, 2, 3):
            spec = random_spec(rng, m)
            for ordering in all_orderings(spec):
                self._assert_matches(spec, n_s, ordering)

    @pytest.mark.parametrize("n_s", [1e-2, 1.0, 1e2])
    def test_seeded_orderings_four_to_twelve_receivers(self, n_s):
        rng = np.random.RandomState(32)
        for m in range(4, 13):
            spec = random_spec(rng, m)
            for _ in range(20):
                ordering = tuple(rng.permutation(output_labels(spec)))
                self._assert_matches(spec, n_s, ordering)


class TestImplementationsEquivalent:
    def test_all_orderings_two_receivers(self):
        spec = BroadcastChannelSpec((0.2, 0.3))
        ok, dev = implementations_equivalent(spec, list(all_orderings(spec)), 1.0)
        assert ok and dev < 1e-12

    def test_same_ordering_twice_zero_deviation(self):
        spec = BroadcastChannelSpec((0.2, 0.3))
        order = build_network(spec).ordering
        ok, dev = implementations_equivalent(spec, [order, order], 1.0)
        assert ok and dev == 0.0

    def test_perturbed_transmittance_is_a_different_channel(self):
        keep = ("A", "B1", "B2")
        a = reduce(output_state_tmsv(BroadcastChannelSpec((0.2, 0.3)), 1.0), keep)
        b = reduce(output_state_tmsv(BroadcastChannelSpec((0.2001, 0.3)), 1.0), keep)
        assert float(np.max(np.abs(a.cov - b.cov))) > 1e-12

    @pytest.mark.parametrize("n_s", [10.0**k for k in np.arange(-2.0, 8.5, 0.5)])
    def test_one_eta_moved_by_1e_9_is_never_equivalent(self, n_s, monkeypatch):
        # the second ordering's output is taken from a channel whose eta_1
        # is 1e-9 larger: the scaled tolerance must not absorb that change
        spec = BroadcastChannelSpec((0.2, 0.3))
        moved = BroadcastChannelSpec((0.2 + 1e-9, 0.3))
        real = channel._thermal_output
        calls = []

        def output(spec_, n_s_, ordering):
            calls.append(ordering)
            return real(spec_ if len(calls) == 1 else moved, n_s_, ordering)

        monkeypatch.setattr(channel, "_thermal_output", output)
        orderings = [("B1", "B2", "E"), ("E", "B2", "B1")]
        ok, dev = implementations_equivalent(spec, orderings, n_s)
        assert calls == orderings and not ok, dev

    @pytest.mark.parametrize("n_s", [1e4, 1e6, 1e8])
    def test_answers_at_high_energy(self, n_s):
        # a TMSV this bright fails its own validity check; the thermal outputs hold
        spec = BroadcastChannelSpec((0.2, 0.3, 0.1))
        ok, dev = implementations_equivalent(spec, list(all_orderings(spec)), n_s)
        assert ok and dev <= ORDERING_EQUIV_TOL * (1.0 + 2.0 * n_s * 0.3), dev

    def test_every_output_is_validated(self, monkeypatch):
        spec = BroadcastChannelSpec((0.2, 0.3))
        checked = []
        real = gaussian.CovarianceState._check
        monkeypatch.setattr(gaussian.CovarianceState, "_check",
                            lambda self: checked.append(self.mode_labels) or real(self))
        implementations_equivalent(spec, list(all_orderings(spec)), 1.0)
        assert checked == [("B1", "B2", "E")] * 6

    @pytest.mark.parametrize("n_s", [1e-2, 1.0, 1e2])
    @pytest.mark.parametrize("x", [0.3, 0.5, 0.9])
    def test_tiny_share_every_ordering(self, x, n_s):
        # an eta far below the remainder it splits from: every ordering
        # must keep it to a few ulps of eta, not of the remainder
        for eta in np.logspace(-12, -4, 17).tolist():
            for etas in ((eta, x), (x, eta)):
                spec = BroadcastChannelSpec(etas)
                ok, dev = implementations_equivalent(spec, list(all_orderings(spec)), n_s)
                assert ok, (etas, n_s, dev)

    def test_four_receivers_full_sweep(self):
        spec = BroadcastChannelSpec((0.15, 0.2, 0.1, 0.25))
        ok, dev = implementations_equivalent(spec, list(all_orderings(spec)), 0.8)
        assert ok, f"max deviation {dev}"

    def test_needs_two_orderings(self):
        spec = BroadcastChannelSpec((0.2, 0.3))
        with pytest.raises(ValueError):
            implementations_equivalent(spec, [build_network(spec).ordering], 1.0)


class TestGuards:
    def test_network_receiver_cap(self):
        with pytest.raises(ValueError):
            build_network(BroadcastChannelSpec((0.01,) * 13))

    def test_sweep_receiver_cap(self):
        with pytest.raises(ValueError):
            list(all_orderings(BroadcastChannelSpec((0.01,) * 9)))
