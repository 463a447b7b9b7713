"""Pure-loss bosonic broadcast channel as a cascade of beam splitters.

A 1-to-m broadcast channel is specified by the transmittances
``(eta_1, ..., eta_m)`` delivered to the receivers; the environment
implicitly absorbs ``eta_E = 1 - sum(eta_i)``.  Any ordering of the m+1
output labels yields a physical implementation as m beam splitters, each
peeling one output off a single through-arm fed with vacuum ancillas.
All orderings realize the same channel: the reduced state on (sender,
receivers) is ordering-independent.

Output modes are always reported in the fixed order
``(A, B1, ..., Bm, E)`` regardless of the split ordering, so covariance
matrices can be compared bit-stably.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import gaussian
from .gaussian import CovarianceState

__all__ = [
    "BroadcastChannelSpec",
    "BeamSplitterNetwork",
    "Stage",
    "DegenerateSplitError",
    "receiver_labels",
    "output_labels",
    "default_ordering",
    "all_orderings",
    "validate_ordering",
    "build_network",
    "apply_channel",
    "output_state_tmsv",
    "implementations_equivalent",
]

ENV_LABEL = "E"
ETA_TOL = 1e-12
ORDERING_EQUIV_TOL = 1e-12
MAX_RECEIVERS = 12          # network construction guard
MAX_SWEEP_RECEIVERS = 8     # all-orderings sweeps grow factorially


class DegenerateSplitError(ValueError):
    """A split ordering exhausts all transmittance before its last stage."""


@dataclass(frozen=True)
class BroadcastChannelSpec:
    """Transmittance vector (eta_1, ..., eta_m), one entry per receiver."""

    etas: tuple

    def __post_init__(self):
        object.__setattr__(self, "etas", tuple(float(e) for e in self.etas))
        if len(self.etas) < 1:
            raise ValueError("need at least one receiver")
        for e in self.etas:
            if not -ETA_TOL <= e <= 1.0 + ETA_TOL:
                raise ValueError(f"transmittance {e!r} outside [0, 1]")
        if sum(self.etas) > 1.0 + ETA_TOL:
            raise ValueError(f"transmittances sum to {sum(self.etas)!r} > 1")

    @property
    def m(self) -> int:
        return len(self.etas)

    @property
    def eta_total(self) -> float:
        return sum(self.etas)

    @property
    def eta_env(self) -> float:
        return max(0.0, 1.0 - sum(self.etas))


class Stage(NamedTuple):
    """One splitter of the cascade: the through-arm keeps ``transmittance``."""

    transmittance: float
    output: str


def receiver_labels(spec: BroadcastChannelSpec) -> tuple:
    return tuple(f"B{i}" for i in range(1, spec.m + 1))


def output_labels(spec: BroadcastChannelSpec) -> tuple:
    return receiver_labels(spec) + (ENV_LABEL,)


def _eta_by_label(spec: BroadcastChannelSpec) -> dict:
    etas = dict(zip(receiver_labels(spec), spec.etas))
    etas[ENV_LABEL] = 1.0 - sum(spec.etas)
    return etas


def validate_ordering(spec: BroadcastChannelSpec, ordering) -> tuple:
    """Check that ``ordering`` is an exact permutation of the output labels."""
    ordering = tuple(ordering)
    if sorted(ordering) != sorted(output_labels(spec)):
        raise ValueError(
            f"{ordering!r} is not a permutation of {output_labels(spec)!r}"
        )
    return ordering


def default_ordering(spec: BroadcastChannelSpec) -> tuple:
    """Zero-weight outputs split first (they take nothing), positives after.

    Splitting exhausted-weight labels last would divide by a vanished
    remainder whenever two or more outputs carry zero transmittance;
    putting them first keeps every stage denominator positive for every
    valid spec.
    """
    etas = _eta_by_label(spec)
    zeros = [lab for lab in output_labels(spec) if etas[lab] <= ETA_TOL]
    positive = [lab for lab in output_labels(spec) if etas[lab] > ETA_TOL]
    return tuple(zeros + positive)


def all_orderings(spec: BroadcastChannelSpec):
    """All (m+1)! split orderings. Guarded: factorial growth above m = 8."""
    if spec.m > MAX_SWEEP_RECEIVERS:
        raise ValueError(f"ordering sweep limited to m <= {MAX_SWEEP_RECEIVERS}")
    return itertools.permutations(output_labels(spec))


@dataclass
class BeamSplitterNetwork:
    """Cascade implementing a broadcast channel for one split ordering.

    Stage j peels off ``ordering[j-1]`` with a share
    ``eta_j / (1 - sum of already-split etas)`` of the through-arm; the
    stored ``transmittance`` is the complementary through fraction
    ``(1 - sum_{k<=j} eta_k) / (1 - sum_{l<j} eta_l)``.  The arm left after
    the final stage carries ``ordering[-1]``.
    """

    spec: BroadcastChannelSpec
    ordering: tuple
    stages: tuple

    def __post_init__(self) -> None:
        self.ordering = tuple(self.ordering)
        self.stages = tuple(self.stages)
        etas = _eta_by_label(self.spec)
        through = 1.0
        for j, stage in enumerate(self.stages):
            if not -ETA_TOL <= stage.transmittance <= 1.0 + ETA_TOL:
                raise ValueError(f"stage {j + 1} transmittance {stage.transmittance!r}")
            rebuilt = (1.0 - stage.transmittance) * through
            if abs(rebuilt - etas[stage.output]) > ETA_TOL:
                raise ValueError(
                    f"stage {j + 1} rebuilds eta[{stage.output}] = {rebuilt!r}, "
                    f"expected {etas[stage.output]!r}"
                )
            through *= stage.transmittance
        if abs(through - etas[self.final_label]) > ETA_TOL:
            raise ValueError(
                f"through-arm carries {through!r}, expected "
                f"eta[{self.final_label}] = {etas[self.final_label]!r}"
            )

    @property
    def final_label(self):
        return self.ordering[-1]


def build_network(spec: BroadcastChannelSpec, ordering=None) -> BeamSplitterNetwork:
    """Derive the cascade's stage transmittances for a split ordering.

    Raises :class:`DegenerateSplitError` when a prefix of the ordering
    already exhausts all transmittance, i.e. a later stage would
    renormalize by a remainder <= 1e-12.
    """
    if spec.m > MAX_RECEIVERS:
        raise ValueError(f"network construction limited to m <= {MAX_RECEIVERS}")
    ordering = (
        default_ordering(spec) if ordering is None else validate_ordering(spec, ordering)
    )
    etas = _eta_by_label(spec)
    stages = []
    split_so_far = 0.0
    for j, label in enumerate(ordering[:-1], start=1):
        remainder = 1.0 - split_so_far
        if remainder <= ETA_TOL:
            raise DegenerateSplitError(
                f"stage {j} (splitting off {label!r}): ordering {ordering!r} "
                f"exhausts all transmittance after {j - 1} stage(s)"
            )
        t = (remainder - etas[label]) / remainder
        stages.append(Stage(min(max(t, 0.0), 1.0), label))
        split_so_far += etas[label]
    return BeamSplitterNetwork(spec, ordering, tuple(stages))


def apply_channel(
    spec: BroadcastChannelSpec, state: CovarianceState, ordering=None
) -> CovarianceState:
    """Send the second mode of a two-mode state through the channel.

    The first mode is kept as the sender's reference; m vacuum ancillas are
    adjoined and the cascade is applied to the through-arm.  The output
    retains the environment mode, so entropic identities on the purified
    state remain available; modes come back as ``(A, B1, ..., Bm, E)``.
    The cascade runs on one covariance matrix, validated once at the end.
    """
    if state.n_modes != 2:
        raise ValueError(f"channel input must have exactly 2 modes, got {state.n_modes}")
    net = build_network(spec, ordering)
    ref_label, arm_label = state.mode_labels
    if ref_label in net.ordering or arm_label in net.ordering:
        raise ValueError(
            f"input labels {state.mode_labels!r} collide with output labels"
        )
    n = 2 + spec.m
    cov = np.eye(2 * n)
    cov[:4, :4] = state.cov
    arm = 1
    for j, stage in enumerate(net.stages):
        # ancilla slot 2+j becomes this stage's output: it picks up the
        # +sqrt(1 - t) share of the arm, the arm keeps +sqrt(t) of itself
        s = gaussian.beam_splitter(stage.transmittance, 2 + j, arm, n)
        cov = s @ cov @ s.T
        cov = 0.5 * (cov + cov.T)  # keep exactly symmetric under roundoff

    # the arm leaves the cascade carrying the ordering's last output
    slots = (ref_label, net.final_label) + tuple(stage.output for stage in net.stages)
    labels = (ref_label,) + output_labels(spec)
    idx = [slots.index(lab) for lab in labels]
    qi = [q for i in idx for q in (2 * i, 2 * i + 1)]
    return CovarianceState(labels, cov[np.ix_(qi, qi)])


def output_state_tmsv(
    spec: BroadcastChannelSpec, n_s: float, ordering=None
) -> CovarianceState:
    """Joint state on (A, B1, ..., Bm, E) from a TMSV of energy ``n_s``."""
    return apply_channel(spec, gaussian.tmsv(n_s, ("A", "A'")), ordering)


def implementations_equivalent(
    spec: BroadcastChannelSpec, orderings, n_s: float
) -> tuple:
    """Do the given orderings produce the same channel?

    Compares the reduced covariance matrices on (A, receivers) pairwise and
    returns ``(equivalent, max_deviation)`` with equivalence meaning maximum
    element-wise deviation below 1e-12.
    """
    orderings = [validate_ordering(spec, o) for o in orderings]
    if len(orderings) < 2:
        raise ValueError("need at least two orderings to compare")
    keep = ("A",) + receiver_labels(spec)
    covs = [
        gaussian.reduce(output_state_tmsv(spec, n_s, o), keep).cov for o in orderings
    ]
    max_dev = 0.0
    for a, b in itertools.combinations(covs, 2):
        max_dev = max(max_dev, float(np.max(np.abs(a - b))))
    return max_dev <= ORDERING_EQUIV_TOL, max_dev
