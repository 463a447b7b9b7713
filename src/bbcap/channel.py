"""Pure-loss bosonic broadcast channel as a cascade of beam splitters.

A 1-to-m broadcast channel is specified by the transmittances
``(eta_1, ..., eta_m)`` delivered to the receivers; the environment
implicitly absorbs ``eta_E = 1 - sum(eta_i)``.  Any ordering of the m+1
output labels yields a physical implementation as m beam splitters, each
peeling one output off a single through-arm fed with vacuum ancillas.
All orderings realize the same channel: the reduced state on (sender,
receivers) is ordering-independent.

A cascade is its shares: with ``r_j`` the suffix sums of eta in split
order, stage j hands its output ``eta_j / r_j`` of the arm and passes on
``r_{j+1} / r_j``, neither as one minus the other.

The cascade is passive, so it acts on mode amplitudes as an orthogonal
matrix (Weedbrook et al., RMP 84, 621, arXiv:1110.3234, §II.C).  With
vacuum on the other ports the arm reaches output j with a real amplitude
u_j, ``u_j**2 = eta_j``.  The output on (A, B1..Bm, E) is pure, so a set of
modes and its complement share their entropy: ``-H(S1 | A, S2) = H(S1 | R,
E)``, R the receivers outside S1 and S2.  So the outputs alone, the split of
a thermal arm ``V_arm = (2 n_s + 1) I`` with no reference mode or squeezing,
are all the program needs, and ``_thermal_output``, their one writer, writes
their covariance as ``I + u uᵀ ⊗ 2 n_s I``: no per-stage matrix is needed.

Output modes are always reported in the fixed order
``(B1, ..., Bm, E)`` regardless of the split ordering, so covariance
matrices can be compared bit-stably.
"""

from __future__ import annotations

import functools
import itertools
import math
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
    "build_network",
    "implementations_equivalent",
]

ENV_LABEL = "E"
# A decision about the spec, not a rounding bound (subset sums are exact to about
# m eps): receivers within ETA_TOL of taking all the light take all of it, so
# region._bounds flags their unconstrained bounds unbounded and convergence refuses them.
ETA_TOL = 1e-12
# Orderings agree to this, relative to max(1, max|V|).  Every stage value is
# a suffix sum of eta (at most m additions of nonnegative terms) and one
# division, so within (m + 2) eps.  Its square root and the running product
# add 2 eps, so an amplitude u_j, a product of at most m + 1 such factors,
# is within (m + 1)(m + 6)/2 eps, an output entry within (m + 1)(m + 6) + 5
# eps of max(1, max|V|), and two orderings within twice that: 1.1e-13 at
# MAX_RECEIVERS.
ORDERING_EQUIV_TOL = 1e-12
MAX_RECEIVERS = 12          # network construction guard
_I2 = np.eye(2)


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
        if self.eta_total > 1.0 + ETA_TOL:
            raise ValueError(f"transmittances sum to {self.eta_total!r} > 1")

    @property
    def m(self) -> int:
        return len(self.etas)

    @property
    def eta_total(self) -> float:
        return gaussian._left_sum(self.etas)

    @property
    def eta_env(self) -> float:
        return max(0.0, 1.0 - self.eta_total)


class Stage(NamedTuple):
    """One splitter of the cascade: ``output`` takes ``share`` of the arm
    reaching it, and the through-arm keeps ``transmittance``."""

    transmittance: float
    share: float
    output: str


@functools.lru_cache(maxsize=None)
def _receiver_labels(m: int) -> tuple:
    return tuple(f"B{i}" for i in range(1, m + 1))


def receiver_labels(spec: BroadcastChannelSpec) -> tuple:
    return _receiver_labels(spec.m)


def output_labels(spec: BroadcastChannelSpec) -> tuple:
    return receiver_labels(spec) + (ENV_LABEL,)


def _eta_by_label(spec: BroadcastChannelSpec) -> dict:
    etas = dict(zip(receiver_labels(spec), (max(e, 0.0) for e in spec.etas)))
    etas[ENV_LABEL] = spec.eta_env
    return etas


def validate_ordering(spec: BroadcastChannelSpec, ordering) -> tuple:
    """Check that ``ordering`` is an exact permutation of the output labels."""
    ordering = tuple(ordering)
    if sorted(ordering) != sorted(output_labels(spec)):
        raise ValueError(
            f"{ordering!r} is not a permutation of {output_labels(spec)!r}"
        )
    return ordering


def _zero_weight_first(etas: dict) -> tuple:
    """The default split ordering: zero-weight outputs first (they take
    nothing), positives after.  Splitting exhausted-weight labels last would
    divide by a vanished remainder whenever two or more outputs carry zero
    transmittance; putting them first keeps every stage denominator positive
    for every valid spec.
    """
    return tuple(sorted(etas, key=lambda label: etas[label] > ETA_TOL))


class BeamSplitterNetwork(NamedTuple):
    """Cascade implementing a broadcast channel for one split ordering.

    ``stages[j]`` peels off ``ordering[j]``; the arm left after the final
    stage carries ``ordering[-1]``.
    """

    ordering: tuple
    stages: tuple

    @property
    def final_label(self):
        return self.ordering[-1]


def build_network(spec: BroadcastChannelSpec, ordering=None) -> BeamSplitterNetwork:
    """The cascade's stages for a split ordering, from the suffix sums of eta.

    With ``r_j`` the sum of eta over ``ordering[j:]``, stage j carries
    ``transmittance = r_{j+1} / r_j`` and ``share = eta_j / r_j``.  Float
    sums of nonnegative terms are monotone, so both lie in [0, 1], and the
    shares times the transmittances before them rebuild each eta to within
    a few ulps, however small it is.  The default ordering is ``_zero_weight_first``.

    Raises :class:`DegenerateSplitError` when a prefix of the ordering
    already exhausts all transmittance, i.e. a later stage would
    renormalize by a remainder <= 1e-12.
    """
    if spec.m > MAX_RECEIVERS:
        raise ValueError(f"network construction limited to m <= {MAX_RECEIVERS}")
    etas = _eta_by_label(spec)
    ordering = (
        _zero_weight_first(etas) if ordering is None else validate_ordering(spec, ordering)
    )
    rest = list(itertools.accumulate(etas[label] for label in reversed(ordering)))[::-1]
    stages = []
    for j, label in enumerate(ordering[:-1]):
        if rest[j] <= ETA_TOL:
            raise DegenerateSplitError(
                f"stage {j + 1} (splitting off {label!r}): ordering {ordering!r} "
                f"exhausts all transmittance after {j} stage(s)"
            )
        stages.append(Stage(rest[j + 1] / rest[j], etas[label] / rest[j], label))
    return BeamSplitterNetwork(ordering, tuple(stages))


def _thermal_output(spec: BroadcastChannelSpec, n_s: float, ordering=None) -> CovarianceState:
    """The outputs (B1, ..., Bm, E) of a thermal arm of ``n_s`` photons, the TMSV
    output with A traced: the channel's one covariance writer, validated once.
    u_j is the through-arm's product of ``sqrt(transmittance)`` so far, times
    ``sqrt(share)`` of its own stage, and the covariance is ``I + u uᵀ ⊗ 2 n_s I``."""
    excess = 2.0 * gaussian._photon_number(n_s) * _I2
    net = build_network(spec, ordering)
    amp, through = {}, 1.0
    for stage in net.stages:
        amp[stage.output] = through * math.sqrt(stage.share)
        through *= math.sqrt(stage.transmittance)
    amp[net.final_label] = through
    u = np.array([amp[label] for label in output_labels(spec)])
    size = 2 * len(u)
    cov = (np.multiply.outer(u, u)[:, None, :, None] * excess[:, None]).reshape(size, size)
    cov.reshape(-1)[:: size + 1] += 1.0  # the vacuum's I
    return CovarianceState(output_labels(spec), cov)


def implementations_equivalent(
    spec: BroadcastChannelSpec, orderings, n_s: float
) -> tuple:
    """Do the given orderings produce the same channel?

    Compares the receivers' block of :func:`_thermal_output` pairwise and
    returns ``(equivalent, max_deviation)`` with equivalence meaning maximum
    element-wise deviation at most ``ORDERING_EQUIV_TOL * max(1, max|V|)``,
    the scale at which an amplitude's rounding reaches the entries.  The
    stage values are suffix sums and one division, each within (m + 2) eps
    relative (see ``ORDERING_EQUIV_TOL``), so the bound holds for every
    share, however small.  The block is ``I + u_R u_Rᵀ ⊗ 2 n_s I``, and on
    (A, receivers) the cross block with A is ``u_R`` times ``V_A,arm``: it
    carries nothing the block lacks, and the thermal outputs are valid at
    every energy.
    """
    orderings = [validate_ordering(spec, o) for o in orderings]
    if len(orderings) < 2:
        raise ValueError("need at least two orderings to compare")
    size = 2 * spec.m
    covs = [_thermal_output(spec, n_s, o).cov[:size, :size] for o in orderings]
    max_dev = max(float(np.max(np.abs(a - b))) for a, b in itertools.combinations(covs, 2))
    scale = max(1.0, max(float(np.max(np.abs(c))) for c in covs))
    return max_dev <= ORDERING_EQUIV_TOL * scale, max_dev
