"""Capacity regions of pure-loss bosonic broadcast channels.

Gaussian covariance-matrix formalism, beam-splitter channel models,
rate-region geometry, and an independent truncated-Fock-space oracle that
cross-checks every entropy quantity.
"""

from .gaussian import (
    CovarianceState,
    entropy_g,
    reduce,
    symplectic_eigenvalues,
    von_neumann_entropy,
    conditional_entropy,
)
from .channel import (
    BroadcastChannelSpec,
    BeamSplitterNetwork,
    Stage,
    DegenerateSplitError,
    receiver_labels,
    output_labels,
    build_network,
    implementations_equivalent,
)
from .region import (
    CapacityRegion,
    UNCONSTRAINED,
    nonempty_subsets,
    inner_bound_finite,
    inner_bound_finite_gaussian,
    asymptotic_bound,
    capacity_region,
    contains,
    vertices,
    boundary_2d,
    merging_gain,
    merging_gain_gaussian,
)
from .fock import (
    FockState,
    DensityMatrix,
    InconclusiveVerificationError,
    tail_mass,
    cutoff_for_tail,
    tmsv_fock,
    split_with_vacuum,
    reduce_density,
    verify_conditional_entropies,
)

__version__ = "0.1.0"
