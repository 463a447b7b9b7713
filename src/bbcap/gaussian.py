"""Zero-mean Gaussian states in the covariance-matrix formalism.

Conventions used throughout the package:

* Quadratures are ordered ``(x1, p1, ..., xn, pn)``.
* Vacuum-normalized units: the vacuum covariance matrix is the identity,
  so a thermal state with mean photon number ``nbar`` has covariance
  ``(2*nbar + 1) * I2`` and every symplectic eigenvalue satisfies
  ``nu >= 1``.
* Entropies are in bits; the von Neumann entropy of a Gaussian state is
  ``sum(entropy_g((nu_k - 1) / 2))`` over its symplectic eigenvalues.
* The symplectic spectrum is the positive half of the eigenvalues of
  ``i Lᵀ (Ω L)``, ``L`` the covariance's Cholesky factor and ``Ω L`` its
  row pairs swapped, the second negated (Williamson's theorem).  A
  covariance with no factor is refused as an uncertainty violation.
  One kernel takes every spectrum, ``_spectrum``: numpy's private LAPACK
  gufuncs, bit for bit ``np.linalg`` (``test_gaussian.TestSpectrumKernel``).
  Rounding resolves ``nu - 1`` to ``NU_FLOOR * dim * max(1, max|V|)``:
  below it ``nu`` is the vacuum's, and validity allows that much below 1.

Every state here is zero-mean, so a covariance matrix is the whole state.
A partial trace is a principal submatrix, gathered with ``take`` on the
kept modes' quadrature indices, rows then columns.  It cannot turn a valid
covariance matrix into an invalid one, so a reduced state is not validated
again, and an entropy is taken from the block with no state built.  The
passive networks of :mod:`bbcap.channel` act on mode amplitudes as an
orthogonal matrix, so the channel writes its output covariance directly
from the amplitudes and validates it once, with no beam-splitter matrix.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import InitVar, dataclass
from operator import add

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = [
    "CovarianceState",
    "entropy_g",
    "reduce",
    "symplectic_eigenvalues",
    "von_neumann_entropy",
    "conditional_entropy",
]

# Tolerances: 1e-12 for algebraic identities, 1e-9 for anything that has
# passed through an eigendecomposition.
SYMMETRY_TOL = 1e-12
VALIDITY_TOL = 1e-9
# in units of eps * dim * max(1, max|V|), rounding moves a vacuum nu by about
# 1 writing V, 2 in the Cholesky factor and 1 in eigvalsh (worst seen: 1.6)
NU_FLOOR = 4 * np.finfo(float).eps

_LN2 = math.log(2.0)
# the signs of the rows of Ω L, per mode: (p_k, -x_k)
_OMEGA_SIGNS = np.array([[1.0], [-1.0]])
_NOT_POSITIVE = "uncertainty relation violated: covariance not positive definite"


@dataclass
class CovarianceState:
    """Zero-mean Gaussian state of ``n`` labeled modes: its covariance matrix.

    Attributes
    ----------
    mode_labels : tuple
        Distinct identifiers, one per mode, in quadrature-block order.
    cov : ndarray, shape (2n, 2n)
        Symmetric, positive definite covariance matrix satisfying the
        uncertainty relation (all symplectic eigenvalues >= 1 within
        ``max(VALIDITY_TOL, NU_FLOOR * dim * max(1, max|V|))``).

    Treat instances as immutable; operations return new states.
    """

    mode_labels: tuple
    cov: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        self.mode_labels = tuple(self.mode_labels)
        self.cov = np.array(self.cov, dtype=float)
        if validate:
            self._check()

    def _check(self) -> None:
        n = len(self.mode_labels)
        if n == 0:
            raise ValueError("state must have at least one mode")
        if len(set(self.mode_labels)) != n:
            raise ValueError(f"duplicate mode labels: {self.mode_labels}")
        if self.cov.shape != (2 * n, 2 * n):
            raise ValueError(f"cov has shape {self.cov.shape}, expected ({2 * n}, {2 * n})")
        peak = float(np.abs(self.cov).max())  # NaN and inf carry through max
        if not peak < math.inf:
            raise ValueError("covariance entries must be finite")
        scale = max(1.0, peak)
        asym = float(np.abs(self.cov - self.cov.T).max())
        if asym > SYMMETRY_TOL * scale:
            raise ValueError(f"covariance not symmetric (max asymmetry {asym:.3e})")
        nu_min = symplectic_eigenvalues(self)[-1]
        if nu_min < 1.0 - max(VALIDITY_TOL, _resolution(self.cov, scale)):
            raise ValueError(f"uncertainty relation violated: min symplectic eigenvalue {nu_min}")

    @property
    def n_modes(self) -> int:
        return len(self.mode_labels)


def entropy_g(x):
    """Entropy in bits of a thermal bosonic state with mean photon number x.

    ``g(x) = (x + 1) log2(x + 1) - x log2(x)``, evaluated in the
    cancellation-free form ``log2(x + 1) + x * log1p(1/x) / ln 2`` which is
    accurate for all x (for large x it reduces to the asymptotic expansion
    ``log2 x + log2 e + O(1/x)``).  Returns 0 below 1e-12 (the x log x limit).

    ``x`` is a float or an array, taken elementwise.  An array's entries are
    the floats' values bit for bit: the logarithms are libm's (:func:`_libm`),
    the rest the same IEEE operations in the same order.
    """
    if isinstance(x, np.ndarray):
        if (x < 0).any():
            raise ValueError(f"mean photon number must be nonnegative, got {float(x.min())!r}")
        y = np.maximum(x, 1e-12)  # the same y where it counts, and never 1/0
        g = _libm(math.log2, y + 1.0) + y * _libm(math.log1p, 1.0 / y) / _LN2
        return np.where(x < 1e-12, 0.0, g)
    x = float(x)
    if x < 0:
        raise ValueError(f"mean photon number must be nonnegative, got {x!r}")
    if x < 1e-12:
        return 0.0
    return math.log2(x + 1.0) + x * math.log1p(1.0 / x) / _LN2


def _libm(fn, x):
    """``fn``, a :mod:`math` function, of a float or of each entry of an array.

    numpy's own logarithms run on SIMD routines chosen by the CPU (AVX-512
    where present), whose last bit can differ from libm's; mapping ``math``
    keeps every value, and each golden printed from it, the same on every
    CPU.
    """
    if not isinstance(x, np.ndarray):
        return fn(x)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _photon_number(n_s) -> float:
    """``n_s`` as a float, refused unless a real number (never text, None or a
    bool), finite and nonnegative; -0.0 is returned as 0.0."""
    # plain floats skip the ABC check, which costs several times the rest
    if type(n_s) is not float and (type(n_s) is bool or not isinstance(n_s, numbers.Real)):
        raise ValueError(f"input photon number must be a real number, got {n_s!r}")
    value = float(n_s)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"input photon number must be finite and nonnegative, got {n_s!r}")
    return value + 0.0  # -0.0 + 0.0 is 0.0; every other value is unchanged


def _left_sum(values) -> float:
    """Floats added left to right from 0.0, as ``sum`` did before Python 3.12
    compensated (gh-100425): every eta and entropy sum, the same on each version."""
    return functools.reduce(add, values, 0.0)


def reduce(state: CovarianceState, keep) -> CovarianceState:
    """Partial trace down to the modes in ``keep`` (original mode order kept)."""
    return CovarianceState(*_block(state, keep), validate=False)


def _block(state: CovarianceState, keep) -> tuple:
    """The labels of the modes in ``keep``, in the state's order, and their covariance."""
    keep_set = set(keep)
    if not keep_set:
        raise ValueError("must keep at least one mode")
    idx = [i for i, lab in enumerate(state.mode_labels) if lab in keep_set]
    if len(idx) < len(keep_set):
        unknown = next(label for label in keep_set if label not in state.mode_labels)
        raise ValueError(f"unknown mode label {unknown!r}")
    return tuple(state.mode_labels[i] for i in idx), _mode_blocks(state.cov, idx)


def _mode_blocks(cov: np.ndarray, idx: list) -> np.ndarray:
    """Covariance of the modes ``idx``, in that order: rows, then columns, of their quadratures."""
    q = [2 * i + j for i in idx for j in (0, 1)]
    return cov.take(q, 0).take(q, 1)


def symplectic_eigenvalues(state: CovarianceState) -> list:
    """Symplectic spectrum of ``state``, descending: :func:`_spectrum` of its covariance."""
    return _spectrum(state.cov)


def _spectrum(cov: np.ndarray) -> list:
    """Symplectic spectrum, descending: the positive half of the spectrum of
    the Hermitian matrix ``i Lᵀ (Ω L)``, with ``cov = L Lᵀ`` its Cholesky factor.

    ``i Lᵀ Ω L`` is similar to ``i Ω cov``, so its eigenvalues are the
    symplectic eigenvalues in pairs ``±nu`` (Williamson's theorem); ``Ω L``
    has rows ``(p_k, -x_k)`` of ``L`` per mode k.  A covariance that is not
    positive definite has no Cholesky factor; it raises ``ValueError`` as
    an uncertainty violation, since every physical covariance is one.  The one
    spectrum kernel: ``np.linalg``'s gufuncs, numpy's private API, with no
    wrapper and the same bits (``test_gaussian.TestSpectrumKernel``).
    """
    n = len(cov) // 2
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        try:
            chol = _umath_linalg.cholesky_lo(cov, signature="d->d")
        except FloatingPointError:
            raise ValueError(_NOT_POSITIVE) from None
        omega_l = chol.reshape(n, 2, -1)[:, ::-1] * _OMEGA_SIGNS
        try:
            nu = _umath_linalg.eigvalsh_lo(1j * (chol.T @ omega_l.reshape(2 * n, 2 * n)),
                                           signature="D->d")
        except FloatingPointError:
            raise np.linalg.LinAlgError("Eigenvalues did not converge") from None
    return nu[n:][::-1].tolist()


def _resolution(cov: np.ndarray, scale=None) -> float:
    """The smallest ``nu - 1`` that rounding leaves resolved in ``cov``'s spectrum;
    ``scale`` is ``max(1, max|V|)``, found here when not given."""
    if scale is None:
        scale = max(1.0, float(np.abs(cov).max()))
    return NU_FLOOR * len(cov) * scale


def von_neumann_entropy(state: CovarianceState) -> float:
    """Entropy in bits: sum of g((nu - 1)/2) over symplectic eigenvalues resolved above 1."""
    return _entropy(state.cov)


def _entropy(cov: np.ndarray) -> float:
    """:func:`von_neumann_entropy` of the state of covariance ``cov``."""
    floor = _resolution(cov)  # a NaN nu is kept, so that the entropy is NaN
    return _left_sum(entropy_g((nu - 1.0) / 2.0) for nu in _spectrum(cov) if not nu - 1.0 < floor)


def conditional_entropy(state: CovarianceState, subsystem, conditioned_on) -> float:
    """H(S1 | S2) = H(S1 S2) - H(S2) in bits, from blocks of ``state``'s covariance;
    S2 may be empty. May be negative."""
    s1, s2 = set(subsystem), set(conditioned_on)
    if not s1:
        raise ValueError("subsystem must be nonempty")
    if s1 & s2:
        raise ValueError(f"subsystems overlap: {sorted(s1 & s2, key=str)}")
    joint = _entropy(_block(state, s1 | s2)[1])
    return joint - _entropy(_block(state, s2)[1]) if s2 else joint
