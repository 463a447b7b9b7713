"""Distillation rate regions of the pure-loss broadcast channel.

For each nonempty receiver subset T the combined entanglement-plus-key rate
toward T is constrained by

* finite input energy ``n_s`` (state-merging achievability):
  ``g((1 - eta_comp) n_s) - g((1 - eta_all) n_s)``,
* unconstrained energy:  ``log2((1 - eta_comp) / (1 - eta_all))``,

where ``eta_comp`` sums the complement receivers and ``eta_all`` all of
them.  One ebit converts to one secret-key bit, so each receiver gets a
single combined rate coordinate.  The bound function is monotone and
submodular, so the region is a polymatroid whose vertices come from the
greedy rule over receiver orderings.

A region holds the bound function as one vector ``f[mask]`` over the 2^m
receiver subsets: receiver i is bit i - 1, ``f[0] = 0``, and ``math.inf``
flags an unbounded subset.  Subset sums add their terms in ascending
receiver order (``s[mask | 1 << i] = s[mask] + x_i`` for the highest bit i).
The 2^m bounds are one array expression over those sums: ``entropy_g`` of
an array, or ``log2`` of the ratio, with libm's logarithm of each entry.
The single-subset functions evaluate the same expression on floats, so
every caller gets the same bits, on every CPU.

Every finite-energy bound can also be evaluated as a Gaussian conditional
entropy of the channel output (the ``*_gaussian`` functions), as H(S1 | R,
E) on the split of a thermal arm in the default ordering, which every
ordering matches (``channel.implementations_equivalent``).  At m <= 12 and
n_s in [1e-2, 1e8] the two agree within 1e-12 (at most 7.6e-15 over 15,600
seeded cases): each is a difference of entropies of at most about g(n_s),
each within a few ulp.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers

import numpy as np

from . import channel, gaussian
from .channel import BroadcastChannelSpec
from .gaussian import _left_sum, _libm, _photon_number, entropy_g

__all__ = [
    "CapacityRegion",
    "UNCONSTRAINED",
    "nonempty_subsets",
    "inner_bound_finite",
    "inner_bound_finite_gaussian",
    "asymptotic_bound",
    "capacity_region",
    "contains",
    "vertices",
    "boundary_2d",
    "merging_gain",
    "merging_gain_gaussian",
]

UNCONSTRAINED = "unconstrained"
EXACT_TOL = 1e-12      # closed-form arithmetic
MAX_REGION_RECEIVERS = 20   # 2^m constraints
MAX_VERTEX_RECEIVERS = 8
MAX_BOUNDARY_POINTS = 100_000  # about the vertex count at MAX_VERTEX_RECEIVERS
CHECK_BLOCK = 1 << 16  # gains per group of the polymatroid check


def _whole(n, lo: int, hi: int) -> bool:
    """Is ``n`` a whole number in lo..hi, of any integer type but bool?"""
    return type(n) is not bool and isinstance(n, numbers.Integral) and lo <= n <= hi


def _receiver_count(m) -> int:
    """``m`` as an int, refused before anything of size 2^m is allocated
    unless it is a whole number of receivers in range."""
    if not _whole(m, 1, MAX_REGION_RECEIVERS):
        raise ValueError(f"receiver count m must be in 1..{MAX_REGION_RECEIVERS}, got {m!r}")
    return int(m)


def _validate_subset(m: int, subset, allow_empty=False) -> frozenset:
    """``subset`` as a frozenset of ints, each a whole receiver index in 1..m."""
    t = frozenset(subset)
    if not t and not allow_empty:
        raise ValueError("receiver subset must be nonempty")
    if all(type(i) is int and 1 <= i <= m for i in t):  # plain ints: no ABC check
        return t
    if not all(isinstance(i, numbers.Integral) and type(i) is not bool and 1 <= i <= m for i in t):
        raise ValueError(f"subset {sorted(t, key=repr)} outside receivers 1..{m}")
    return frozenset(map(int, t))


def _mask(t: frozenset) -> int:
    return sum(1 << (i - 1) for i in t)


def nonempty_subsets(m: int):
    """All 2^m - 1 nonempty receiver subsets, smallest first, lexicographic."""
    for size in range(1, m + 1):
        yield from map(frozenset, itertools.combinations(range(1, m + 1), size))


def _subset_sums(values) -> np.ndarray:
    """``s[mask]``: the sum of ``values[i]`` over the bits i of ``mask``."""
    s = np.zeros(1 << len(values))
    for i, x in enumerate(values):
        s[1 << i : 2 << i] = s[: 1 << i] + x
    return s


def _eta(spec: BroadcastChannelSpec, mask: int) -> float:
    """eta summed over the receivers of ``mask``: one entry of ``_subset_sums(spec.etas)``."""
    return _left_sum(e for i, e in enumerate(spec.etas) if mask >> i & 1)


def _closed_form(n_s, kept, kept_joint):
    """-H(S1 | A, S2) = ``g(kept n_s) - g(kept_joint n_s)``, ``kept`` a float or an array.

    ``kept = 1 - eta(S2)`` and ``kept_joint = 1 - eta(S1 u S2)``, each eta a
    subset sum in ascending receiver order, so every caller agrees bit for bit.
    ``n_s`` is a checked photon number, or a column of them: a row each.
    """
    # a kept share below 0 is a rounded 0
    return entropy_g(np.maximum(kept, 0.0) * n_s) - entropy_g(max(kept_joint, 0.0) * n_s)


def _bounds(energy, eta_t, eta_comp, eta_all: float):
    """f(T) from the sums of T and of its complement: floats, or arrays over subsets."""
    if energy != UNCONSTRAINED:
        return _closed_form(energy, 1.0 - eta_comp, 1.0 - eta_all)
    if eta_all >= 1.0 - channel.ETA_TOL:  # no environment: the unbounded flag
        return np.where(eta_t <= EXACT_TOL, 0.0, math.inf)
    return _libm(math.log2, (1.0 - eta_comp) / (1.0 - eta_all))


def _bound(spec: BroadcastChannelSpec, energy, subset) -> float:
    full = (1 << spec.m) - 1
    mask = _mask(_validate_subset(spec.m, subset))
    return float(_bounds(energy, _eta(spec, mask), _eta(spec, full ^ mask), _eta(spec, full)))


class CapacityRegion:
    """Polymatroid rate region, held as one bound vector over receiver subsets.

    ``energy`` is either the string ``"unconstrained"`` or the input photon
    number the inner bound was evaluated at, refused unless a finite and
    nonnegative real number.  ``f`` is the bound vector: ``f[mask]`` over all 2^m
    subsets, receiver i at bit i - 1, ``f[0] = 0`` and ``math.inf`` for an
    unbounded subset, for m in 1..``MAX_REGION_RECEIVERS``.  Bounds must be
    nonnegative and never NaN, and the bound function monotone and
    submodular (within ``EXACT_TOL``; comparisons with the unbounded flag are
    skipped).  The constructor is the one gate: every region, those of
    :func:`capacity_region` too, is checked here, once, by
    ``_check_polymatroid``, which the ``convergence`` grid calls on its own
    stack of bound vectors.
    """

    def __init__(self, m: int, energy, f):
        self.m = _receiver_count(m)
        self.energy = _energy(energy)
        f = np.array(f, dtype=float)
        if f.shape != (1 << m,) or f[0] != 0.0:
            raise ValueError(f"bound vector needs 2^{m} entries and f[0] = 0")
        _check_polymatroid(f, m)
        self._f = f

    def bound(self, subset) -> float:
        """Bound for a receiver subset; f(empty) = 0."""
        return float(self._f[_mask(_validate_subset(self.m, subset, allow_empty=True))])

    @property
    def unbounded(self) -> bool:
        return bool(np.isinf(self._f).any())


def _energy(energy):
    """``energy`` as a region holds it: ``UNCONSTRAINED``, or a checked photon number."""
    return energy if energy == UNCONSTRAINED else _photon_number(energy)


def _check_polymatroid(f, m: int):
    """Refuse a stack of bound vectors, rows of 2^m masks (or one vector),
    unless each is nonnegative, never NaN, and monotone and submodular
    within ``EXACT_TOL``, the one tolerance of every bound vector.

    Row j of a vector's gains is f(T + j) - f(T) over the T without j, bit j
    dropped (bit k > j of T is bit k - 1 there).  It must be >= -EXACT_TOL, and
    for each k one comparison takes the rows j < k at T and at T + k: no gain
    may grow by more than EXACT_TOL.  NaN stands in for the unbounded flag, so
    every comparison with it is false.  The error is the first failing vector's
    first failure: a NaN or a bound below ``-EXACT_TOL``, then j ascending,
    monotone in j before its pairs (j, k), k ascending.  A gain row holds
    every vector's gains in turn, since a pair (T, T + j) lies within one
    vector, and the rows go in groups of at most ``CHECK_BLOCK`` gains, or
    one row where that is larger.  So the temporaries are a copy of the
    stack, NaN for the flag, and about two groups: at most 3 times the
    stack's bytes plus 4 ``CHECK_BLOCK`` gains, and at most 3 times the
    stack's bytes once a gain row is longer than ``CHECK_BLOCK``.
    """
    f = f.reshape(-1, 1 << m)
    n, half = len(f), 1 << m >> 1
    step = max(1, min(m, CHECK_BLOCK // (n * half)))  # gain rows per group
    gain = np.empty((step, n * half))  # row j: each vector's gains in turn
    # per vector, in the order of the error: [0] a NaN or negative bound,
    # [1 + j m + j] not monotone in j, [1 + j m + k] not submodular in (j, k > j)
    bad = np.zeros((1 + m * m, n), dtype=bool)
    bad[0] = ~(f >= -EXACT_TOL).all(axis=1)
    f = np.where(np.isinf(f), np.nan, f)
    for j0 in range(0, m, step):
        j1 = min(j0 + step, m)
        g = gain[: j1 - j0]
        for j in range(j0, j1):
            pair = f.reshape(-1, 2, 1 << j)
            np.subtract(pair[:, 1], pair[:, 0], out=g[j - j0].reshape(-1, 1 << j))
        bad[1 + j0 * (m + 1) : 1 + j1 * (m + 1) : m + 1] = (
            (g < -EXACT_TOL).reshape(j1 - j0, n, -1).any(axis=2))
        ceiling = g + EXACT_TOL
        for k in range(j0 + 1, m):
            c = min(k, j1) - j0
            shape = (c, -1, 2, 1 << (k - 1))
            grows = g[:c].reshape(shape)[:, :, 1] > ceiling[:c].reshape(shape)[:, :, 0]
            bad[1 + j0 * m + k : 1 + (j0 + c) * m + k : m] = (
                grows.reshape(c, n, -1).any(axis=2))
    if bad.any():
        first = int(bad[:, bad.any(axis=0).argmax()].argmax())  # of the first failing vector
        j, k = divmod(first - 1, m)
        raise ValueError("rate bounds must be nonnegative numbers, never NaN" if first == 0 else
                         f"bound not monotone in receiver {j + 1}" if j == k else
                         f"bound not submodular in receivers {j + 1} and {k + 1}")


def inner_bound_finite(spec: BroadcastChannelSpec, n_s: float, subset) -> float:
    """Achievable rate bound (bits/use) toward subset T at input energy n_s.

    Closed form ``g((1 - eta_comp) n_s) - g((1 - eta_all) n_s)``; equals the
    negated conditional entropy -H(T | A, complement) of the channel output
    (see :func:`inner_bound_finite_gaussian` for that route).
    """
    return _bound(spec, _photon_number(n_s), subset)


def _thermal_entropy(spec: BroadcastChannelSpec, n_s: float, s1: frozenset, s2) -> float:
    """H(S1 | S2) on the thermal arm's outputs (B1..Bm, E), S1 receiver indices
    and S2 output labels."""
    state = channel._thermal_output(spec, n_s)
    return gaussian.conditional_entropy(state, [state.mode_labels[i - 1] for i in s1], s2)


def inner_bound_finite_gaussian(spec: BroadcastChannelSpec, n_s: float, subset) -> float:
    """Same bound via -H(T | A, complement) = H(T | E) on the thermal arm's outputs."""
    return _thermal_entropy(spec, n_s, _validate_subset(spec.m, subset), [channel.ENV_LABEL])


def asymptotic_bound(spec: BroadcastChannelSpec, subset) -> float:
    """Unconstrained-energy bound ``log2((1 - eta_comp)/(1 - eta_all))``.

    This is the infinite-energy limit of :func:`inner_bound_finite`.  When
    the receivers absorb everything (eta_all = 1) the bound is unbounded and
    ``math.inf`` is returned as an in-memory flag (``bbcap region`` writes
    it as ``"unbounded"``, never as a float) -- except for subsets of
    zero-weight receivers, which can never receive anything and get bound 0.
    """
    return _bound(spec, UNCONSTRAINED, subset)


def _bound_rows(spec: BroadcastChannelSpec, energies) -> np.ndarray:
    """The bound vectors of ``spec`` at ``energies``, each ``UNCONSTRAINED`` or
    a photon number, as the rows of one array, in order.

    One set of subset sums serves every row.  The finite rows are one
    ``_closed_form`` over a column of photon numbers: one ``entropy_g`` of all
    their entries, each entry the IEEE operations of the float expression in
    its order, so a row's bits do not depend on the rows beside it.  The
    receiver count and then the energies, in order, are checked before
    anything of size 2^m; the rows themselves are not.
    """
    _receiver_count(spec.m)
    energies = [_energy(e) for e in energies]
    s = _subset_sums(spec.etas)
    # the complement of mask is full ^ mask = full - mask: s reversed
    comp, eta_all = s[::-1], float(s[-1])
    n_s = [e for e in energies if e != UNCONSTRAINED]
    if len(n_s) < len(energies):
        limit = _bounds(UNCONSTRAINED, s, comp, eta_all)
    if n_s:  # one photon number as a float, several as a column: the same bits
        column = n_s[0] if len(n_s) == 1 else np.array(n_s)[:, None]
        finite = iter(_closed_form(column, 1.0 - comp, 1.0 - eta_all).reshape(len(n_s), -1))
    return np.array([limit if e == UNCONSTRAINED else next(finite) for e in energies])


def capacity_region(spec: BroadcastChannelSpec, energy=UNCONSTRAINED) -> CapacityRegion:
    """Full region: the bound of every subset, at finite or unbounded energy
    (the one-row case of ``_bound_rows``)."""
    return CapacityRegion(spec.m, energy, _bound_rows(spec, [energy])[0])


def contains(region: CapacityRegion, point) -> bool:
    """Is a rate point inside the region (componentwise >= 0, all sums met)?"""
    p = np.asarray(point, dtype=float).reshape(-1)
    if p.shape != (region.m,):
        raise ValueError(f"rate point has {p.size} coordinates, region has m = {region.m}")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"rate point must be finite, got {point!r}")
    if np.any(p < -EXACT_TOL):
        return False
    # unbounded entries compare false, so they constrain nothing
    return not np.any(_subset_sums(p) > region._f + EXACT_TOL)


@functools.cache
def _greedy_steps(m: int) -> list:
    """Per greedy level, each row's (parent prefix, cell ``i 2^m + prefix``) as it adds i."""
    bits, masks, steps = 1 << np.arange(m), np.zeros(1, dtype=np.int64), []
    for _ in range(m):
        parent, i = np.nonzero(~masks[:, None] & bits)
        steps.append((parent, i << m | masks[parent]))
        masks = masks[parent] | bits[i]
    return steps


def _vertex_ranks(region: CapacityRegion) -> tuple:
    """The receivers' distinct gains in turn, and ``index``: ``values[index].T`` are the corners."""
    if region.unbounded:
        raise ValueError("region is unbounded; vertices are undefined")
    if region.m > MAX_VERTEX_RECEIVERS:
        raise ValueError(f"vertex enumeration limited to m <= {MAX_VERTEX_RECEIVERS}")
    m, f, rows = region.m, region._f, np.arange(region.m)[:, None]
    # gains[i, S] = f(S + i) - f(S), at least 0.0, which it is where i is in S
    gains = np.maximum(f[np.arange(1 << m) | 1 << rows] - f, 0.0)
    order = np.argsort(gains, axis=1)
    ordered = gains[rows, order]
    new = np.ones(ordered.shape, dtype=bool)
    new[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    index = np.cumsum(new).reshape(m, -1) - 1
    start, rank = index[:, :1], np.empty(index.shape, dtype=np.uint64)
    rank[rows, order] = index - start  # at most 2^(m - 1): m bits each, m^2 <= 64 in all
    shift = np.uint64(m) * np.arange(m - 1, -1, -1, dtype=np.uint64)[:, None]
    code, keys = (rank << shift).ravel(), [np.zeros(1, dtype=np.uint64)]
    for parent, cell in _greedy_steps(m):
        keys.append(keys[-1][parent] + code[cell])
    keys = np.sort(np.concatenate(keys))
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return ordered[new], ((keys >> shift) & np.uint64((1 << m) - 1)).astype(np.intp) + start


def vertices(region: CapacityRegion) -> np.ndarray:
    """All extreme points of the region, as an ``(n, m)`` array in lexicographic row order.

    Greedy corner rule over every ordered subset of receivers, expanded one
    level per receiver from the origin: each prefix grows by each receiver
    not in it, which gets the marginal bound increment.  For a monotone
    submodular bound this is exactly the polymatroid's vertex set (origin and
    axis projections close the down-set).  A corner sorts as one integer, the
    ranks of its coordinates among each receiver's distinct gains, the first
    receiver's highest.  Rank order is float order, and a zero-weight receiver
    joins with an exact 0.0, so equal integers are equal corners, kept once.
    """
    values, index = _vertex_ranks(region)
    return values[index].T.copy()


def boundary_2d(region: CapacityRegion, n_points: int) -> np.ndarray:
    """Upper-right boundary polyline of a two-receiver region.

    Returns at least ``n_points`` rate pairs, as an ``(n, 2)`` array, from
    the r2-axis intercept to the r1-axis intercept, ordered by first
    coordinate, always passing through the corner vertices.
    """
    if region.m != 2:
        raise ValueError(f"boundary_2d needs m = 2, got m = {region.m}")
    if region.unbounded:
        raise ValueError("region is unbounded; boundary is undefined")
    if not _whole(n_points, 2, MAX_BOUNDARY_POINTS):
        raise ValueError(f"need 2..{MAX_BOUNDARY_POINTS} boundary points, got {n_points!r}")
    f1, f2, f12 = region.bound({1}), region.bound({2}), region.bound({1, 2})
    if f12 < f1 + f2 - EXACT_TOL:  # the sum face is a real facet
        path = [(0.0, f2), (f12 - f2, f2), (f1, f12 - f1), (f1, 0.0)]
    else:
        path = [(0.0, f2), (f1, f2), (f1, 0.0)]
    corners = [path[0]]
    for p in path[1:]:
        if max(abs(p[0] - corners[-1][0]), abs(p[1] - corners[-1][1])) > EXACT_TOL:
            corners.append(p)
    lengths = [math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(corners, corners[1:])]
    total = _left_sum(lengths)
    if total == 0.0:  # both receivers weightless; the region is the origin
        return np.tile(corners[0], (n_points, 1))
    extra = max(n_points - len(corners), 0)
    # distribute interior samples across segments by length, remainders first
    shares = [extra * l / total for l in lengths]
    alloc = [int(s) for s in shares]
    for _ in range(extra - sum(alloc)):
        k = max(range(len(lengths)), key=lambda i: shares[i] - alloc[i])
        alloc[k] += 1
    points = []
    for (a, b), k in zip(zip(corners, corners[1:]), alloc):
        frac = np.arange(k + 1)[:, None] / (k + 1)  # the corner a, then k interior samples
        points.append(np.add(a, frac * np.subtract(b, a)))
    return np.concatenate(points + [corners[-1:]])


def _disjoint_subsets(m: int, gained, helpers) -> tuple:
    s1 = _validate_subset(m, gained)
    s2 = _validate_subset(m, helpers, allow_empty=True)
    if s1 & s2:
        raise ValueError(f"subsets overlap: {sorted(s1 & s2)}")
    return s1, s2


def merging_gain(spec: BroadcastChannelSpec, n_s: float, gained, helpers=()) -> float:
    """Entanglement gained when subset S1 merges back, aided by disjoint S2.

    Closed form ``g((1 - eta_S2) n_s) - g((1 - eta_S1uS2) n_s)`` of
    -H(S1 | A, S2); :func:`merging_gain_gaussian` evaluates the same entropy
    on the channel output.  With S2 the complement of S1 it is
    :func:`inner_bound_finite` bit for bit.  Strictly positive whenever
    ``n_s > 0`` and S1 carries positive transmittance, i.e. no merging step
    ever runs at an entanglement deficit.
    """
    s1, s2 = _disjoint_subsets(spec.m, gained, helpers)
    n_s, helper_mask = _photon_number(n_s), _mask(s2)
    return float(_closed_form(
        n_s, 1.0 - _eta(spec, helper_mask), 1.0 - _eta(spec, _mask(s1) | helper_mask)
    ))


def merging_gain_gaussian(spec: BroadcastChannelSpec, n_s: float, gained, helpers=()) -> float:
    """Direct route: -H(S1 | A, S2) = H(S1 | R, E) on the thermal arm's outputs,
    R the receivers outside S1 and S2 (complements of a pure state)."""
    s1, s2 = _disjoint_subsets(spec.m, gained, helpers)
    used = s1 | s2
    rest = [label for i, label in enumerate(channel.output_labels(spec), 1) if i not in used]
    return _thermal_entropy(spec, n_s, s1, rest)

