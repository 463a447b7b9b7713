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
E) on the split of a thermal arm.  At m <= 12 and n_s in [1e-2, 1e8] the
two agree within 1e-12 (at most 7.6e-15 over 15,600 seeded cases): each is
a difference of entropies of at most about g(n_s), each within a few ulp.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from operator import add, sub

import numpy as np

from . import channel, gaussian
from .channel import BroadcastChannelSpec
from .gaussian import _libm, _photon_number, entropy_g

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
    "region_to_dict",
    "region_from_dict",
]

UNCONSTRAINED = "unconstrained"
EXACT_TOL = 1e-12      # closed-form arithmetic
VERTEX_DEDUPE_TOL = 1e-10
MAX_REGION_RECEIVERS = 20   # 2^m constraints
MAX_VERTEX_RECEIVERS = 8
MAX_BOUNDARY_POINTS = 100_000  # about the vertex count at MAX_VERTEX_RECEIVERS


def _receiver_count(m) -> int:
    """``m`` as an int, refused before anything of size 2^m is allocated
    unless it is a whole number of receivers in range."""
    if not (isinstance(m, numbers.Integral) and 1 <= m <= MAX_REGION_RECEIVERS):
        raise ValueError(f"receiver count m must be in 1..{MAX_REGION_RECEIVERS}, got {m!r}")
    return int(m)


def _validate_subset(m: int, subset, allow_empty=False) -> frozenset:
    """``subset`` as a frozenset of ints, each a whole receiver index in 1..m."""
    t = frozenset(subset)
    if not t and not allow_empty:
        raise ValueError("receiver subset must be nonempty")
    if all(type(i) is int and 1 <= i <= m for i in t):  # plain ints: no ABC check
        return t
    if not all(isinstance(i, numbers.Integral) and 1 <= i <= m for i in t):
        raise ValueError(f"subset {sorted(t, key=repr)} outside receivers 1..{m}")
    return frozenset(map(int, t))


def _mask(t: frozenset) -> int:
    return sum(1 << (i - 1) for i in t)


def _ordered_subsets(m: int):
    """(receivers, mask) of every nonempty subset, smallest first, lexicographic.

    The receivers come as a tuple of 1..m.
    """
    bits = [1 << i for i in range(m)]
    for size in range(1, m + 1):
        yield from zip(
            itertools.combinations(range(1, m + 1), size),
            map(sum, itertools.combinations(bits, size)),
        )


def nonempty_subsets(m: int):
    """All 2^m - 1 nonempty receiver subsets, smallest first, lexicographic."""
    for t, _ in _ordered_subsets(m):
        yield frozenset(t)


def _subset_sums(values) -> np.ndarray:
    """``s[mask]``: the sum of ``values[i]`` over the bits i of ``mask``."""
    s = np.zeros(1 << len(values))
    for i, x in enumerate(values):
        s[1 << i : 2 << i] = s[: 1 << i] + x
    return s


def _eta(spec: BroadcastChannelSpec, mask: int) -> float:
    """eta summed over the receivers of ``mask``: one entry of ``_subset_sums(spec.etas)``."""
    return functools.reduce(add, (e for i, e in enumerate(spec.etas) if mask >> i & 1), 0.0)


def _closed_form(n_s, kept, kept_joint):
    """-H(S1 | A, S2) = ``g(kept n_s) - g(kept_joint n_s)``, ``kept`` a float or an array.

    ``kept = 1 - eta(S2)`` and ``kept_joint = 1 - eta(S1 u S2)``, each eta a
    subset sum in ascending receiver order, so every caller agrees bit for bit.
    """
    n_s = _photon_number(n_s)
    # a kept share below 0 is a rounded 0
    return entropy_g(np.maximum(kept, 0.0) * n_s) - entropy_g(max(kept_joint, 0.0) * n_s)


def _bounds(energy, eta_t, eta_comp, eta_all: float):
    """f(T) from the sums of T and of its complement: floats, or arrays over subsets."""
    if energy != UNCONSTRAINED:
        return _closed_form(energy, 1.0 - eta_comp, 1.0 - eta_all)
    if eta_all >= 1.0 - EXACT_TOL:  # no environment: the unbounded flag
        return np.where(eta_t <= EXACT_TOL, 0.0, math.inf)
    return _libm(math.log2, (1.0 - eta_comp) / (1.0 - eta_all))


def _bound(spec: BroadcastChannelSpec, energy, subset) -> float:
    full = (1 << spec.m) - 1
    mask = _mask(_validate_subset(spec.m, subset))
    return float(_bounds(energy, _eta(spec, mask), _eta(spec, full ^ mask), _eta(spec, full)))


class CapacityRegion:
    """Polymatroid rate region, held as one bound vector over receiver subsets.

    ``energy`` is either the string ``"unconstrained"`` or the finite input
    photon number the inner bound was evaluated at.  ``f`` is the bound
    vector: ``f[mask]`` over all 2^m subsets, receiver i at bit i - 1,
    ``f[0] = 0`` and ``math.inf`` for an unbounded subset, for m in
    1..``MAX_REGION_RECEIVERS``.  Monotonicity and submodularity of the
    bound function are checked at every m (within ``check_tol``;
    comparisons that involve the unbounded flag are skipped).
    """

    def __init__(self, m: int, energy, f, check_tol: float = EXACT_TOL):
        self.m, self.energy, self.check_tol = _receiver_count(m), energy, check_tol
        f = np.array(f, dtype=float)
        if f.shape != (1 << m,) or f[0] != 0.0:
            raise ValueError(f"bound vector needs 2^{m} entries and f[0] = 0")
        if np.any(np.isnan(f) | (f < -EXACT_TOL)):
            raise ValueError("rate bounds must be nonnegative numbers, never NaN")
        self._f = f
        self._check_polymatroid()

    def bound(self, subset) -> float:
        """Bound for a receiver subset; f(empty) = 0."""
        return float(self._f[_mask(_validate_subset(self.m, subset, allow_empty=True))])

    @property
    def unbounded(self) -> bool:
        return bool(np.isinf(self._f).any())

    def _check_polymatroid(self):
        # the gain f(T + j) - f(T) over every T without j must be >= 0 and
        # must not grow when k joins T; NaN stands in for the unbounded
        # flag, so every comparison that involves it is false
        f, tol = np.where(np.isinf(self._f), np.nan, self._f), self.check_tol
        for j in range(self.m):
            pair = f.reshape(-1, 2, 1 << j)
            gain = (pair[:, 1] - pair[:, 0]).ravel()  # T with bit j dropped
            if (gain < -tol).any():
                raise ValueError(f"bound not monotone in receiver {j + 1}")
            for k in range(j + 1, self.m):
                pair = gain.reshape(-1, 2, 1 << (k - 1))  # bit k of T is bit k - 1 here
                if (pair[:, 1] > pair[:, 0] + tol).any():
                    raise ValueError(f"bound not submodular in receivers {j + 1} and {k + 1}")


def inner_bound_finite(spec: BroadcastChannelSpec, n_s: float, subset) -> float:
    """Achievable rate bound (bits/use) toward subset T at input energy n_s.

    Closed form ``g((1 - eta_comp) n_s) - g((1 - eta_all) n_s)``; equals the
    negated conditional entropy -H(T | A, complement) of the channel output
    (see :func:`inner_bound_finite_gaussian` for that route).
    """
    return _bound(spec, _photon_number(n_s), subset)


def inner_bound_finite_gaussian(
    spec: BroadcastChannelSpec, n_s: float, subset, ordering=None
) -> float:
    """Same bound via -H(T | A, complement) = H(T | E) on the thermal arm's outputs."""
    t = _validate_subset(spec.m, subset)
    state = channel._thermal_output(spec, n_s, ordering)  # modes B1..Bm, E
    labels = [state.mode_labels[i - 1] for i in t]
    return gaussian.conditional_entropy(state, labels, [channel.ENV_LABEL])


def asymptotic_bound(spec: BroadcastChannelSpec, subset) -> float:
    """Unconstrained-energy bound ``log2((1 - eta_comp)/(1 - eta_all))``.

    This is the infinite-energy limit of :func:`inner_bound_finite`.  When
    the receivers absorb everything (eta_all = 1) the bound is unbounded and
    ``math.inf`` is returned as an in-memory flag (never serialized as a
    float; see :func:`region_to_dict`) -- except for subsets of zero-weight
    receivers, which can never receive anything and get bound 0.
    """
    return _bound(spec, UNCONSTRAINED, subset)


def capacity_region(spec: BroadcastChannelSpec, energy=UNCONSTRAINED) -> CapacityRegion:
    """Full region: the bound of every subset, at finite or unbounded energy."""
    _receiver_count(spec.m)
    if energy != UNCONSTRAINED:
        energy = _photon_number(energy)
    s = _subset_sums(spec.etas)
    # the complement of mask is full ^ mask = full - mask: s reversed
    f = _bounds(energy, s, s[::-1], float(s[-1]))
    return CapacityRegion(spec.m, energy, f)


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


def vertices(region: CapacityRegion) -> np.ndarray:
    """All extreme points of the region, as an ``(n, m)`` array in lexicographic row order.

    Greedy corner rule over every ordered subset of receivers, expanded one
    level per receiver from the origin: each prefix grows by each receiver
    not in it, which gets the marginal bound increment.  For a monotone
    submodular bound this is exactly the polymatroid's vertex set (origin and
    axis projections close the down-set).  A row within ``VERTEX_DEDUPE_TOL``
    of the last row kept is dropped.
    """
    if region.unbounded:
        raise ValueError("region is unbounded; vertices are undefined")
    if region.m > MAX_VERTEX_RECEIVERS:
        raise ValueError(f"vertex enumeration limited to m <= {MAX_VERTEX_RECEIVERS}")
    f, bits = region._f, 1 << np.arange(region.m)
    masks, levels = np.zeros(1, dtype=np.int64), [np.zeros((1, region.m))]
    for _ in bits:
        parent, i = np.nonzero(~masks[:, None] & bits)  # each receiver not yet in the prefix
        prefix, masks = masks[parent], masks[parent] | bits[i]
        levels.append(levels[-1][parent])
        levels[-1][np.arange(len(i)), i] = np.maximum(f[masks] - f[prefix], 0.0)
    pts = np.concatenate(levels)
    pts = pts[np.lexsort(pts.T[::-1])]  # the order of Python's tuple sort
    gap = np.abs(pts[1:] - pts[:-1]).max(axis=1)
    new = np.flatnonzero(gap)  # rows that differ from the one before; exact duplicates go
    pts, gap = np.concatenate((pts[:1], pts[new + 1])), gap[new]
    ties = np.flatnonzero(gap <= VERTEX_DEDUPE_TOL)
    if ties.size:  # near ties: compare with the last row kept
        pts = pts[_near_tie_keep(pts, np.append(gap, math.inf), ties)]
    return pts


def _near_tie_keep(pts: np.ndarray, gaps: np.ndarray, ties: np.ndarray) -> np.ndarray:
    """The rows a walk keeps that drops each row within ``VERTEX_DEDUPE_TOL``
    of the last row kept; ``gaps[k]`` is the distance of row k + 1 from row k.

    The ties are the rows k with ``gaps[k]`` within the tolerance.  A row one
    wide gap after a kept row is kept, so the walk starts at a tie that
    follows a kept row, and ends once a kept row is followed by a wide gap:
    the rows outside such stretches are kept without a walk.
    """
    tol, keep, k = VERTEX_DEDUPE_TOL, np.ones(len(pts), dtype=bool), 0
    for s in ties.tolist():
        if s < k:
            continue  # walked already
        last = pts[s].tolist()
        for k in range(s + 1, len(pts)):
            row = pts[k].tolist()
            if max(map(abs, map(sub, row, last))) <= tol:
                keep[k] = False
            elif gaps[k] > tol:  # k is kept, and so is the row after it
                break
            else:
                last = row
    return keep


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
    if not 2 <= n_points <= MAX_BOUNDARY_POINTS:
        raise ValueError(f"need 2..{MAX_BOUNDARY_POINTS} boundary points, got {n_points}")
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
    total = sum(lengths)
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
    helper_mask = _mask(s2)
    return float(_closed_form(
        n_s, 1.0 - _eta(spec, helper_mask), 1.0 - _eta(spec, _mask(s1) | helper_mask)
    ))


def merging_gain_gaussian(
    spec: BroadcastChannelSpec, n_s: float, gained, helpers=(), ordering=None
) -> float:
    """Direct route: -H(S1 | A, S2) = H(S1 | R, E) on the thermal arm's outputs,
    R the receivers outside S1 and S2 (complements of a pure state)."""
    s1, s2 = _disjoint_subsets(spec.m, gained, helpers)
    state = channel._thermal_output(spec, n_s, ordering)  # modes B1..Bm, E
    used = s1 | s2
    rest = [label for i, label in enumerate(state.mode_labels, 1) if i not in used]
    return gaussian.conditional_entropy(state, [state.mode_labels[i - 1] for i in s1], rest)


def region_to_dict(region: CapacityRegion, round_to=None) -> dict:
    """JSON-ready form; unbounded constraints carry a flag, never a float inf."""
    fmt = float if round_to is None else lambda x: float(f"{x:.{round_to}g}")
    f = region._f.tolist()
    constraints = []
    for subset, mask in _ordered_subsets(region.m):
        bound = {"unbounded": True} if math.isinf(f[mask]) else {"bound_bits": fmt(f[mask])}
        constraints.append({"subset": list(subset), **bound})
    energy = region.energy if region.energy == UNCONSTRAINED else fmt(region.energy)
    return {"m": region.m, "energy": energy, "constraints": constraints}


def region_from_dict(data: dict) -> CapacityRegion:
    """Rebuild a region from its JSON form (rounded bounds get a looser check)."""
    m = _receiver_count(data["m"])
    energy = data["energy"]
    if energy != UNCONSTRAINED:
        energy = _photon_number(energy)
    entries = data["constraints"]
    masks = [_mask(_validate_subset(m, entry["subset"])) for entry in entries]
    if sorted(masks) != list(range(1, 1 << m)):
        raise ValueError(f"need one constraint per nonempty subset of 1..{m}")
    f = np.zeros(1 << m)
    f[masks] = [
        math.inf if entry.get("unbounded") else float(entry["bound_bits"]) for entry in entries
    ]
    return CapacityRegion(m, energy, f, check_tol=1e-6)
