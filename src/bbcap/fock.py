"""Brute-force verification path in a truncated number basis.

The number-basis states are built without the covariance-matrix
formalism: a state is an explicit amplitude table, an int array with one
row of photon numbers per basis state and a float array of their real
amplitudes; beam splitters act by binomial amplitude splitting against a
vacuum port; and entropies come from the spectra of reduced states.
Verification then holds them against the other two routes: the closed
forms of :mod:`bbcap.region`, and the Gaussian entropies of the thermal
arm's covariance output (``channel._thermal_output``).
Truncation is accounted for exactly: a squeezed-vacuum source truncated at
total photon number M drops tail mass ``(n_s / (n_s + 1))**(M + 1)``, and
verification refuses to run (raising :class:`InconclusiveVerificationError`,
not failing) when a budget of ``_budget`` cannot be met.  Only vacuum-fed
splitters are implemented, which is all the channel model needs.

Verification builds the channel output one sender-photon sector k at a
time, once the whole table would hold more than ``RUN_ENTRIES`` entries;
joined, the sectors are the whole table bit for bit.  A keep set is a
receiver mask, receiver i at bit i - 1 as in :mod:`bbcap.region`, and the
block weights of all 2^m keep sets are the rows of one array.  Keeping A
and the receivers R, the entry <k, n_R; n_traced> lies in the block of
traced photon count t = k - |n_R|.  Each block is rank one, so its one
eigenvalue is its squared norm.  Rank one is certified, not assumed: the
output's amplitude on (k; n_1..n_m, n_E) is C_k sqrt(k! / prod n_i!) prod
phi_i(n_i), which makes every block of every reduction an outer product,
so one streamed check of this product form, its factors read from the
table's own entries, covers all 2^m reductions.  The table is read once:
rows 0 and ``full``, its sums of squares, carry the norm check, purity and
the case keeping A alone, and the others come from the factors, which are
the table's, never eta's or n_s's, so the route stays independent.
Keeping A and one receiver Bj, the traced modes' collective mode takes the
share 1 - eta_j, so block t's weight is a Schmidt coefficient, checked
against entry t of ``_thermal_weights((1 - eta_j) * n_s, ...)``.
:func:`split_with_vacuum` and :func:`reduce_density`, the general partial
trace into Schmidt factors, are on no program path: they build and reduce
the whole output, the plain reference for the streamed blocks.

:func:`verify_conditional_entropies` returns the record ``bbcap verify``
prints, a plain dict, with its single pass verdict.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import channel as _channel
from . import gaussian as _gaussian
from . import region as _region
from .channel import BroadcastChannelSpec

__all__ = [
    "FockState",
    "DensityMatrix",
    "InconclusiveVerificationError",
    "tail_mass",
    "cutoff_for_tail",
    "tmsv_fock",
    "split_with_vacuum",
    "reduce_density",
    "verify_conditional_entropies",
]

TAIL_BUDGET = 1e-10
ENTROPY_TOL = 1e-6     # three-route agreement of each verified entropy (bits)
SCHMIDT_TOL = 1e-8     # per-eigenvalue deviation of a Schmidt spectrum
MAX_CUTOFF = 60
MAX_DENSE_BYTES = 2**30
RUN_ENTRIES = 2**16    # larger tables are built one sender-photon sector at a time
PRODUCT_FLOOR = 2.0**-500  # absolute slack of the product check, for underflowed weights
# tracemalloc peak per entry of the largest run, built and read: at most 199 at m = 4 and
# 375 at m = 12 above 20,000; _budget floors the run at 64 and adds the keep-set weights
SECTOR_ENTRY_BYTES = 384
# sqrt(n!), n <= MAX_CUTOFF, each correctly rounded from within 2^-100 of it
_ROOT_FACTORIALS = np.array([math.isqrt(math.factorial(n) << 200) / 2**100
                             for n in range(MAX_CUTOFF + 1)])


class InconclusiveVerificationError(RuntimeError):
    """A budget cannot be met; the check is inconclusive, not failed."""


def _thermal_weights(nbar: float, ns) -> list:
    """Photon-number distribution of a thermal state, nbar^n / (nbar+1)^(n+1),
    at each n in ``ns``, with ``nbar`` checked once."""
    nbar = _gaussian._photon_number(nbar)
    if nbar == 0:
        return [1.0 if n == 0 else 0.0 for n in ns]
    r = nbar / (nbar + 1.0)
    return [r**n / (nbar + 1.0) for n in ns]


def tail_mass(n_s: float, cutoff: int) -> float:
    """Probability mass beyond total photon number ``cutoff`` in a TMSV."""
    n_s = _gaussian._photon_number(n_s)
    cutoff = _count(cutoff, "cutoff")
    if n_s == 0:
        return 0.0
    return (n_s / (n_s + 1.0)) ** (cutoff + 1)


def _count(n, name: str) -> int:
    """``n`` as an int, refused unless a whole number of at least 0."""
    if not _region._whole(n, 0, math.inf):
        raise ValueError(f"{name} must be nonnegative and a whole number, got {n!r}")
    return int(n)


def cutoff_for_tail(n_s: float) -> int:
    """Smallest cutoff whose tail mass is below ``TAIL_BUDGET`` (refuses above 60)."""
    value = _gaussian._photon_number(n_s)
    r = value / (value + 1.0)  # tail_mass(n_s, m) is r ** (m + 1), 0 at n_s = 0
    for m in range(MAX_CUTOFF + 1):
        if r ** (m + 1) < TAIL_BUDGET:
            return m
    raise InconclusiveVerificationError(
        f"n_s = {n_s!r} needs a cutoff above {MAX_CUTOFF} for tail < {TAIL_BUDGET:g}"
    )


@dataclass
class FockState:
    """Pure state as a sparse table of real amplitudes.

    Row i of ``occupations`` (entries x modes, int64) holds the photon
    numbers of one basis state, one column per mode in ``mode_labels``
    order, and ``amplitudes[i]`` its amplitude.  Rows must be distinct:
    :func:`reduce_density` refuses a table whose rows repeat, and each row
    the beam splitter makes is one split of one row.  The beam splitter and
    the partial trace read both arrays, so the table is not to be changed
    after construction.  Verification streams the channel output as bare
    arrays; only its TMSV source is a ``FockState``.
    """

    mode_labels: tuple
    occupations: np.ndarray
    amplitudes: np.ndarray
    cutoff: int

    def __post_init__(self):
        self.mode_labels = tuple(self.mode_labels)
        if len(set(self.mode_labels)) != len(self.mode_labels):
            raise ValueError(f"duplicate mode labels: {self.mode_labels}")
        occ = np.asarray(self.occupations)
        if occ.ndim != 2 or occ.shape[1] != len(self.mode_labels):
            raise ValueError(
                f"occupations need shape (entries, {len(self.mode_labels)}), got {occ.shape}"
            )
        if not np.issubdtype(occ.dtype, np.integer):
            raise ValueError(f"occupations must be integers, got dtype {occ.dtype}")
        if (occ < 0).any():
            raise ValueError("occupations must be nonnegative")
        amp = np.asarray(self.amplitudes, dtype=float)
        if amp.shape != (len(occ),):
            raise ValueError(f"{len(occ)} occupation rows but amplitudes of shape {amp.shape}")
        self.occupations, self.amplitudes = occ.astype(np.int64, copy=False), amp

    @property
    def norm_sq(self) -> float:
        return float(self.amplitudes @ self.amplitudes)

    def index(self, label) -> int:
        try:
            return self.mode_labels.index(label)
        except ValueError:
            raise ValueError(f"unknown mode label {label!r}") from None


def tmsv_fock(n_s: float, cutoff: int) -> FockState:
    """Two-mode squeezed vacuum on (A, A') truncated at total photon number ``cutoff``.

    Amplitudes are sqrt(w[k]) on |k, k>, ``w = _thermal_weights(n_s, range(cutoff + 1))``;
    the dropped norm equals ``tail_mass(n_s, cutoff)`` exactly.
    """
    cutoff = _count(cutoff, "cutoff")
    w = np.array(_thermal_weights(n_s, range(cutoff + 1)))
    k = np.flatnonzero(w > 0.0)
    return FockState(("A", "A'"), np.stack([k, k], axis=1), np.sqrt(w[k]), cutoff)


def split_with_vacuum(state: FockState, source_mode, eta: float, new_label) -> FockState:
    """Mix one mode with a fresh vacuum port on a beam splitter.

    The source keeps a transmitted share eta; the new mode (appended last)
    takes the rest, with binomial amplitudes
    ``sqrt(C(n, k) eta^k (1 - eta)^(n - k))`` on |k>_src |n-k>_new.
    Norm and total photon number are conserved exactly.
    """
    if not -_channel.ETA_TOL <= eta <= 1.0 + _channel.ETA_TOL:
        raise ValueError(f"transmittance must lie in [0, 1], got {eta!r}")
    eta = min(max(eta, 0.0), 1.0)
    if new_label in state.mode_labels:
        raise ValueError(f"label {new_label!r} already in use")
    src = state.index(source_mode)
    n = state.occupations[:, src]
    w = _binomial_weights(eta, int(n.max()) + 1 if n.size else 0)
    occ, amps = _split_rows(state.occupations, state.amplitudes, src, w)
    return FockState(state.mode_labels + (new_label,), occ, amps, state.cutoff)


def _binomial_weights(eta: float, top: int) -> np.ndarray:
    """Entry n(n+1)/2 + k, for n < top, holds the weight of |k>_src |n-k>_new,
    ``C(n, k) * eta**k * (1 - eta)**(n - k)`` from scalar powers and in that
    order, so that every amplitude keeps its last bit."""
    comb, n, k = (a[: top * (top + 1) // 2] for a in _pascal(max(top, MAX_CUTOFF + 1)))
    kept = np.array([eta**i for i in range(top)], dtype=float)
    lost = np.array([(1.0 - eta) ** i for i in range(top)], dtype=float)
    return comb * kept[k] * lost[n - k]


@functools.lru_cache(maxsize=4)
def _pascal(top: int) -> tuple:
    """C(n, k) as floats, n and k, for the entries n(n+1)/2 + k, n < top; the
    rows below any top are a prefix.  Shared between calls: read only."""
    n = np.repeat(np.arange(top), np.arange(1, top + 1))
    k = np.arange(n.size) - n * (n + 1) // 2
    return np.array([float(math.comb(a, b)) for a, b in zip(n.tolist(), k.tolist())]), n, k


def _split_rows(occ: np.ndarray, amps: np.ndarray, src: int, w: np.ndarray) -> tuple:
    """The table after column ``src`` splits against vacuum with weights ``w``
    (:func:`_binomial_weights`); the new mode is the last column."""
    n = occ[:, src]
    row = np.repeat(np.arange(n.size), n + 1)
    k = np.arange(row.size) - (np.cumsum(n + 1) - (n + 1))[row]  # 0..n for each row
    entry = n[row] * (n[row] + 1) // 2 + k
    nonzero = w[entry] != 0.0
    row, k, entry = row[nonzero], k[nonzero], entry[nonzero]
    out = np.concatenate([occ[row], (n[row] - k)[:, None]], axis=1)
    out[:, src] = k
    return out, amps[row] * np.sqrt(w[entry])


@dataclass
class DensityMatrix:
    """Reduced density operator of a pure state, stored block by block as
    Schmidt factors.

    ``blocks`` is a tuple of ``(basis, factor)`` pairs: ``basis`` is a
    (d x kept modes) int array whose rows are the occupations spanning the
    block and ``factor`` is the block's ``d x r`` amplitude matrix M against
    the r traced configurations that meet it, so that the block is M Mᵀ.
    Blocks are the orthogonality sectors discovered during the partial trace
    (photon-number sectors, for the states built here); :func:`reduce_density`
    sorts each basis's rows lexicographically and the blocks by their first
    row.  The trace may fall short of 1 by the recorded truncation deficit.
    """

    mode_labels: tuple
    blocks: tuple
    cutoff: int

    def __post_init__(self):
        self.mode_labels = tuple(self.mode_labels)
        self.blocks = tuple(self.blocks)
        for basis, fac in self.blocks:
            if fac.ndim != 2 or fac.shape[0] != len(basis):
                raise ValueError("block factor does not match its basis size")
        if self.trace > 1.0 + 1e-9:
            raise ValueError(f"trace {self.trace!r} exceeds 1")

    @property
    def trace(self) -> float:
        return float(sum(np.vdot(fac, fac) for _, fac in self.blocks))

    def eigenvalues(self) -> np.ndarray:
        """The nonzero spectrum of every block, descending: the squared
        singular values of its factor (its Schmidt coefficients)."""
        if not self.blocks:
            return np.zeros(0)
        vals = np.concatenate([np.linalg.svd(fac, compute_uv=False) for _, fac in self.blocks])
        return np.sort(vals**2)[::-1]


def reduce_density(state: FockState, keep) -> DensityMatrix:
    """Partial trace onto the modes in ``keep`` (result modes in that order).

    Kept configurations that never share a traced configuration have no
    coherence, so the result is assembled block by block over the connected
    components of the graph joining each kept configuration to the traced
    configurations it meets, found by label propagation.  Each block's basis
    holds its kept configurations as rows in lexicographic order, its
    factor's columns list its traced configurations in the same order, and
    blocks come in the order of their first row.  Every table entry is one
    element of one factor, copied, never summed.

    Raises ``ValueError`` when two rows of the table are the same occupation
    (they would land on one factor element).
    """
    keep = tuple(keep)
    if not keep:
        raise ValueError("must keep at least one mode")
    kept_pos = [state.index(lab) for lab in keep]
    traced_pos = [i for i in range(len(state.mode_labels)) if i not in kept_pos]
    occ = state.occupations
    # lexicographic ids; the inverse's shape differs across numpy 2.0.x
    kept, kid = np.unique(occ[:, kept_pos], axis=0, return_inverse=True)
    traced, gid = np.unique(occ[:, traced_pos], axis=0, return_inverse=True)
    kid, gid = kid.reshape(-1), gid.reshape(-1)
    if np.unique(kid * len(traced) + gid).size < kid.size:
        raise ValueError("occupation rows repeat: the table is not one amplitude per basis state")

    # each kept configuration ends labelled with the smallest id in its component
    label = np.arange(len(kept))
    while True:
        glabel = np.full(len(traced), len(kept))
        np.minimum.at(glabel, gid, label[kid])
        new = label.copy()
        np.minimum.at(new, kid, glabel[gid])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    # the block of each entry, numbered in the order of the blocks' first rows
    _, comp = np.unique(label[kid], return_inverse=True)
    blocks = []
    # split at the end of every block; the piece after the last end is empty
    for entries in np.split(np.argsort(comp), np.cumsum(np.bincount(comp)))[:-1]:
        rows, r = np.unique(kid[entries], return_inverse=True)
        cols, c = np.unique(gid[entries], return_inverse=True)
        factor = np.zeros((rows.size, cols.size))
        factor[r, c] = state.amplitudes[entries]
        blocks.append((kept[rows], factor))
    return DensityMatrix(keep, blocks, state.cutoff)


def _shannon_bits(p: np.ndarray) -> float:
    p = p[p != 0.0]  # a NaN weight stays, and makes the entropy NaN
    return float(-(p * np.log2(p)).sum())


def _photon_weights(n_s: float, cutoff: int, eta: float) -> np.ndarray:
    """Photon-number distribution of the share ``eta`` of a TMSV arm
    truncated at ``cutoff``: sum over n <= cutoff of
    ``_thermal_weights(n_s, ...)[n] * C(n, k) eta^k (1 - eta)^(n - k)``, each bin
    added up in ascending n."""
    top = cutoff + 1
    comb, n, k = (a[: top * (top + 1) // 2] for a in _pascal(max(top, MAX_CUTOFF + 1)))
    w = np.array(_thermal_weights(n_s, range(top)))
    kept = np.array([eta**i for i in range(top)], dtype=float)
    lost = np.array([(1 - eta) ** i for i in range(top)], dtype=float)
    return np.bincount(k, w[n] * comb * kept[k] * lost[n - k], top)


def _sector_runs(spec: BroadcastChannelSpec, n_s: float, cutoff: int, ordering=None):
    """The channel output, modes (A, B1, ..., Bm, E), as (occupations,
    amplitudes) pairs: the whole table, or one sender-photon sector at a time
    when the table holds more than ``RUN_ENTRIES`` entries."""
    net = _channel.build_network(spec, ordering)
    source = tmsv_fock(n_s, cutoff)
    # each stage's weights once, to the cutoff: split_with_vacuum's amplitudes, bit for bit
    weights = [_binomial_weights(stage.transmittance, cutoff + 1) for stage in net.stages]
    built = ("A", net.final_label) + tuple(stage.output for stage in net.stages)
    perm = [built.index(lab) for lab in ("A",) + _channel.output_labels(spec)]
    rows = len(source.amplitudes)
    whole, _ = _largest_run(spec.m, cutoff)
    for lo, hi in [(0, rows)] if whole else [(i, i + 1) for i in range(rows)]:
        occ, amps = source.occupations[lo:hi], source.amplitudes[lo:hi]
        for w in weights:
            occ, amps = _split_rows(occ, amps, 1, w)
        yield occ[:, perm], amps


def _largest_run(m: int, cutoff: int) -> tuple:
    """Is the table built whole, and the entries of its largest run: the whole
    table up to ``RUN_ENTRIES`` entries, else its largest sender-photon sector."""
    table = math.comb(cutoff + m + 1, m + 1)
    return (True, table) if table <= RUN_ENTRIES else (False, math.comb(cutoff + m, m))


def _budget(m: int, n_s: float, cutoff) -> tuple:
    """The cutoff and tail mass of a verification; before any sector is built,
    :class:`InconclusiveVerificationError` for the first budget broken: cutoff,
    tail mass, then memory: ``SECTOR_ENTRY_BYTES`` per entry of the largest run,
    of at least 64, and 8 (cutoff + 6) bytes per keep-set weight (the rows, their
    convolutions and temporaries).  The table is read once: no work budget."""
    cutoff = cutoff_for_tail(n_s) if cutoff is None else _count(cutoff, "cutoff")
    if cutoff > MAX_CUTOFF:
        raise InconclusiveVerificationError(f"cutoff {cutoff} exceeds the supported maximum "
                                            f"{MAX_CUTOFF}")
    tail = tail_mass(n_s, cutoff)
    if tail >= TAIL_BUDGET:
        raise InconclusiveVerificationError(f"tail mass {tail:.3e} at cutoff {cutoff} breaches "
                                            f"the {TAIL_BUDGET:g} budget for n_s = {n_s!r}")
    _, run = _largest_run(m, cutoff)
    need = max(run, 64) * SECTOR_ENTRY_BYTES + 8 * (cutoff + 6) * ((cutoff + 1) << m)
    if need > MAX_DENSE_BYTES:
        raise InconclusiveVerificationError(f"the largest run of sectors at cutoff {cutoff} holds "
                                            f"{run} entries: {need} bytes, above the budget of "
                                            f"{MAX_DENSE_BYTES} bytes")
    return cutoff, tail


def _block_spectra(runs, m: int, cutoff: int) -> tuple:
    """``(weights, certified)``: ``weights[mask, t]`` is the squared norm of the block
    of traced photon count t of the reduction onto A and the receivers of ``mask``
    (receiver i at bit i - 1), the block's one eigenvalue if it is rank one.

    Rows 0 and ``full`` sum the squares.  The factors F_0 (of k) and F_j (of n_j,
    j = 1..m + 1, E last), read from the single-mode entries, give the others:
    row R at t is q[traced](t) sum_s q[R](s) F_0(s + t)^2 (s + t <= cutoff), q[mask]
    the rows F_j^2 convolved over the modes of an (m + 1)-bit mask (E at bit m).
    ``certified``, the verdict the reductions keeping 1..m-1 receivers need,
    holds when each entry lies within ``bound |a| + PRODUCT_FLOOR`` of its
    factors' product and row 0 within ``norm_bound`` of q[-1] F_0^2 (no weight
    is missing); then every row lies within a bound of that form (CHANGES.md).
    True at m = 1, where both rows are sums.
    """
    read, singles, certified = np.zeros((2, cutoff + 1)), np.zeros((m + 1, cutoff + 1)), True
    root, eps = _ROOT_FACTORIALS[: cutoff + 1], np.finfo(float).eps
    bound = (1.5 * m * m + 8 * m + 3) * eps
    for occ, amps in runs:
        cols, sq = np.ascontiguousarray(occ.T), amps * amps
        # squares in chunks of 64 entries, then pairwise, by traced count k (row 0), n_E (full)
        chunk, bins = np.arange(sq.size) // 64 * (cutoff + 1), (sq.size // 64 + 1) * (cutoff + 1)
        for row, t in zip(read, (cols[0], cols[m + 1])):
            row += np.bincount(t + chunk, sq, bins).reshape(-1, cutoff + 1).T.copy().sum(1)
        if m == 1:
            continue
        for j in range(1, m + 2):  # a(n; n e_j) comes with sector n, before any entry uses it
            at = np.flatnonzero(cols[j] == cols[0])
            singles[j - 1, cols[0][at]] = amps[at]
        # rows C_k sqrt(k!), C_k = a(k; k e_b), and phi_j(n) / sqrt(n!),
        # phi_j(n) = a(n; n e_j) / a(n; n e_b), b the mode of the largest
        # one-photon entry; a factor over a zero entry is 0
        base = singles[np.argmax(np.abs(singles[:, min(1, cutoff)]))]
        phi = np.divide(singles, base, out=np.zeros_like(singles), where=base != 0.0)
        factors = np.vstack([base * root, phi / root])
        if certified:
            err = factors[0].take(cols[0])
            for j in range(1, m + 2):
                err *= factors[j].take(cols[j])
            err -= amps
            # written as all(err <= bound), so that a NaN fails
            certified = bool(np.all(np.abs(err, out=err) <= bound * np.abs(amps) + PRODUCT_FLOOR))
    if m == 1:
        return read, True
    # the last run's factors, the table's, squared and 0 past the cutoff; no BLAS, fixed order
    sq, k = np.hstack([factors * factors, np.zeros((m + 2, cutoff))]), np.arange(cutoff + 1)
    rows = sq[:, (k - k[:, None]) % (2 * cutoff + 1)]  # rows[j, s, t] = F_j(t - s)^2, 0 at t < s
    q = np.zeros((2 << m, cutoff + 1))
    q[0, 0] = 1.0
    for b in range(m + 1):
        np.add.reduce(q[: 1 << b, :, None] * rows[b + 1], axis=1, out=q[1 << b : 2 << b])
    got, norms = read[0], q[-1] * sq[0, : cutoff + 1]
    norm_bound = 2 * bound + ((m + 2) * (cutoff + 2) + 100) * eps / 2
    slack = 3 * PRODUCT_FLOOR * math.comb(cutoff + m, m)  # entries of the largest sector
    certified &= bool(np.all(np.abs(got - norms) <= norm_bound * np.maximum(got, norms) + slack))
    # q[traced] is q[(2 << m) - 1 - R], and h[s, t] = F_0(s + t)^2
    spectra = (q[: 1 << m, :, None] * sq[0, k + k[:, None]]).sum(axis=1) * q[: (1 << m) - 1 : -1]
    spectra[[0, -1]] = read
    return spectra, certified


def verify_conditional_entropies(spec: BroadcastChannelSpec, n_s: float, cutoff=None,
                                  ordering=None) -> dict:
    """Check every merging rate -H(T | A, complement) three independent ways.

    For each nonempty receiver subset T, a mask as in :mod:`bbcap.region`, three
    values must agree within ``ENTROPY_TOL``: the number-basis one, the entropies
    of block-weight rows ``full ^ T`` less ``full``, whose blocks must be
    certified rank one; the covariance-matrix one; and the closed form, entry T
    of the region's bound vector, unchecked.  A global-purity case (H of all
    kept modes vs H of the environment) rides along.  Every receiver j gets a
    Schmidt record: the certified (A, Bj) block weights, row ``1 << (j - 1)``,
    index by index against the thermal weights of ``(1 - eta_j) * n_s`` within
    ``SCHMIDT_TOL``.  Returns the record ``bbcap verify`` prints: ``etas, ns,
    cutoff, tail_mass, cases, max_abs_dev, pass, schmidt``, where ``pass`` holds
    when every case and every Schmidt record passes.  A bad spec, energy or
    ordering raises ``ValueError`` before :func:`_budget` can refuse the run
    (:class:`InconclusiveVerificationError`).
    """
    gauss_state = _channel._thermal_output(spec, n_s, ordering)
    cutoff, tail = _budget(spec.m, n_s, cutoff)
    n_s = _gaussian._photon_number(n_s)
    spectra, certified = _block_spectra(_sector_runs(spec, n_s, cutoff, ordering), spec.m, cutoff)
    h, full = list(map(_shannon_bits, spectra)), (1 << spec.m) - 1
    closed = _region._bound_rows(spec, [n_s])[0].tolist()  # unchecked: no region is built
    recv = _channel.receiver_labels(spec)

    def gauss_entropy(labels) -> float:
        return _gaussian._entropy(_gaussian._block(gauss_state, labels)[1])

    def case(name, gauss_val, fock_val, closed_val, dev, certified=True) -> dict:
        return {"case": name, "gaussian_bits": gauss_val, "fock_bits": fock_val,
                "closed_form_bits": closed_val, "abs_dev": dev, "tail_mass": tail,
                "pass": dev < ENTROPY_TOL and certified}

    # H(T | E) = H(T, E) - H(E), as conditional_entropy takes it, with H(E) once
    h_env_gauss = gauss_entropy((_channel.ENV_LABEL,))
    cases = []
    for t in _region.nonempty_subsets(spec.m):
        mask = _region._mask(t)
        t_labels = tuple(recv[i - 1] for i in sorted(t))
        rest = tuple(lab for lab in recv if lab not in t_labels)
        fock_val = h[full ^ mask] - h[full]
        gauss_val = gauss_entropy(t_labels + (_channel.ENV_LABEL,)) - h_env_gauss
        closed_val = closed[mask]
        dev = max(abs(fock_val - gauss_val), abs(fock_val - closed_val))
        name = "-H({}|A,{})".format(",".join(t_labels), ",".join(rest) or "-")
        # keeping A alone, each block is one row: rank one without the verdict
        cases.append(case(name, gauss_val, fock_val, closed_val, dev, certified or not rest))
    # global purity: the kept modes share the environment's spectrum, known from the spec
    purity_dev = abs(h[full] - _shannon_bits(_photon_weights(n_s, cutoff, spec.eta_env)))
    cases.append(case("purity H(A,{})=H(E)".format(",".join(recv)), 0.0, purity_dev, 0.0,
                      purity_dev))
    schmidt = []
    for j, eta in enumerate(spec.etas, 1):
        weights = spectra[1 << (j - 1)]
        mu = max(1.0 - eta, 0.0) * n_s  # the spec admits eta within ETA_TOL above 1
        dev = float(np.max(np.abs(weights - _thermal_weights(mu, range(cutoff + 1)))))
        schmidt.append({"arm_transmittance": eta, "ns": n_s, "cutoff": cutoff, "tail_mass": tail,
                        "max_abs_dev": dev, "pass": dev < SCHMIDT_TOL and certified})
    return {"etas": list(spec.etas), "ns": n_s, "cutoff": cutoff, "tail_mass": tail,
            "cases": cases, "max_abs_dev": max(c["abs_dev"] for c in cases),
            "pass": all(c["pass"] for c in cases + schmidt), "schmidt": schmidt}

