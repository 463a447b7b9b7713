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
not failing) when the tail budget cannot be met.  Only vacuum-fed
splitters are implemented, which is all the channel model needs.

Verification builds the channel output one sender-photon sector k at a
time, once the whole table would hold more than ``RUN_ENTRIES`` entries.
Keeping A and receivers R, the entry <k, n_R; n_traced> lies in the block
of traced photon count t = k - |n_R|.  Each block is rank one, so its one
eigenvalue is its squared norm, summed by ``np.bincount``.  Rank one is
certified from the amplitudes, not assumed (:func:`_certify`), and a block
that fails fails its case.  ``MAX_DENSE_BYTES`` (1 GiB) gates the largest
run, at ``SECTOR_ENTRY_BYTES`` per entry, plus the reference rows, before
any sector is built; it is the oracle's one memory gate.
Keeping A and one receiver Bj, the traced modes' collective mode takes the
share 1 - eta_j, so block t's weight is a Schmidt coefficient, checked
against ``thermal_weight((1 - eta_j) * n_s, t)``.  :func:`reduce_density`,
the general partial trace into Schmidt factors, is on no program path: it is
the plain reference for the blocks that verification streams.

:func:`verify_conditional_entropies` returns the record ``bbcap verify``
prints, a plain dict, with its single pass verdict.
"""

from __future__ import annotations

import functools
import math
import numbers
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
    "thermal_weight",
    "tail_mass",
    "cutoff_for_tail",
    "tmsv_fock",
    "split_with_vacuum",
    "reduce_density",
    "entropy_fock",
    "channel_output_fock",
    "verify_conditional_entropies",
    "schmidt_spectrum_check",
]

TAIL_BUDGET = 1e-10
ENTROPY_TOL = 1e-6     # three-route agreement of each verified entropy (bits)
SCHMIDT_TOL = 1e-8     # per-eigenvalue deviation of a Schmidt spectrum
MAX_CUTOFF = 60
MAX_DENSE_BYTES = 2**30
RUN_ENTRIES = 2**16    # larger tables are built one sender-photon sector at a time
# bytes per entry of a run while it is built and reduced, beyond the reference
# rows: at most 261 under tracemalloc over 46 channel outputs (m = 1..4, runs
# of 36 to 135,751 entries), at most 199 for runs above 1000 entries; the
# first call also caches 0.13 MB of binomial coefficients
SECTOR_ENTRY_BYTES = 384


class InconclusiveVerificationError(RuntimeError):
    """Truncation budget cannot be met; the check is inconclusive, not failed."""


def thermal_weight(nbar: float, n: int) -> float:
    """Photon-number distribution of a thermal state: nbar^n / (nbar+1)^(n+1)."""
    return _thermal_weights(nbar, (_count(n, "photon count"),))[0]


def _thermal_weights(nbar: float, ns) -> list:
    """``thermal_weight(nbar, n)`` for each n in ``ns``, with ``nbar`` checked once."""
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
    if not isinstance(n, numbers.Integral):
        raise ValueError(f"{name} must be a whole number, got {n!r}")
    if n < 0:
        raise ValueError(f"{name} must be nonnegative, got {int(n)}")
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

    @property
    def tail(self) -> float:
        return 1.0 - self.norm_sq

    def index(self, label) -> int:
        try:
            return self.mode_labels.index(label)
        except ValueError:
            raise ValueError(f"unknown mode label {label!r}") from None


def tmsv_fock(n_s: float, cutoff: int, labels=("A", "A'")) -> FockState:
    """Two-mode squeezed vacuum truncated at total photon number ``cutoff``.

    Amplitudes are sqrt(thermal_weight(n_s, k)) on |k, k>; the dropped norm
    equals ``tail_mass(n_s, cutoff)`` exactly.
    """
    cutoff = _count(cutoff, "cutoff")
    labels = tuple(labels)
    if len(labels) != 2:
        raise ValueError("tmsv_fock needs exactly two mode labels")
    w = np.array(_thermal_weights(n_s, range(cutoff + 1)))
    k = np.flatnonzero(w > 0.0)
    return FockState(labels, np.stack([k, k], axis=1), np.sqrt(w[k]), cutoff)


def split_with_vacuum(state: FockState, source_mode, eta: float, new_label) -> FockState:
    """Mix one mode with a fresh vacuum port on a beam splitter.

    The source keeps a transmitted share eta; the new mode (appended last)
    takes the rest, with binomial amplitudes
    ``sqrt(C(n, k) eta^k (1 - eta)^(n - k))`` on |k>_src |n-k>_new.
    Norm and total photon number are conserved exactly.
    """
    if not -1e-12 <= eta <= 1.0 + 1e-12:
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


def entropy_fock(rho: DensityMatrix) -> float:
    """Spectral von Neumann entropy in bits."""
    return _shannon_bits(rho.eigenvalues())


def _shannon_bits(p: np.ndarray) -> float:
    p = p[p != 0.0]  # a NaN weight stays, and makes the entropy NaN
    return float(-(p * np.log2(p)).sum())


def _photon_weights(n_s: float, cutoff: int, eta: float) -> np.ndarray:
    """Photon-number distribution of the share ``eta`` of a TMSV arm
    truncated at ``cutoff``: sum over n <= cutoff of
    ``thermal_weight(n_s, n) * C(n, k) eta^k (1 - eta)^(n - k)``, each bin
    added up in ascending n."""
    top = cutoff + 1
    comb, n, k = (a[: top * (top + 1) // 2] for a in _pascal(max(top, MAX_CUTOFF + 1)))
    w = np.array(_thermal_weights(n_s, range(top)))
    kept = np.array([eta**i for i in range(top)], dtype=float)
    lost = np.array([(1 - eta) ** i for i in range(top)], dtype=float)
    return np.bincount(k, w[n] * comb * kept[k] * lost[n - k], top)


def channel_output_fock(
    spec: BroadcastChannelSpec, n_s: float, cutoff: int, ordering=None
) -> FockState:
    """Broadcast-channel output state on (A, B1, ..., Bm, E), truncated."""
    (occ, amps), = _sector_runs(spec, n_s, cutoff, ordering)
    return FockState(("A",) + _channel.output_labels(spec), occ, amps, cutoff)


def _sector_runs(spec: BroadcastChannelSpec, n_s: float, cutoff: int, ordering=None, cap=None):
    """The channel output, modes (A, B1, ..., Bm, E), as (occupations,
    amplitudes) pairs: the whole table, or one sender-photon sector at a time
    when the table holds more than ``cap`` entries."""
    net = _channel.build_network(spec, ordering)
    source = tmsv_fock(n_s, cutoff)
    # each stage's weights once, to the cutoff: split_with_vacuum's amplitudes, bit for bit
    weights = [_binomial_weights(stage.transmittance, cutoff + 1) for stage in net.stages]
    built = ("A", net.final_label) + tuple(stage.output for stage in net.stages)
    perm = [built.index(lab) for lab in ("A",) + _channel.output_labels(spec)]
    rows = len(source.amplitudes)
    whole = cap is None or math.comb(cutoff + spec.m + 1, spec.m + 1) <= cap
    for lo, hi in [(0, rows)] if whole else [(i, i + 1) for i in range(rows)]:
        occ, amps = source.occupations[lo:hi], source.amplitudes[lo:hi]
        for w in weights:
            occ, amps = _split_rows(occ, amps, 1, w)
        yield occ[:, perm], amps


def _run_budget(m: int, cutoff: int) -> tuple:
    """Entries of the largest run: the whole table, or above ``RUN_ENTRIES``
    the largest sector (cutoff photons over m + 1 outputs); reference entries
    (a row per block of each reduction keeping 1..m-1 receivers); their bytes."""
    table, sector = math.comb(cutoff + m + 1, m + 1), math.comb(cutoff + m, m)
    run = table if table <= RUN_ENTRIES else sector
    refs = sum(math.comb(m, r) * math.comb(cutoff + m + 1 - r, m + 1 - r) for r in range(1, m))
    return run, refs, run * SECTOR_ENTRY_BYTES + 8 * refs


def _rank(parts, binom: np.ndarray) -> np.ndarray:
    """Combinadic rank of q-part rows given as q columns: with partial sums
    S_j, the q-subset {S_j + j - 1} ranks as the sum of C(S_j + j - 1, j), so
    the rows of total s take ranks C(s - 1 + q, q) to C(s + q, q) - 1."""
    rank = total = parts[0]
    for j, part in enumerate(parts[1:], 2):
        total = total + part
        rank = rank + binom[j][total + (j - 1)]
    return rank


def _block_spectra(runs, m: int, cutoff: int) -> dict:
    """``{R: [weights, certified]}`` for every reduction onto (A, R), R a tuple
    of receiver columns: ``weights[t]`` is the squared norm of the block of
    traced photon count t, its one eigenvalue once :func:`_certify` finds it
    rank one.  Blocks of one row (R empty) or one column (R all) need no check."""
    binom = np.array([[math.comb(c, j) for c in range(cutoff + m + 2)] for j in range(m + 2)])
    keeps = [tuple(i for i in range(1, m + 1) if mask >> (i - 1) & 1) for mask in range(2**m)]
    spectra = {kept: [np.zeros(cutoff + 1), True] for kept in keeps}
    # reference rows by column rank; per block the pivot's column and value, |row|² / pivot²
    refs = {kept: (np.zeros(math.comb(cutoff + m + 1 - len(kept), m + 1 - len(kept))),
                   np.full(cutoff + 1, -1), np.zeros(cutoff + 1), np.zeros(cutoff + 1))
            for kept in keeps[1:-1]}
    for occ, amps in runs:
        cols, sq = np.ascontiguousarray(occ.T), amps * amps
        # squares added in chunks of 64 entries, then pairwise over the chunks
        chunk, bins = np.arange(sq.size) // 64 * (cutoff + 1), (sq.size // 64 + 1) * (cutoff + 1)
        for kept, spectrum in spectra.items():
            t = cols[0] - sum(cols[i] for i in kept)
            spectrum[0] += np.bincount(t + chunk, sq, bins).reshape(-1, cutoff + 1).T.copy().sum(1)
            if kept in refs and spectrum[1]:
                traced = [cols[i] for i in range(1, m + 2) if i not in kept]
                spectrum[1] = _certify(refs[kept], cols[0], [cols[i] for i in kept] + [t],
                                       traced, amps, sq, binom, m)
    return spectra


def _certify(ref, k, kept, traced, amps, sq, binom, m: int) -> bool:
    """Rank-one certificate of one reduction over one run of sectors ``k``,
    whose rows are the columns ``kept`` (n_R, t) and columns ``traced``.

    Block t's reference row r0 (n_R = 0) comes with sector t, before any other
    row of the block; its largest entry is the pivot a[r0, c0].  Every entry
    must satisfy a[r, c] a[r0, c0] = a[r, c0] a[r0, c], and every row have
    the squared norm a[r, c0]² |a[r0]|² / a[r0, c0]², so that no entry of
    weight is missing, within the rounding bounds derived in CHANGES.md.
    """
    ref_row, c0, p0, scale = ref
    eps, floor = np.finfo(float).eps, 2.0**-500  # floor: stage weights that underflowed
    t, q = kept[-1], len(kept)
    col = _rank(traced, binom)
    new = t == k
    tr, cr, ar = t[new], col[new], amps[new]
    ref_row[cr] = ar
    top = np.zeros(len(p0))
    np.maximum.at(top, tr, np.abs(ar))
    at_top = np.abs(ar) == top[tr]
    c0[tr[at_top]], p0[tr[at_top]] = cr[at_top], ar[at_top]
    fresh = np.flatnonzero(np.bincount(tr, minlength=len(p0)))
    scale[fresh] = np.divide(np.sqrt(np.bincount(tr, sq[new], len(p0))[fresh]), p0[fresh],
                             out=np.zeros(fresh.size), where=p0[fresh] != 0.0) ** 2
    # rows (n_R, t) as q-part rows of total k, ranked from the first of the run
    lo, hi = int(k[0]), int(k[-1])  # a run's sectors come in order
    row = _rank(kept, binom) - binom[q][lo + q - 1]
    rows = int(binom[q][hi + q] - binom[q][lo + q - 1])
    at_pivot = col == c0[t]
    pivot, row_t = np.zeros(rows), np.zeros(rows, dtype=t.dtype)
    pivot[row[at_pivot]] = amps[at_pivot]
    row_t[row] = t
    lhs, rhs = amps * p0[t], pivot[row] * ref_row[col]
    got, want = np.bincount(row, sq, rows), pivot * pivot * scale[row_t]
    width = math.comb(hi + len(traced) - 1, len(traced) - 1)  # columns of the widest block
    # written as all(err <= bound), so that a NaN fails
    return bool(np.all(np.abs(lhs - rhs) <= (12 * m + 2) * eps * np.abs(lhs) + floor) and np.all(
        np.abs(got - want) <= (12 * m + width + 6) * eps * np.maximum(got, want) + width * floor))


def _require_budget(n_s: float, cutoff) -> tuple:
    _gaussian._photon_number(n_s)
    cutoff = cutoff_for_tail(n_s) if cutoff is None else _count(cutoff, "cutoff")
    if cutoff > MAX_CUTOFF:
        raise InconclusiveVerificationError(
            f"cutoff {cutoff} exceeds the supported maximum {MAX_CUTOFF}"
        )
    tail = tail_mass(n_s, cutoff)
    if tail >= TAIL_BUDGET:
        raise InconclusiveVerificationError(
            f"tail mass {tail:.3e} at cutoff {cutoff} breaches the "
            f"{TAIL_BUDGET:g} budget for n_s = {n_s!r}"
        )
    return cutoff, tail


def verify_conditional_entropies(
    spec: BroadcastChannelSpec,
    n_s: float,
    cutoff=None,
    ordering=None,
) -> dict:
    """Check every merging rate -H(T | A, complement) three independent ways.

    For each nonempty receiver subset the number-basis value, the
    covariance-matrix value and the closed form must agree within
    ``ENTROPY_TOL``, and the Fock value's blocks must pass their rank-one
    certificate; a global-purity case (H of all kept modes vs H of the
    environment) rides along.  Every receiver j gets a Schmidt record: the
    certified (A, Bj) block weights of the same output, index by index
    against the thermal weights of ``(1 - eta_j) * n_s`` within
    ``SCHMIDT_TOL``.  Returns the record ``bbcap verify`` prints: ``etas,
    ns, cutoff, tail_mass, cases, max_abs_dev, pass, schmidt``, where
    ``pass`` holds when every case and every Schmidt record passes.  Raises
    :class:`InconclusiveVerificationError` when the truncation or memory
    budget is not met -- an inconclusive run, not a failed one.
    """
    if spec.m > 4:
        raise ValueError("number-basis verification limited to m <= 4 receivers")
    cutoff, tail = _require_budget(n_s, cutoff)
    run, refs, need = _run_budget(spec.m, cutoff)
    if need > MAX_DENSE_BYTES:
        raise InconclusiveVerificationError(
            f"the largest run of sectors at cutoff {cutoff} holds {run} entries and the "
            f"reference rows {refs}: {need} bytes, above the budget of {MAX_DENSE_BYTES} bytes"
        )
    spectra = _block_spectra(_sector_runs(spec, n_s, cutoff, ordering, RUN_ENTRIES), spec.m,
                             cutoff)
    recv = _channel.receiver_labels(spec)
    gauss_state = _channel._thermal_output(spec, n_s, ordering)

    def gauss_entropy(labels) -> float:
        return _gaussian.von_neumann_entropy(_gaussian.reduce(gauss_state, labels))

    def fock_entropy(labels) -> tuple:
        weights, certified = spectra[tuple(recv.index(lab) + 1 for lab in labels)]
        return _shannon_bits(weights), certified

    def case(name, gauss_val, fock_val, closed_val, dev, certified=True) -> dict:
        return {"case": name, "gaussian_bits": gauss_val, "fock_bits": fock_val,
                "closed_form_bits": closed_val, "abs_dev": dev, "tail_mass": tail,
                "pass": dev < ENTROPY_TOL and certified}

    h_sender_all, _ = fock_entropy(recv)
    # H(T | E) = H(T, E) - H(E), as conditional_entropy takes it, with H(E) once
    h_env_gauss = gauss_entropy((_channel.ENV_LABEL,))
    cases = []
    for t in _region.nonempty_subsets(spec.m):
        t_labels = tuple(recv[i - 1] for i in sorted(t))
        rest = tuple(lab for lab in recv if lab not in t_labels)
        h_rest, certified = fock_entropy(rest)
        fock_val = h_rest - h_sender_all
        gauss_val = gauss_entropy(t_labels + (_channel.ENV_LABEL,)) - h_env_gauss
        closed_val = _region.inner_bound_finite(spec, n_s, t)
        dev = max(abs(fock_val - gauss_val), abs(fock_val - closed_val))
        name = "-H({}|A,{})".format(",".join(t_labels), ",".join(rest) or "-")
        cases.append(case(name, gauss_val, fock_val, closed_val, dev, certified))
    # global purity: the kept modes share the spectrum of the environment,
    # whose truncated photon weights follow from the spec alone
    h_env = _shannon_bits(_photon_weights(n_s, cutoff, spec.eta_env))
    purity_dev = abs(h_sender_all - h_env)
    cases.append(
        case("purity H(A,{})=H(E)".format(",".join(recv)), 0.0, purity_dev, 0.0, purity_dev)
    )
    schmidt = []
    for j, eta in enumerate(spec.etas, 1):
        weights, certified = spectra[(j,)]
        mu = max(1.0 - eta, 0.0) * n_s  # the spec admits eta within ETA_TOL above 1
        dev = float(np.max(np.abs(weights - _thermal_weights(mu, range(cutoff + 1)))))
        schmidt.append({"arm_transmittance": eta, "ns": n_s, "cutoff": cutoff, "tail_mass": tail,
                        "max_abs_dev": dev, "pass": dev < SCHMIDT_TOL and certified})
    return {
        "etas": list(spec.etas),
        "ns": n_s,
        "cutoff": cutoff,
        "tail_mass": tail,
        "cases": cases,
        "max_abs_dev": max(c["abs_dev"] for c in cases),
        "pass": all(c["pass"] for c in cases + schmidt),
        "schmidt": schmidt,
    }


def schmidt_spectrum_check(eta_receiver: float, n_s: float, cutoff=None) -> dict:
    """The Schmidt record of a one-receiver channel of transmittance ``eta_receiver``.

    The (sender, receiver) pair is purified by the environment, which takes
    the share ``1 - eta_receiver`` of the TMSV arm; its certified block
    weights must be the thermal weights of mean photon number
    ``(1 - eta_receiver) * n_s``, photon number by photon number, within
    ``SCHMIDT_TOL``.  Returns ``verify_conditional_entropies``' record
    ``arm_transmittance, ns, cutoff, tail_mass, max_abs_dev, pass``.
    """
    if not 0.0 <= eta_receiver <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got {eta_receiver!r}")
    spec = BroadcastChannelSpec((eta_receiver,))
    return verify_conditional_entropies(spec, n_s, cutoff)["schmidt"][0]
