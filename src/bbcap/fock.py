"""Brute-force verification path in a truncated number basis.

Everything here is deliberately independent of the covariance-matrix
formalism: a state is an explicit amplitude table, an int array with one
row of photon numbers per basis state and a float array of their real
amplitudes; beam splitters act by binomial amplitude splitting against a
vacuum port; and entropies come from the Schmidt spectra of reduced
states.  Truncation is accounted for exactly: a squeezed-vacuum source
truncated at total photon number M drops tail mass
``(n_s / (n_s + 1))**(M + 1)``, and verification refuses to run (raising
:class:`InconclusiveVerificationError`, not failing) when the tail budget
cannot be met.

Only vacuum-fed splitters are implemented; every stage of a broadcast
cascade mixes the through-arm with a fresh vacuum port, which is all the
channel model needs and keeps this oracle auditable.

The partial trace numbers occupation rows as mixed-radix integers and
finds its blocks by label propagation.  The global state is pure, so each
block is M Mᵀ with M the block's kept x traced amplitude matrix (its
Schmidt factor): every table entry fills one element of one factor, and
the block's nonzero spectrum is the squared singular values of M.

Every reduction of a channel output therefore needs one 8-byte factor
element and ``ENTRY_BYTES`` of index arrays and bases per table entry.
Verification counts the entries before building the table and ends the
check as inconclusive when that figure exceeds ``MAX_DENSE_BYTES`` (1 GiB);
it is the oracle's one memory gate.

:func:`verify_conditional_entropies` returns the record ``bbcap verify``
prints, a plain dict, with its single pass verdict.
"""

from __future__ import annotations

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
# a partial trace's index arrays and bases, per table entry: at most 180
# bytes under tracemalloc over every keep set of channel outputs, m = 1..4
ENTRY_BYTES = 256


class InconclusiveVerificationError(RuntimeError):
    """Truncation budget cannot be met; the check is inconclusive, not failed."""


def thermal_weight(nbar: float, n: int) -> float:
    """Photon-number distribution of a thermal state: nbar^n / (nbar+1)^(n+1)."""
    nbar = _gaussian._photon_number(nbar)
    if nbar == 0:
        return 1.0 if n == 0 else 0.0
    r = nbar / (nbar + 1.0)
    return r**n / (nbar + 1.0)


def tail_mass(n_s: float, cutoff: int) -> float:
    """Probability mass beyond total photon number ``cutoff`` in a TMSV."""
    n_s = _gaussian._photon_number(n_s)
    if n_s == 0:
        return 0.0
    return (n_s / (n_s + 1.0)) ** (cutoff + 1)


def cutoff_for_tail(n_s: float) -> int:
    """Smallest cutoff whose tail mass is below ``TAIL_BUDGET`` (refuses above 60)."""
    for m in range(MAX_CUTOFF + 1):
        if tail_mass(n_s, m) < TAIL_BUDGET:
            return m
    raise InconclusiveVerificationError(
        f"n_s = {n_s!r} needs a cutoff above {MAX_CUTOFF} for tail < {TAIL_BUDGET:g}"
    )


@dataclass
class FockState:
    """Pure state as a sparse table of real amplitudes.

    Row i of ``occupations`` (entries x modes, int64) holds the photon
    numbers of one basis state, one column per mode in ``mode_labels``
    order, and ``amplitudes[i]`` its amplitude.  Rows must be distinct, which
    :func:`reduce_density` enforces.  The beam splitter and the partial trace
    read both arrays, so the table is not to be changed after construction.
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
    if cutoff < 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff!r}")
    labels = tuple(labels)
    if len(labels) != 2:
        raise ValueError("tmsv_fock needs exactly two mode labels")
    w = np.array([thermal_weight(n_s, k) for k in range(cutoff + 1)])
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
    occ = state.occupations
    n = occ[:, src]
    top = int(n.max()) + 1 if n.size else 0
    # entry n(n+1)/2 + k holds the weight of |k>_src |n-k>_new, from the
    # scalar expression so that every amplitude keeps its last bit
    w = np.array(
        [math.comb(j, k) * eta**k * (1.0 - eta) ** (j - k) for j in range(top) for k in range(j + 1)]
    )
    row = np.repeat(np.arange(n.size), n + 1)
    k = _ranges(np.zeros_like(n), n + 1)
    entry = n[row] * (n[row] + 1) // 2 + k
    nonzero = w[entry] != 0.0
    row, k, entry = row[nonzero], k[nonzero], entry[nonzero]
    out = np.concatenate([occ[row], (n[row] - k)[:, None]], axis=1)
    out[:, src] = k
    amps = state.amplitudes[row] * np.sqrt(w[entry])
    return FockState(state.mode_labels + (new_label,), out, amps, state.cutoff)


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


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges ``starts[i] .. starts[i] + lengths[i] - 1``, concatenated."""
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


def _lex_ids(cols: np.ndarray) -> tuple:
    """Distinct rows of ``cols`` in lexicographic order and the id of every row.

    Rows are read as numbers in base max + 1 (the cutoff + 1 for the states
    built here); ``np.unique(axis=0)`` serves when those would overflow.
    """
    base = int(cols.max()) + 1 if cols.size else 1
    if base ** cols.shape[1] >= 2**63:
        rows, ids = np.unique(cols, axis=0, return_inverse=True)
        return rows, ids.reshape(-1)
    # mixed-radix numbers sort as their digit tuples do
    code = cols @ base ** np.arange(cols.shape[1] - 1, -1, -1, dtype=np.int64)
    _, first, ids = np.unique(code, return_index=True, return_inverse=True)
    return cols[first], ids


def _positions(comp: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Rank of each id among the ids of its block (ids ascend within a block)."""
    pos = np.empty_like(comp)
    pos[np.argsort(comp, kind="stable")] = _ranges(np.zeros_like(sizes), sizes)
    return pos


def reduce_density(state: FockState, keep) -> DensityMatrix:
    """Partial trace onto the modes in ``keep`` (result modes in that order).

    Kept configurations that never share a traced configuration have no
    coherence, so the result is assembled block by block over the connected
    components of the graph joining each kept configuration to the traced
    configurations it meets, found by label propagation on arrays.  Each
    block's basis holds its kept configurations as rows in lexicographic
    order, its factor's columns list its traced configurations in the same
    order, and blocks come in the order of their first row.  Every table
    entry fills exactly one element of one factor, so the factors are a
    scatter that sums nothing.  The factors take 8 bytes per element, which
    for a channel output is one element per table entry; memory is budgeted
    by :func:`verify_conditional_entropies`, not here.

    Raises ``ValueError`` when two rows of the table are the same occupation
    (they would land on one factor element).
    """
    keep = tuple(keep)
    if not keep:
        raise ValueError("must keep at least one mode")
    kept_pos = [state.index(lab) for lab in keep]
    traced_pos = [i for i in range(len(state.mode_labels)) if i not in kept_pos]
    occ = state.occupations
    kept, kid = _lex_ids(occ[:, kept_pos])
    traced, gid = _lex_ids(occ[:, traced_pos])

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
    _, comp = np.unique(label, return_inverse=True)
    gcomp = np.empty(len(traced), dtype=comp.dtype)
    gcomp[gid] = comp[kid]
    rows = np.bincount(comp)
    cols = np.bincount(gcomp, minlength=rows.size)
    sizes = rows * cols
    bases = kept[np.argsort(comp, kind="stable")]
    # all factors, row-major one after another in one buffer
    starts = np.cumsum(sizes) - sizes
    flat = np.zeros(int(sizes.sum()))
    acomp = comp[kid]
    at = _positions(comp, rows)[kid]
    at *= cols[acomp]
    at += starts[acomp]
    at += _positions(gcomp, cols)[gid]
    flat[at] = state.amplitudes
    if np.count_nonzero(flat) != np.count_nonzero(state.amplitudes):
        raise ValueError("occupation rows repeat: the table is not one amplitude per basis state")
    first = (np.cumsum(rows) - rows).tolist()
    blocks = [
        (bases[b : b + d], flat[s : s + d * r].reshape(d, r))
        for b, d, r, s in zip(first, rows.tolist(), cols.tolist(), starts.tolist())
    ]
    return DensityMatrix(keep, blocks, state.cutoff)


def entropy_fock(rho: DensityMatrix) -> float:
    """Spectral von Neumann entropy in bits."""
    return _shannon_bits(rho.eigenvalues())


def _shannon_bits(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def _photon_weights(n_s: float, cutoff: int, eta: float) -> np.ndarray:
    """Photon-number distribution of the share ``eta`` of a TMSV arm
    truncated at ``cutoff``: sum over k <= cutoff of
    ``thermal_weight(n_s, k) * C(k, e) eta^e (1 - eta)^(k - e)``."""
    p = np.zeros(cutoff + 1)
    for k in range(cutoff + 1):
        w = thermal_weight(n_s, k)
        p[: k + 1] += [w * math.comb(k, e) * eta**e * (1 - eta) ** (k - e) for e in range(k + 1)]
    return p


def channel_output_fock(
    spec: BroadcastChannelSpec, n_s: float, cutoff: int, ordering=None
) -> FockState:
    """Broadcast-channel output state on (A, B1, ..., Bm, E), truncated."""
    net = _channel.build_network(spec, ordering)
    state = tmsv_fock(n_s, cutoff, ("A", net.final_label))
    for stage in net.stages:
        state = split_with_vacuum(state, net.final_label, stage.transmittance, stage.output)
    # canonical mode order (A, B1, ..., Bm, E)
    want = ("A",) + _channel.output_labels(spec)
    perm = [state.index(lab) for lab in want]
    return FockState(want, state.occupations[:, perm], state.amplitudes, state.cutoff)


def _require_budget(n_s: float, cutoff) -> tuple:
    _gaussian._photon_number(n_s)
    if cutoff is None:
        cutoff = cutoff_for_tail(n_s)
    elif not isinstance(cutoff, numbers.Integral):
        raise ValueError(f"cutoff must be a whole number, got {cutoff!r}")
    cutoff = int(cutoff)
    if cutoff < 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")
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
    ``ENTROPY_TOL``; a global-purity case (H of all kept modes vs H of the
    environment) rides along, and every receiver's arm gets a
    :func:`schmidt_spectrum_check` at the same cutoff.  Returns the record
    ``bbcap verify`` prints: ``etas, ns, cutoff, tail_mass, cases,
    max_abs_dev, pass, schmidt``, where ``pass`` holds when every case and
    every Schmidt certificate passes.  Raises
    :class:`InconclusiveVerificationError` when the truncation or memory
    budget is not met -- an inconclusive run, not a failed one.
    """
    if spec.m > 4:
        raise ValueError("number-basis verification limited to m <= 4 receivers")
    cutoff, tail = _require_budget(n_s, cutoff)
    # every (B1..Bm, E) occupation with total <= cutoff is one entry
    entries = math.comb(cutoff + spec.m + 1, spec.m + 1)
    need = entries * (ENTRY_BYTES + 8)  # a factor element and index arrays per entry
    if need > MAX_DENSE_BYTES:
        raise InconclusiveVerificationError(
            f"the amplitude table at cutoff {cutoff} needs {entries} entries, {need} bytes in "
            f"every reduction, above the budget of {MAX_DENSE_BYTES} bytes"
        )
    state = channel_output_fock(spec, n_s, cutoff, ordering)
    recv = _channel.receiver_labels(spec)
    gauss_state = _gaussian.reduce(
        _channel.output_state_tmsv(spec, n_s, ordering), ("A",) + recv
    )

    cache = {}

    def fock_entropy(labels) -> float:
        key = tuple(labels)
        if key not in cache:
            cache[key] = entropy_fock(reduce_density(state, key))
        return cache[key]

    def case(name, gauss_val, fock_val, closed_val, dev) -> dict:
        return {"case": name, "gaussian_bits": gauss_val, "fock_bits": fock_val,
                "closed_form_bits": closed_val, "abs_dev": dev, "tail_mass": tail,
                "pass": dev < ENTROPY_TOL}

    h_sender_all = fock_entropy(("A",) + recv)
    cases = []
    for t in _region.nonempty_subsets(spec.m):
        t_labels = tuple(recv[i - 1] for i in sorted(t))
        rest = tuple(lab for lab in recv if lab not in t_labels)
        fock_val = fock_entropy(("A",) + rest) - h_sender_all
        gauss_val = -_gaussian.conditional_entropy(
            gauss_state, t_labels, ("A",) + rest
        )
        closed_val = _region.inner_bound_finite(spec, n_s, t)
        dev = max(abs(fock_val - gauss_val), abs(fock_val - closed_val))
        name = "-H({}|A,{})".format(",".join(t_labels), ",".join(rest) or "-")
        cases.append(case(name, gauss_val, fock_val, closed_val, dev))
    # global purity: the kept modes share the spectrum of the environment,
    # whose truncated photon weights follow from the spec alone
    h_env = _shannon_bits(_photon_weights(n_s, cutoff, spec.eta_env))
    purity_dev = abs(h_sender_all - h_env)
    cases.append(
        case("purity H(A,{})=H(E)".format(",".join(recv)), 0.0, purity_dev, 0.0, purity_dev)
    )
    schmidt = [schmidt_spectrum_check(eta, n_s, cutoff=cutoff) for eta in spec.etas]
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
    """Certify the Schmidt spectrum after splitting one receiver off a TMSV.

    A TMSV arm sent through a single splitter that diverts ``eta_receiver``
    to the receiver leaves the (sender, receiver) pair entangled with the
    through-arm; its reduced spectrum must be the thermal weights of mean
    photon number ``(1 - eta_receiver) * n_s``, checked eigenvalue by
    eigenvalue against the closed form within ``SCHMIDT_TOL``.  Returns the
    record ``arm_transmittance, ns, cutoff, tail_mass, max_abs_dev, pass``.
    """
    if not 0.0 <= eta_receiver <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got {eta_receiver!r}")
    cutoff, tail = _require_budget(n_s, cutoff)
    state = tmsv_fock(n_s, cutoff)
    state = split_with_vacuum(state, "A'", 1.0 - eta_receiver, "B")
    eigs = reduce_density(state, ("A", "B")).eigenvalues()
    mu = (1.0 - eta_receiver) * n_s
    expected = np.array([thermal_weight(mu, k) for k in range(cutoff + 1)])
    padded = np.zeros(cutoff + 1)
    padded[: min(eigs.size, cutoff + 1)] = eigs[: cutoff + 1]
    max_dev = float(np.max(np.abs(padded - expected)))
    return {
        "arm_transmittance": eta_receiver,
        "ns": n_s,
        "cutoff": cutoff,
        "tail_mass": tail,
        "max_abs_dev": max_dev,
        "pass": max_dev < SCHMIDT_TOL,
    }
