"""Brute-force verification path in a truncated number basis.

Everything here is deliberately independent of the covariance-matrix
formalism: states are explicit amplitude tables over occupation tuples,
beam splitters act by binomial amplitude splitting against a vacuum port,
and entropies come from dense eigendecompositions of reduced density
matrices.  Truncation is accounted for exactly: a squeezed-vacuum source
truncated at total photon number M drops tail mass
``(n_s / (n_s + 1))**(M + 1)``, and verification refuses to run (raising
:class:`InconclusiveVerificationError`, not failing) when the tail budget
cannot be met.

Only vacuum-fed splitters are implemented; every stage of a broadcast
cascade mixes the through-arm with a fresh vacuum port, which is all the
channel model needs and keeps this oracle auditable.

A state keeps its amplitude table also as numpy arrays, which the beam
splitter and the partial trace work on.  The partial trace numbers
occupation tuples as mixed-radix integers, finds its blocks by label
propagation, fills a block fed by one traced configuration with a single
outer product, and sums every other element in the order in which the
traced configurations first appear in the table.  That order is kept
because the reported entropies depend on the last bits of these sums.
Before allocating, it adds up the bytes of its dense blocks and of the
index and term arrays that fill them, and ends the check as inconclusive
above ``MAX_DENSE_BYTES`` (1 GiB).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import channel as _channel
from . import gaussian as _gaussian
from . import region as _region
from .channel import BroadcastChannelSpec

__all__ = [
    "FockState",
    "DensityMatrix",
    "TruncationBudget",
    "InconclusiveVerificationError",
    "VerificationCase",
    "VerificationReport",
    "SchmidtSpectrumReport",
    "thermal_weight",
    "tail_mass",
    "cutoff_for_tail",
    "truncation_budget",
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
HERMITICITY_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-8


class InconclusiveVerificationError(RuntimeError):
    """Truncation budget cannot be met; the check is inconclusive, not failed."""


def thermal_weight(nbar: float, n: int) -> float:
    """Photon-number distribution of a thermal state: nbar^n / (nbar+1)^(n+1)."""
    if nbar < 0:
        raise ValueError(f"mean photon number must be nonnegative, got {nbar!r}")
    if nbar == 0:
        return 1.0 if n == 0 else 0.0
    r = nbar / (nbar + 1.0)
    return r**n / (nbar + 1.0)


def tail_mass(n_s: float, cutoff: int) -> float:
    """Probability mass beyond total photon number ``cutoff`` in a TMSV."""
    if n_s < 0:
        raise ValueError(f"mean photon number must be nonnegative, got {n_s!r}")
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


@dataclass(frozen=True)
class TruncationBudget:
    """Cutoff, its exact tail mass, and the entropy tolerance it supports."""

    cutoff: int
    tail_mass: float
    entropy_tolerance: float


def truncation_budget(n_s: float, cutoff: int) -> TruncationBudget:
    tail = tail_mass(n_s, cutoff)
    return TruncationBudget(cutoff, tail, max(1e-6, 50.0 * tail * max(cutoff, 1)))


@dataclass
class FockState:
    """Pure state as a sparse table of real amplitudes over occupation tuples.

    Construction validates the table and keeps a copy as two arrays in its
    order: ``_occ`` (one row of occupations per entry) and ``_amp``.  The
    beam splitter and the partial trace read those, so the table is not
    to be changed after construction.
    """

    mode_labels: tuple
    amplitudes: dict
    cutoff: int
    _occ: np.ndarray = field(init=False, repr=False, compare=False)
    _amp: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.mode_labels = tuple(self.mode_labels)
        if len(set(self.mode_labels)) != len(self.mode_labels):
            raise ValueError(f"duplicate mode labels: {self.mode_labels}")
        self._occ, self._amp = _arrays(self.amplitudes, len(self.mode_labels))

    @property
    def norm_sq(self) -> float:
        return float(sum(a * a for a in self.amplitudes.values()))

    @property
    def tail(self) -> float:
        return 1.0 - self.norm_sq

    def index(self, label) -> int:
        try:
            return self.mode_labels.index(label)
        except ValueError:
            raise ValueError(f"unknown mode label {label!r}") from None


def _arrays(amplitudes: dict, n: int) -> tuple:
    """Occupations as an (entries, n) int array and amplitudes, in dict order.

    Raises ValueError naming an entry that is not n nonnegative integers.
    """
    keys = list(amplitudes)
    bad = np.flatnonzero(np.fromiter(map(len, keys), np.int64, len(keys)) != n)
    if not bad.size:
        flat = np.fromiter(itertools.chain.from_iterable(keys), float, len(keys) * n)
        with np.errstate(invalid="ignore"):
            occ = flat.astype(np.int64)
        bad = np.flatnonzero(((occ < 0) | (occ != flat)).reshape(len(keys), n).any(axis=1))
    if bad.size:
        raise ValueError(f"bad occupation tuple {keys[bad[0]]!r} for {n} modes")
    return occ.reshape(len(keys), n), np.fromiter(amplitudes.values(), float, len(keys))


def _as_dict(occ: np.ndarray, amp: np.ndarray) -> dict:
    """Amplitude table keyed by the rows of ``occ`` (at least one column)."""
    return dict(zip(zip(*occ.T.tolist()), amp.tolist()))


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
    amps = {}
    for k in range(cutoff + 1):
        w = thermal_weight(n_s, k)
        if w > 0.0:
            amps[(k, k)] = math.sqrt(w)
    return FockState(labels, amps, cutoff)


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
    occ, amp = state._occ, state._amp
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
    amps = _as_dict(out, amp[row] * np.sqrt(w[entry]))
    return FockState(state.mode_labels + (new_label,), amps, state.cutoff)


@dataclass
class DensityMatrix:
    """Reduced density operator, stored block-diagonally.

    ``blocks`` is a tuple of ``(basis, matrix)`` pairs: ``basis`` lists the
    occupation tuples spanning the block and ``matrix`` is the dense
    Hermitian block.  Blocks are the orthogonality sectors discovered during
    the partial trace (photon-number sectors, for the states built here);
    :func:`reduce_density` lists each basis in lexicographic order and the
    blocks in the order of their first tuple, and refuses blocks whose
    ``8 * dim**2`` bytes, with the arrays that fill them, add up to more
    than ``MAX_DENSE_BYTES``.
    The trace may fall short of 1 by the recorded truncation deficit.
    """

    mode_labels: tuple
    blocks: tuple
    cutoff: int

    def __post_init__(self):
        self.mode_labels = tuple(self.mode_labels)
        self.blocks = tuple((tuple(basis), np.asarray(mat, float)) for basis, mat in self.blocks)
        for basis, mat in self.blocks:
            if mat.shape != (len(basis), len(basis)):
                raise ValueError("block matrix does not match its basis size")
            if float(np.max(np.abs(mat - mat.T))) > HERMITICITY_TOL:
                raise ValueError("density matrix block is not Hermitian")
        if self.trace > 1.0 + 1e-9:
            raise ValueError(f"trace {self.trace!r} exceeds 1")

    @property
    def trace(self) -> float:
        return float(sum(np.trace(mat) for _, mat in self.blocks))

    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues, descending."""
        if not self.blocks:
            return np.zeros(0)
        vals = np.concatenate(
            [np.linalg.eigvalsh(mat) for _, mat in self.blocks]
        )
        return np.sort(vals)[::-1]


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges ``starts[i] .. starts[i] + lengths[i] - 1``, concatenated."""
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


def _lex_ids(cols: np.ndarray) -> tuple:
    """Distinct rows of ``cols`` in lexicographic order, the index of each
    one's first occurrence, and the id of every row.

    Rows are read as numbers in base max + 1 (the cutoff + 1 for the states
    built here); ``np.unique(axis=0)`` serves when those would overflow.
    """
    base = int(cols.max()) + 1 if cols.size else 1
    if base ** cols.shape[1] >= 2**63:
        rows, first, ids = np.unique(cols, axis=0, return_index=True, return_inverse=True)
        return rows, first, ids.reshape(-1)
    # mixed-radix numbers sort as their digit tuples do
    code = cols @ base ** np.arange(cols.shape[1] - 1, -1, -1, dtype=np.int64)
    _, first, ids = np.unique(code, return_index=True, return_inverse=True)
    return cols[first], first, ids


def reduce_density(state: FockState, keep) -> DensityMatrix:
    """Partial trace onto the modes in ``keep`` (result modes in that order).

    Amplitudes are grouped by the traced-out occupation.  Kept tuples that
    never share a traced configuration have no coherence, so the result is
    assembled block by block over the connected components of the graph
    joining each kept tuple to the traced configurations it meets, found by
    label propagation on arrays.  Each block's basis lists its kept tuples
    in lexicographic order, and blocks come in the order of their first
    tuple.  A block fed by one traced configuration is the outer product of
    its amplitudes; this covers the large rank-one sectors.  In the other
    blocks every element sums its terms from zero in order of first
    appearance of the traced configuration in the amplitude table: a fixed
    summation order keeps every element, and with it every eigenvalue, the
    same to the last bit.

    Raises :class:`InconclusiveVerificationError`, before any block or term
    pair is allocated, when the blocks and the pairs would take more than
    ``MAX_DENSE_BYTES``.
    """
    keep = tuple(keep)
    if not keep:
        raise ValueError("must keep at least one mode")
    kept_pos = [state.index(lab) for lab in keep]
    traced_pos = [i for i in range(len(state.mode_labels)) if i not in kept_pos]
    occ = state._occ
    kept, _, kid = _lex_ids(occ[:, kept_pos])
    _, first, gid = _lex_ids(occ[:, traced_pos])
    gid = first[gid]  # a traced configuration is named by its first entry

    # each kept tuple ends labelled with the smallest id in its component
    label = np.arange(len(kept))
    while True:
        glabel = np.full(len(occ), len(kept))
        np.minimum.at(glabel, gid, label[kid])
        new = label.copy()
        np.minimum.at(new, kid, glabel[gid])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    _, comp = np.unique(label, return_inverse=True)
    sizes = np.bincount(comp)
    dense_bytes = 8 * int((sizes**2).sum())
    if dense_bytes > MAX_DENSE_BYTES:
        raise InconclusiveVerificationError(
            f"reducing to ({','.join(map(str, keep))}) needs {dense_bytes} bytes of dense "
            f"blocks (largest {sizes.max()}x{sizes.max()}), above the budget of "
            f"{MAX_DENSE_BYTES} bytes"
        )
    # basis position of each kept id; ids ascend within a block, as tuples do
    by_comp = np.argsort(comp, kind="stable")
    starts = np.cumsum(sizes) - sizes
    pos = np.empty_like(by_comp)
    pos[by_comp] = _ranges(np.zeros_like(sizes), sizes)
    bases = list(zip(*kept[by_comp].T.tolist()))

    # amplitudes by block, then traced configuration, then basis position:
    # a block with one configuration reads its amplitudes in basis order
    acomp, apos = comp[kid], pos[kid]
    order = np.lexsort((apos, gid, acomp))
    amp, acomp, apos, gid = state._amp[order], acomp[order], apos[order], gid[order]
    run = np.flatnonzero(np.diff(gid, prepend=-1))
    length = np.diff(run, append=gid.size)
    single = np.bincount(acomp[run], minlength=sizes.size) == 1
    # in the other blocks, every pair within each traced configuration
    multi = ~single[acomp[run]]
    run, length = run[multi], length[multi]
    # at most four 8-byte arrays per pair live at once: row, col, terms
    # and flat index, then three of them and one temporary; the blocks are
    # filled from terms and flat index alone
    pair_bytes = 32 * int((length**2).sum())
    if dense_bytes + pair_bytes > MAX_DENSE_BYTES:
        raise InconclusiveVerificationError(
            f"reducing to ({','.join(map(str, keep))}) needs {dense_bytes} bytes of dense "
            f"blocks and {pair_bytes} bytes of term pairs, above the budget of "
            f"{MAX_DENSE_BYTES} bytes"
        )
    per = np.repeat(length, length)
    row = np.repeat(_ranges(run, length), per)
    col = _ranges(np.repeat(run, length), per)
    terms = amp[row]
    flat = (apos * sizes[acomp])[row]
    del row
    terms *= amp[col]
    flat += apos[col]
    del col

    abound = np.cumsum(np.bincount(acomp, minlength=sizes.size)).tolist()
    pairs = np.bincount(acomp[run], weights=length**2, minlength=sizes.size)
    pbound = np.cumsum(pairs).astype(np.int64).tolist()
    blocks = []
    for c, d in enumerate(sizes.tolist()):
        if single[c]:
            vec = amp[abound[c] - d : abound[c]]
            mat = np.outer(vec, vec)
        else:
            mat = np.zeros(d * d)
            lo = pbound[c - 1] if c else 0
            np.add.at(mat, flat[lo : pbound[c]], terms[lo : pbound[c]])
            mat = mat.reshape(d, d)
        blocks.append((bases[starts[c] : starts[c] + d], mat))
    return DensityMatrix(keep, tuple(blocks), state.cutoff)


def entropy_fock(rho: DensityMatrix) -> float:
    """Spectral von Neumann entropy in bits, eigenvalues clipped at zero.

    Raises if any eigenvalue falls below -1e-8 (the reduction produced an
    invalid operator rather than mere roundoff).
    """
    eigs = rho.eigenvalues()
    low = float(eigs.min()) if eigs.size else 0.0
    if low < EIGENVALUE_FLOOR:
        raise RuntimeError(f"density matrix has eigenvalue {low!r} < {EIGENVALUE_FLOOR}")
    p = np.clip(eigs, 0.0, None)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def channel_output_fock(
    spec: BroadcastChannelSpec, n_s: float, cutoff: int, ordering=None
) -> FockState:
    """Broadcast-channel output state on (A, B1, ..., Bm, E), truncated."""
    net = _channel.build_network(spec, ordering)
    state = tmsv_fock(n_s, cutoff)
    for stage in net.stages:
        state = split_with_vacuum(state, "A'", stage.transmittance, stage.output)
    labels = tuple(net.final_label if lab == "A'" else lab for lab in state.mode_labels)
    # canonical mode order (A, B1, ..., Bm, E)
    want = ("A",) + _channel.output_labels(spec)
    perm = [labels.index(lab) for lab in want]
    return FockState(want, _as_dict(state._occ[:, perm], state._amp), state.cutoff)


def _require_budget(n_s: float, cutoff) -> tuple:
    if cutoff is None:
        cutoff = cutoff_for_tail(n_s)
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


@dataclass(frozen=True)
class VerificationCase:
    case: str
    gaussian_bits: float
    fock_bits: float
    closed_form_bits: float
    abs_dev: float
    tail_mass: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "gaussian_bits": self.gaussian_bits,
            "fock_bits": self.fock_bits,
            "closed_form_bits": self.closed_form_bits,
            "abs_dev": self.abs_dev,
            "tail_mass": self.tail_mass,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class VerificationReport:
    etas: tuple
    n_s: float
    cutoff: int
    tail_mass: float
    cases: tuple
    max_abs_dev: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "etas": list(self.etas),
            "ns": self.n_s,
            "cutoff": self.cutoff,
            "tail_mass": self.tail_mass,
            "cases": [c.to_dict() for c in self.cases],
            "max_abs_dev": self.max_abs_dev,
            "pass": self.passed,
        }


def verify_conditional_entropies(
    spec: BroadcastChannelSpec,
    n_s: float,
    cutoff=None,
    ordering=None,
) -> VerificationReport:
    """Check every merging rate -H(T | A, complement) three independent ways.

    For each nonempty receiver subset the number-basis value, the
    covariance-matrix value and the closed form must agree within
    ``ENTROPY_TOL``; a global-purity case (H of all kept modes vs H of the
    environment) rides along.  Raises
    :class:`InconclusiveVerificationError` when the truncation budget is
    not met -- an inconclusive run, not a failed one.
    """
    if spec.m > 3:
        raise ValueError("number-basis verification limited to m <= 3 receivers")
    cutoff, tail = _require_budget(n_s, cutoff)
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
        cases.append(
            VerificationCase(
                case="-H({}|A,{})".format(",".join(t_labels), ",".join(rest) or "-"),
                gaussian_bits=gauss_val,
                fock_bits=fock_val,
                closed_form_bits=closed_val,
                abs_dev=dev,
                tail_mass=tail,
                passed=dev < ENTROPY_TOL,
            )
        )
    # global purity: the kept modes and the environment share a spectrum
    purity_dev = abs(h_sender_all - fock_entropy((_channel.ENV_LABEL,)))
    cases.append(
        VerificationCase(
            case="purity H(A,{})=H(E)".format(",".join(recv)),
            gaussian_bits=0.0,
            fock_bits=purity_dev,
            closed_form_bits=0.0,
            abs_dev=purity_dev,
            tail_mass=tail,
            passed=purity_dev < ENTROPY_TOL,
        )
    )
    max_dev = max(c.abs_dev for c in cases)
    return VerificationReport(
        etas=spec.etas,
        n_s=n_s,
        cutoff=cutoff,
        tail_mass=tail,
        cases=tuple(cases),
        max_abs_dev=max_dev,
        passed=all(c.passed for c in cases),
    )


@dataclass(frozen=True)
class SchmidtSpectrumReport:
    arm_transmittance: float
    n_s: float
    cutoff: int
    tail_mass: float
    spectrum: tuple
    expected: tuple
    max_abs_dev: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "arm_transmittance": self.arm_transmittance,
            "ns": self.n_s,
            "cutoff": self.cutoff,
            "tail_mass": self.tail_mass,
            "max_abs_dev": self.max_abs_dev,
            "pass": self.passed,
        }


def schmidt_spectrum_check(
    eta_receiver: float, n_s: float, cutoff=None
) -> SchmidtSpectrumReport:
    """Certify the Schmidt spectrum after splitting one receiver off a TMSV.

    A TMSV arm sent through a single splitter that diverts ``eta_receiver``
    to the receiver leaves the (sender, receiver) pair entangled with the
    through-arm; its reduced spectrum must be the thermal weights of mean
    photon number ``(1 - eta_receiver) * n_s``, checked eigenvalue by
    eigenvalue against the closed form within ``SCHMIDT_TOL``.
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
    return SchmidtSpectrumReport(
        arm_transmittance=eta_receiver,
        n_s=n_s,
        cutoff=cutoff,
        tail_mass=tail,
        spectrum=tuple(float(x) for x in padded),
        expected=tuple(float(x) for x in expected),
        max_abs_dev=max_dev,
        passed=max_dev < SCHMIDT_TOL,
    )
