"""Independent reference computations the tests check the library against.

Nothing here imports the code paths under test: entropies come from plain
spectral sums, split populations from explicit binomial mixing, polytope
vertices from hyperplane intersection or a depth-first greedy walk, channel
outputs from a cascade of dense beam-splitter matrices, and command-line
output from ``json.dumps``.  Four exceptions use the library: the TMSV
route at the end takes its stages from ``channel.build_network`` and
returns validated library states, but writes the output by the dense
cascade, the two-mode route the library's thermal route is checked
against; ``convergence_table`` reads each subset's bound from one
``capacity_region`` per grid energy, the route the command's bound
columns are checked against; ``region_reference_chunks`` reads a
region's bounds one subset at a time through ``CapacityRegion.bound``; and
``channel_output_fock`` builds the whole number-basis output with
``fock.split_with_vacuum``, stage by stage, the table that verification's
streamed sectors are checked against.  ``block_weights_reference`` sums the
keep sets' block weights from the streamed sectors, once per keep set.
``thermal_weight`` refuses its inputs with the library's own checks
(``_photon_number``, ``fock._count``).
"""

import itertools
import json
import math

import numpy as np

from bbcap import channel, fock
from bbcap.channel import BroadcastChannelSpec
from bbcap.gaussian import CovarianceState, _photon_number
from bbcap.region import capacity_region, nonempty_subsets


def thermal_entropy_spectral(nbar: float, terms: int = 4000) -> float:
    """-sum(p log2 p) over the geometric photon-number distribution."""
    if nbar == 0:
        return 0.0
    total = 0.0
    for n in range(terms):
        p = nbar**n / (nbar + 1.0) ** (n + 1)
        if p < 1e-300:
            break
        total -= p * math.log2(p)
    return total


def thermal_weight(nbar: float, n: int) -> float:
    """Photon-number distribution of a thermal state, nbar^n / (nbar + 1)^(n + 1),
    as the scalar ``r**n / (nbar + 1)`` with ``r = nbar / (nbar + 1)``.

    ``nbar`` and ``n`` are refused as the library refuses a photon number
    and a photon count.
    """
    nbar, n = _photon_number(nbar), fock._count(n, "photon count")
    if nbar == 0:
        return float(n == 0)
    r = nbar / (nbar + 1.0)
    return r**n / (nbar + 1.0)


def split_thermal_populations(nbar: float, eta: float, k_max: int, terms: int = 2000) -> list:
    """Transmitted-arm photon distribution of a thermal state on a splitter."""
    pops = [0.0] * (k_max + 1)
    for n in range(terms):
        p = nbar**n / (nbar + 1.0) ** (n + 1) if nbar > 0 else (1.0 if n == 0 else 0.0)
        if p < 1e-300:
            break
        for k in range(min(n, k_max) + 1):
            pops[k] += p * math.comb(n, k) * eta**k * (1.0 - eta) ** (n - k)
    return pops


def split_photon_weights_loop(w, eta: float) -> np.ndarray:
    """Photon weights of the share ``eta`` of a mode with photon weights
    ``w`` (n < len(w)), by a double loop over the scalar terms
    ``w[n] * C(n, k) * eta**k * (1 - eta)**(n - k)``, each added into bin k
    in ascending n."""
    p = np.zeros(len(w))
    for n, wn in enumerate(w):
        p[: n + 1] += [wn * math.comb(n, k) * eta**k * (1 - eta) ** (n - k) for k in range(n + 1)]
    return p


def spectral_entropy(probs) -> float:
    return float(-sum(p * math.log2(p) for p in probs if p > 0))


def polytope_vertices_bruteforce(bounds: dict, m: int, tol: float = 1e-9) -> list:
    """Vertices of {r >= 0, sum_{i in T} r_i <= f(T)} by plane intersection.

    Every m-subset of the defining hyperplanes is solved; feasible solutions
    are deduplicated.  Exponential, fine for m <= 3.
    """
    rows = []
    for subset, bound in bounds.items():
        a = np.zeros(m)
        for i in subset:
            a[i - 1] = 1.0
        rows.append((a, float(bound)))
    for i in range(m):
        a = np.zeros(m)
        a[i] = -1.0
        rows.append((a, 0.0))

    verts = []
    for combo in itertools.combinations(range(len(rows)), m):
        a = np.array([rows[i][0] for i in combo])
        b = np.array([rows[i][1] for i in combo])
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        x = np.linalg.solve(a, b)
        if all(np.dot(row, x) <= bound + tol for row, bound in rows):
            if not any(np.max(np.abs(x - v)) < tol for v in verts):
                verts.append(x)
    return [tuple(float(c) for c in v) for v in verts]


def match_point_sets(first, second, tol: float = 1e-9) -> bool:
    """Symmetric set equality of point lists up to ``tol`` per coordinate."""
    def covered(points, others):
        return all(
            any(max(abs(a - b) for a, b in zip(p, q)) < tol for q in others)
            for p in points
        )

    return covered(first, second) and covered(second, first)


def vertices_reference(region) -> list:
    """Greedy corners of a bounded region by a depth-first walk over bitmask
    prefixes: sorted tuples, exact duplicates dropped by a set."""
    m, f = region.m, region._f.tolist()
    point = [0.0] * m
    points = {tuple(point)}

    def walk(mask):
        for i in range(m):
            if not mask >> i & 1:
                point[i] = max(f[mask | 1 << i] - f[mask], 0.0)
                points.add(tuple(point))
                walk(mask | 1 << i)
                point[i] = 0.0

    walk(0)
    return sorted(points)


def is_polymatroid_bruteforce(bounds: dict, m: int, tol: float) -> bool:
    """Monotone and submodular within ``tol``, by the exhaustive triple loop.

    ``bounds`` maps every nonempty frozenset of receivers to its bound; the
    empty set has bound 0 and comparisons involving ``math.inf`` are skipped.
    """
    f = lambda t: bounds[frozenset(t)] if t else 0.0
    ground = range(1, m + 1)
    for size in range(m + 1):
        for t in map(set, itertools.combinations(ground, size)):
            for j in set(ground) - t:
                vals = (f(t), f(t | {j}))
                if not any(map(math.isinf, vals)) and vals[1] < vals[0] - tol:
                    return False
                for k in set(ground) - t - {j}:
                    vals = (f(t), f(t | {j}), f(t | {k}), f(t | {j, k}))
                    if any(map(math.isinf, vals)):
                        continue
                    if vals[3] - vals[2] > vals[1] - vals[0] + tol:
                        return False
    return True


def check_polymatroid_reference(f, m: int, tol: float):
    """The polymatroid check on a bound vector, one comparison per receiver and per pair.

    Raises the ValueError of the first failure: a NaN or a bound below
    -1e-12; then, j ascending, a gain f(T + j) - f(T) below -tol, or, k > j
    ascending, a gain that grows by more than tol when k joins T.  NaN
    stands in for the unbounded flag, so every comparison that involves it
    is false.
    """
    f = np.asarray(f, dtype=float)
    if np.any(np.isnan(f) | (f < -1e-12)):
        raise ValueError("rate bounds must be nonnegative numbers, never NaN")
    f = np.where(np.isinf(f), np.nan, f)
    for j in range(m):
        pair = f.reshape(-1, 2, 1 << j)
        gain = (pair[:, 1] - pair[:, 0]).ravel()  # T with bit j dropped
        if (gain < -tol).any():
            raise ValueError(f"bound not monotone in receiver {j + 1}")
        for k in range(j + 1, m):
            pair = gain.reshape(-1, 2, 1 << (k - 1))  # bit k of T is bit k - 1 here
            if (pair[:, 1] > pair[:, 0] + tol).any():
                raise ValueError(f"bound not submodular in receivers {j + 1} and {k + 1}")


MAX_SWEEP_RECEIVERS = 8  # all-orderings sweeps grow factorially


def all_orderings(spec: BroadcastChannelSpec):
    """All (m+1)! split orderings of the channel's outputs; refused above m = 8."""
    if spec.m > MAX_SWEEP_RECEIVERS:
        raise ValueError(f"ordering sweep limited to m <= {MAX_SWEEP_RECEIVERS}")
    return itertools.permutations(channel.output_labels(spec))


def symplectic_form(n_modes: int) -> np.ndarray:
    """Standard symplectic form: block-diagonal [[0, 1], [-1, 0]] per mode."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def beam_splitter(eta: float, mode_a: int, mode_b: int, n_modes: int) -> np.ndarray:
    """Symplectic matrix of a beam splitter of transmittance ``eta`` on n modes.

    It acts on a covariance matrix as ``S V S.T``.  On the target quadrature
    blocks the map is
    ``[[sqrt(eta) I2, sqrt(1-eta) I2], [-sqrt(1-eta) I2, sqrt(eta) I2]]``
    (identity elsewhere), i.e. mode_a keeps a sqrt(eta) share of itself and
    gains sqrt(1-eta) of mode_b.
    """
    if not -1e-12 <= eta <= 1.0 + 1e-12:
        raise ValueError(f"transmittance must lie in [0, 1], got {eta!r}")
    eta = min(max(eta, 0.0), 1.0)
    if mode_a == mode_b:
        raise ValueError("beam splitter needs two distinct modes")
    for m in (mode_a, mode_b):
        if not 0 <= m < n_modes:
            raise ValueError(f"mode index {m} out of range for {n_modes} modes")
    t = math.sqrt(eta)
    r = math.sqrt(1.0 - eta)
    s = np.eye(2 * n_modes)
    a, b = 2 * mode_a, 2 * mode_b
    s[a : a + 2, a : a + 2] = t * np.eye(2)
    s[a : a + 2, b : b + 2] = r * np.eye(2)
    s[b : b + 2, a : a + 2] = -r * np.eye(2)
    s[b : b + 2, b : b + 2] = t * np.eye(2)
    return s


def reduce_density_reference(state, keep) -> tuple:
    """Partial trace by union-find over kept tuples and dense ``np.ix_`` updates.

    The dense loop version of ``fock.reduce_density``, kept as its
    reference: it returns the ``(basis, matrix)`` blocks, with each matrix
    element summed from zero over the traced configurations in order of
    first appearance, so ``M Mᵀ`` of each Schmidt factor and the spectrum
    of each factor are checked against a matrix that is summed, not
    factored.
    """
    keep = tuple(keep)
    if not keep:
        raise ValueError("must keep at least one mode")
    kept_pos = [state.index(lab) for lab in keep]
    traced_pos = [i for i in range(len(state.mode_labels)) if i not in kept_pos]

    groups = {}
    for occ, amp in zip(state.occupations.tolist(), state.amplitudes.tolist()):
        k = tuple(occ[i] for i in kept_pos)
        t = tuple(occ[i] for i in traced_pos)
        groups.setdefault(t, []).append((k, amp))

    parent = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for items in groups.values():
        for k, _ in items:
            parent.setdefault(k, k)
        root = find(items[0][0])
        for k, _ in items[1:]:
            parent[find(k)] = root

    components = {}
    for k in parent:
        components.setdefault(find(k), []).append(k)

    bases = [tuple(sorted(v)) for v in components.values()]
    bases.sort()
    index = {}
    for b, basis in enumerate(bases):
        for i, k in enumerate(basis):
            index[k] = (b, i)
    mats = [np.zeros((len(basis), len(basis))) for basis in bases]
    for items in groups.values():
        b = index[items[0][0]][0]
        pos = np.array([index[k][1] for k, _ in items])
        vec = np.array([a for _, a in items])
        mats[b][np.ix_(pos, pos)] += np.outer(vec, vec)
    return tuple(zip(bases, mats))


# The command-line rendering as it stood before the single JSON/CSV emitter:
# each command's ``_run_*`` body, taking the computed values as arguments.
# ``region`` takes the ``CapacityRegion``; ``verify`` takes the record of
# ``fock.verify_conditional_entropies``.


def _fmt(x: float, prec: int) -> str:
    return f"{x:.{prec}g}"


def _round(x: float, prec: int) -> float:
    return float(f"{x:.{prec}g}")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def render_region_reference(reg, fmt: str, prec: int) -> str:
    """A region's output: :func:`region_reference_chunks` joined."""
    return "".join(region_reference_chunks(reg, fmt, prec))


def region_reference_chunks(reg, fmt: str, prec: int, block: int = 4096):
    """A region's output, yielded ``block`` constraints at a time: each bound
    rounded to ``prec`` digits, an unbounded one as a flag, never a float inf.
    A JSON block is its list of dicts through ``json.dumps``, indented to its
    depth in ``{"m", "energy", "constraints"}``; no more than one is held."""
    energy = reg.energy if reg.energy == "unconstrained" else _round(reg.energy, prec)
    json_fmt = fmt == "json"
    if json_fmt:  # the head's closing "\n}" dropped
        yield json.dumps({"m": reg.m, "energy": energy}, indent=2)[:-2] + ',\n  "constraints": ['
    else:
        yield "subset,bound_bits"
    subsets = nonempty_subsets(reg.m)
    for start in range(0, (1 << reg.m) - 1, block):
        entries = []
        for t in itertools.islice(subsets, block):
            bound = reg.bound(t)
            if not json_fmt:
                text = "unbounded" if math.isinf(bound) else _fmt(_round(bound, prec), prec)
                entries.append("\n" + "+".join(str(j) for j in sorted(t)) + "," + text)
            elif math.isinf(bound):
                entries.append({"subset": sorted(t), "unbounded": True})
            else:
                entries.append({"subset": sorted(t), "bound_bits": _round(bound, prec)})
        if json_fmt:  # the list's "[\n" and "\n]" dropped, each line two deeper
            text = json.dumps(entries, indent=2)[1:-2].replace("\n", "\n  ")
            yield text if start == 0 else "," + text
        else:
            yield "".join(entries)
    yield "\n  ]\n}\n" if json_fmt else "\n"


def render_vertices_reference(m: int, energy, pts, fmt: str, prec: int) -> str:
    if fmt == "json":
        data = {
            "m": m,
            "energy": energy,
            "vertices": [[_round(x, prec) for x in p] for p in pts],
        }
        return _json_text(data)
    header = ",".join(f"r{i}_bits" for i in range(1, m + 1))
    lines = [header] + [",".join(_fmt(x, prec) for x in p) for p in pts]
    return "\n".join(lines) + "\n"


def render_boundary_reference(pts, fmt: str, prec: int) -> str:
    if fmt == "json":
        return _json_text(
            {"points": [[_round(x, prec), _round(y, prec)] for x, y in pts]}
        )
    lines = ["r1_bits,r2_bits"] + [f"{_fmt(x, prec)},{_fmt(y, prec)}" for x, y in pts]
    return "\n".join(lines) + "\n"


def convergence_table(etas, ns_grid) -> list:
    """Rows (ns, subset, inner bound, unconstrained bound, gap) for every T,
    from one ``capacity_region`` per grid energy, subsets in the CLI's order;
    ``ns`` is the region's checked energy."""
    spec = BroadcastChannelSpec(tuple(etas))
    limit, rows = capacity_region(spec), []
    for n_s in ns_grid:
        inner = capacity_region(spec, n_s)
        for t in nonempty_subsets(spec.m):
            i, a = inner.bound(t), limit.bound(t)
            rows.append({"ns": inner.energy, "subset": sorted(t), "inner_bound_bits": i,
                         "asymptotic_bound_bits": a, "gap_bits": a - i})
    return rows


def render_convergence_reference(rows, fmt: str, prec: int) -> str:
    if fmt == "json":
        data = [
            {
                "ns": _round(r["ns"], prec),
                "subset": r["subset"],
                "inner_bound_bits": _round(r["inner_bound_bits"], prec),
                "asymptotic_bound_bits": _round(r["asymptotic_bound_bits"], prec),
                "gap_bits": _round(r["gap_bits"], prec),
            }
            for r in rows
        ]
        return _json_text(data)
    lines = ["ns,subset,inner_bound_bits,asymptotic_bound_bits,gap_bits"]
    for r in rows:
        subset = "+".join(str(i) for i in r["subset"])
        lines.append(
            ",".join(
                (
                    _fmt(r["ns"], prec),
                    subset,
                    _fmt(r["inner_bound_bits"], prec),
                    _fmt(r["asymptotic_bound_bits"], prec),
                    _fmt(r["gap_bits"], prec),
                )
            )
        )
    return "\n".join(lines) + "\n"


def render_verify_reference(record: dict, fmt: str, prec: int) -> str:
    def round_floats(obj):
        if isinstance(obj, float):
            return _round(obj, prec)
        if isinstance(obj, list):
            return [round_floats(x) for x in obj]
        if isinstance(obj, dict):
            return {k: round_floats(v) for k, v in obj.items()}
        return obj

    data = round_floats(record)
    if fmt == "json":
        return _json_text(data)
    lines = ["case,gaussian_bits,fock_bits,closed_form_bits,abs_dev,tail_mass,pass"]
    for c in data["cases"]:
        lines.append(
            ",".join(
                (
                    c["case"].replace(",", ";"),
                    _fmt(c["gaussian_bits"], prec),
                    _fmt(c["fock_bits"], prec),
                    _fmt(c["closed_form_bits"], prec),
                    _fmt(c["abs_dev"], prec),
                    _fmt(c["tail_mass"], prec),
                    str(c["pass"]).lower(),
                )
            )
        )
    return "\n".join(lines) + "\n"


def mode_blocks_reference(cov: np.ndarray, idx) -> np.ndarray:
    """Covariance of the modes ``idx``, in that order, by a fancy index on the
    (n, 2, n, 2) view: the gather ``gaussian.reduce`` must match bit for bit."""
    k = 2 * len(idx)
    return cov.reshape(len(cov) // 2, 2, -1, 2)[list(idx)][:, :, list(idx)].reshape(k, k)


# The TMSV route: a reference mode A purifies the input arm A', and the
# output on (A, B1, ..., Bm, E) is pure.  The library works from the thermal
# arm alone; these build the two-mode states it is checked against.

def tmsv(n_s: float, labels=("A", "A'")):
    """Two-mode squeezed vacuum with mean photon number ``n_s`` per arm.

    Diagonal blocks are ``(2 n_s + 1) I2``; cross blocks are
    ``2 sqrt(n_s (n_s + 1)) diag(1, -1)``.  The joint state is pure and each
    arm alone is thermal with mean photon number ``n_s``.
    """
    _photon_number(n_s)
    labels = tuple(labels)
    if len(labels) != 2:
        raise ValueError("tmsv needs exactly two mode labels")
    d = 2.0 * n_s + 1.0
    c = 2.0 * math.sqrt(n_s * (n_s + 1.0))
    cov = np.array(
        [
            [d, 0.0, c, 0.0],
            [0.0, d, 0.0, -c],
            [c, 0.0, d, 0.0],
            [0.0, -c, 0.0, d],
        ]
    )
    return CovarianceState(labels, cov)


def thermal_state(nbar: float, label):
    """Single thermal mode with mean photon number ``nbar``."""
    _photon_number(nbar)
    return CovarianceState((label,), (2.0 * nbar + 1.0) * np.eye(2))


def permute_modes(state, new_order):
    """Reorder modes to ``new_order`` (a permutation of the state's labels)."""
    new_order = tuple(new_order)
    if sorted(map(str, new_order)) != sorted(map(str, state.mode_labels)) or len(
        new_order
    ) != state.n_modes:
        raise ValueError(f"{new_order!r} is not a permutation of {state.mode_labels!r}")
    idx = [state.mode_labels.index(lab) for lab in new_order]
    return CovarianceState(new_order, mode_blocks_reference(state.cov, idx), validate=False)


def output_state_tmsv(spec, n_s: float, ordering=None):
    """Joint state on (A, B1, ..., Bm, E) from a TMSV of energy ``n_s``: its
    arm A' sent through the channel by a cascade of dense beam-splitter
    matrices, and the output validated once.

    m vacuum ancillas are adjoined; stage j of ``channel.build_network`` mixes
    ancilla 2+j with the through-arm (mode 1) by ``S V Sᵀ`` with a 2n×2n
    :func:`beam_splitter`, and the arm ends carrying the ordering's last label.
    """
    net = channel.build_network(spec, ordering)
    m = len(net.stages)
    n = m + 2
    cov = np.eye(2 * n)
    cov[:4, :4] = tmsv(n_s).cov
    for j, stage in enumerate(net.stages):
        s = beam_splitter(stage.transmittance, 2 + j, 1, n)
        cov = s @ cov @ s.T
        cov = 0.5 * (cov + cov.T)
    slots = ("A", net.ordering[-1]) + tuple(stage.output for stage in net.stages)
    labels = ("A",) + tuple(f"B{i}" for i in range(1, m + 1)) + ("E",)
    qi = [q for lab in labels for q in (2 * slots.index(lab), 2 * slots.index(lab) + 1)]
    return CovarianceState(labels, cov[np.ix_(qi, qi)])


def channel_output_fock(spec, n_s: float, cutoff: int, ordering=None):
    """The number-basis output on (A, B1, ..., Bm, E), truncated at ``cutoff``:
    ``fock.tmsv_fock``'s arm A' split against vacuum at each stage of the
    cascade, A' keeping the through-arm, then the modes permuted."""
    net = channel.build_network(spec, ordering)
    state = fock.tmsv_fock(n_s, cutoff)
    for stage in net.stages:
        state = fock.split_with_vacuum(state, "A'", stage.transmittance, stage.output)
    built = tuple(net.final_label if lab == "A'" else lab for lab in state.mode_labels)
    labels = ("A",) + channel.output_labels(spec)
    occ = state.occupations[:, [built.index(lab) for lab in labels]]
    return fock.FockState(labels, occ, state.amplitudes, cutoff)


def block_weights_reference(runs, m: int, cutoff: int) -> np.ndarray:
    """The ``(2^m, cutoff + 1)`` block weights of every keep set, summed from the
    entries of the ``(occupations, amplitudes)`` runs once per keep set: row
    ``mask`` (receiver i at bit i - 1) adds at t the squares of the entries
    whose traced count k - |n_mask| is t, in chunks of 64 entries and then
    pairwise over the chunks.  ``fock._block_spectra`` sums rows 0 and ``full``
    the same way, and takes the others from the certified factors."""
    weights = np.zeros((1 << m, cutoff + 1))
    for occ, amps in runs:
        cols, sq = np.ascontiguousarray(occ.T), amps * amps
        chunk, bins = np.arange(sq.size) // 64 * (cutoff + 1), (sq.size // 64 + 1) * (cutoff + 1)
        for mask, row in enumerate(weights):
            t = cols[0] - sum(cols[i] for i in range(1, m + 1) if mask >> (i - 1) & 1)
            row += np.bincount(t + chunk, sq, bins).reshape(-1, cutoff + 1).T.copy().sum(1)
    return weights
