"""50-digit references for the closed forms and the Fock route.

Every input is ``Decimal(float)`` of the float the program parses, which is
exact, so a reference answers for the same numbers as the program: their
decimal strings differ from those floats by about 1e-17 in the entropy.
Nothing here imports the package.

The closed forms are the merging rate ``-H(T | A, T^c)``,
``g((1 - eta_comp) N) - g((1 - eta_all) N)`` with
``g(x) = (x + 1) log2(x + 1) - x log2 x``, and its unconstrained limit
``log2((1 - eta_comp) / (1 - eta_all))``, with ``eta_comp`` summed over the
complement receivers and ``eta_all`` over all of them.  The Gaussian route
computes the same entropy, so one reference serves both.

The truncated channel output on (A, B1, ..., Bm, E) is evaluated in closed
multinomial form: the sender holds k <= cutoff photons with thermal weight
``w_k = N^k / (N + 1)^(k + 1)``, and the k photons of the other arm are
shared among B1..Bm and E with the probabilities eta_1..eta_m and
``eta_E = 1 - sum(eta)``, so

    psi(k; b_1..b_m, e) = sqrt(w_k * k! / (b_1! ... b_m! e!) * eta_1^b_1 ... eta_E^e).

Reduced states are split into the connected blocks of their kept tuples,
and each block's spectrum is the spectrum of the Gram matrix on its smaller
side, found by cyclic Jacobi rotations.
"""

import functools
import itertools
import math
from decimal import Decimal, localcontext

DIGITS = 50


@functools.lru_cache(maxsize=4096)
def _g_bits(x: Decimal) -> Decimal:
    """g(x) in bits; 0 at x = 0 (the x log x limit).  Called at ``DIGITS``;
    cached, since every subset of one channel shares ``g((1 - eta_all) N)``."""
    if x == 0:
        return Decimal(0)
    return ((x + 1) * (x + 1).ln() - x * x.ln()) / Decimal(2).ln()


def closed_form_bits(etas, n_s, subset) -> Decimal:
    """-H(T | A, T^c) for the receivers ``subset`` (1-based) at input energy
    ``n_s``, or its unconstrained limit when ``n_s`` is None."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        eta = [Decimal(x) for x in etas]
        kept_comp = 1 - sum((e for i, e in enumerate(eta, 1) if i not in subset), Decimal(0))
        kept_all = 1 - sum(eta, Decimal(0))
        if n_s is None:
            return (kept_comp / kept_all).ln() / Decimal(2).ln()
        n = Decimal(n_s)
        return _g_bits(kept_comp * n) - _g_bits(kept_all * n)


def _compositions(total: int, parts: int):
    """Every tuple of ``parts`` nonnegative integers summing to ``total``."""
    for cuts in itertools.combinations(range(total + parts - 1), parts - 1):
        bounds = (-1,) + cuts + (total + parts - 1,)
        yield tuple(b - a - 1 for a, b in zip(bounds, bounds[1:]))


def truncated_table(etas, n_s: float, cutoff: int) -> dict:
    """Amplitudes keyed by (a, b_1..b_m, e), as Decimals (call inside a 50-digit context)."""
    eta = [Decimal(x) for x in etas]
    eta.append(1 - sum(eta))
    n = Decimal(n_s)
    table = {}
    for k in range(cutoff + 1):
        w = n**k / (n + 1) ** (k + 1)
        for occ in _compositions(k, len(eta)):
            p = w * math.factorial(k)
            for share, b in zip(eta, occ):
                p = p * share**b / math.factorial(b)
            if p > 0:
                table[(k,) + occ] = p.sqrt()
    return table


def _jacobi_eigenvalues(g: list) -> list:
    """Eigenvalues of a symmetric matrix (list of rows) by cyclic Jacobi sweeps."""
    n = len(g)
    a = [row[:] for row in g]
    eps = Decimal(10) ** (2 - DIGITS)
    for _ in range(60):
        off = sum(a[i][j] * a[i][j] for i in range(n) for j in range(i + 1, n))
        scale = sum(a[i][i] * a[i][i] for i in range(n))
        if off <= eps * eps * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p][q] == 0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2 * a[p][q])
                t = (1 if theta >= 0 else -1) / (abs(theta) + (theta * theta + 1).sqrt())
                c = 1 / (t * t + 1).sqrt()
                s = t * c
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p], a[k][q] = c * akp - s * akq, s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k], a[q][k] = c * apk - s * aqk, s * apk + c * aqk
    else:
        raise ArithmeticError("Jacobi sweeps did not converge")
    return [a[i][i] for i in range(n)]


def reduced_spectrum(table: dict, kept_pos) -> list:
    """Spectrum (Decimals) of the state reduced onto the positions ``kept_pos``."""
    rows = {}
    for occ, amp in table.items():
        kept = tuple(occ[i] for i in kept_pos)
        traced = tuple(x for i, x in enumerate(occ) if i not in kept_pos)
        rows.setdefault(kept, {})[traced] = amp
    # blocks: kept tuples joined through a shared traced configuration
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for kept, cols in rows.items():
        for traced in cols:
            parent[find(("traced", traced))] = find(("kept", kept))
    blocks = {}
    for kept, cols in rows.items():
        block = blocks.setdefault(find(("kept", kept)), (set(), set()))
        block[0].add(kept)
        block[1].update(cols)
    spectrum = []
    for block in blocks.values():
        kept, traced = sorted(block[0]), sorted(block[1])
        m = [[rows[k].get(t, Decimal(0)) for t in traced] for k in kept]
        if len(traced) < len(kept):
            m = [list(col) for col in zip(*m)]
        g = [[sum((x * y for x, y in zip(u, v)), Decimal(0)) for v in m] for u in m]
        spectrum.extend(_jacobi_eigenvalues(g))
    return spectrum


def _entropy_bits(spectrum) -> Decimal:
    return -sum((p * p.ln() for p in spectrum if p > 0), Decimal(0)) / Decimal(2).ln()


def verify_fock_bits(etas, n_s: float, cutoff: int) -> dict:
    """Exact truncated-state value of every ``fock_bits`` of ``verify``, keyed by case.

    ``-H(T | A, T^c)`` is H(A, T^c) - H(A, B1..Bm); the purity case is 0,
    because the truncated state is pure.
    """
    m = len(etas)
    recv = [f"B{i}" for i in range(1, m + 1)]
    with localcontext() as ctx:
        ctx.prec = DIGITS
        table = truncated_table(etas, n_s, cutoff)
        h_all = _entropy_bits(reduced_spectrum(table, range(m + 1)))
        out = {}
        for size in range(1, m + 1):
            for t in itertools.combinations(range(1, m + 1), size):
                rest = [i for i in range(1, m + 1) if i not in t]
                h = _entropy_bits(reduced_spectrum(table, [0] + rest))
                name = "-H({}|A,{})".format(
                    ",".join(recv[i - 1] for i in t), ",".join(recv[i - 1] for i in rest) or "-"
                )
                out[name] = h - h_all
        out["purity H(A,{})=H(E)".format(",".join(recv))] = Decimal(0)
    return out
