"""Independent checker for benchmark outputs.

The closed forms here are written from the paper, not imported from the
program: the thermal entropy ``g(x) = (x+1) log2(x+1) - x log2 x``, the
finite-energy bound ``g((1 - eta_comp) N) - g((1 - eta_all) N)``, the
unconstrained bound ``log2((1 - eta_comp) / (1 - eta_all))`` and the merging
gain ``g((1 - eta_S2) N) - g((1 - eta_S1 - eta_S2) N)``.  Subsets are bit
masks (receiver i is bit i - 1).

Every ``check_*`` function returns ``None`` when the output is right and a
one-line reason when it is not.  A reason is either a wrong value (a number
or shape that contradicts the closed forms) or, as ``SelfCheckFailed``, a
verdict of the program's own checks that came out false (``verify`` not
passing, orderings reported inequivalent).  Both make the op fail; only a
wrong value makes the run incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

# CLI numbers carry 9 significant digits: half a unit in the last digit is
# at most 5e-9 of the value.  The absolute slack covers float round-off in
# either side's arithmetic, far below the 1e-6 a wrong bound would show.
PRINT_REL = 5e-9
ABS_SLACK = 1e-13
GAUSSIAN_TOL = 1e-9           # library route against the closed form
VERIFY_MAX_DEV = 1e-6
_LN2 = math.log(2.0)


class SelfCheckFailed(str):
    """A false verdict from one of the program's own checks."""


def g(x):
    """Thermal-state entropy in bits, elementwise; 0 at x = 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    xp = x[pos]
    out[pos] = (np.log1p(xp) + xp * np.log1p(1.0 / xp)) / _LN2
    return out


def subset_sums(etas) -> np.ndarray:
    """eta summed over every subset, indexed by mask."""
    s = np.zeros(1 << len(etas))
    for i, e in enumerate(etas):
        s[1 << i: 2 << i] = s[: 1 << i] + e
    return s


def bounds(etas, ns) -> np.ndarray:
    """Rate bound of every subset (mask 0 gives 0); ``ns`` None is unconstrained."""
    s = subset_sums(etas)
    total = s[-1]
    comp = s[::-1]                      # eta of the complement of each mask
    if ns is None:
        f = np.log2((1.0 - comp) / (1.0 - total))
    else:
        f = g((1.0 - comp) * ns) - g((1.0 - total) * ns)
    f[0] = 0.0
    return f


def merging_gain(etas, ns, gained, helpers) -> float:
    e1 = math.fsum(etas[i - 1] for i in gained)
    e2 = math.fsum(etas[i - 1] for i in helpers)
    return float(g((1.0 - e2) * ns) - g((1.0 - e1 - e2) * ns))


def mask_of(subset) -> int:
    mask = 0
    for i in subset:
        mask |= 1 << (int(i) - 1)
    return mask


def _close(printed, exact) -> np.ndarray:
    printed = np.asarray(printed, dtype=float)
    exact = np.asarray(exact, dtype=float)
    return np.abs(printed - exact) <= PRINT_REL * np.abs(exact) + ABS_SLACK


def _rows(text: str) -> tuple:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _members(points: np.ndarray, f: np.ndarray, m: int):
    """Reason the first point outside the region fails, or None."""
    if points.size == 0:
        return None
    masks = np.arange(1 << m)
    ind = ((masks[:, None] >> np.arange(m)) & 1).astype(float)      # 2^m x m
    sums = points @ ind.T
    slack = PRINT_REL * (np.abs(points) @ ind.T) + PRINT_REL * np.abs(f) + ABS_SLACK
    if np.any(points < -ABS_SLACK):
        return "negative rate coordinate"
    bad = np.argwhere(sums > f + slack)
    if bad.size:
        p, mask = bad[0]
        return f"point {points[p].tolist()} exceeds the bound of mask {mask}"
    return None


def check_region(op: dict, text: str):
    m, f = op["m"], bounds(op["etas"], op["ns"])
    if op["fmt"] == "json":
        data = json.loads(text)
        if data["m"] != m:
            return f"m = {data['m']}, expected {m}"
        energy = data["energy"]
        if op["ns"] is None and energy != "unconstrained":
            return f"energy {energy!r}, expected unconstrained"
        if op["ns"] is not None and not _close(energy, op["ns"]):
            return f"energy {energy!r}, expected {op['ns']!r}"
        entries = [(mask_of(c["subset"]), c.get("bound_bits")) for c in data["constraints"]]
    else:
        header, rows = _rows(text)
        if header != ["subset", "bound_bits"]:
            return f"bad header {header}"
        entries = [(mask_of(r[0].split("+")), None if r[1] == "unbounded" else float(r[1]))
                   for r in rows]
    masks = [k for k, _ in entries]
    if sorted(masks) != list(range(1, 1 << m)):
        return f"{len(masks)} constraints do not cover the {2 ** m - 1} subsets once each"
    if any(b is None for _, b in entries):
        return "unbounded constraint for a region with environment loss"
    printed = np.array([b for _, b in entries])
    ok = _close(printed, f[masks])
    if not ok.all():
        k = int(np.argmin(ok))
        return f"bound of mask {masks[k]} is {printed[k]!r}, closed form {f[masks[k]]!r}"
    return None


def check_vertices(op: dict, text: str):
    m, f = op["m"], bounds(op["etas"], op["ns"])
    if op["fmt"] == "json":
        data = json.loads(text)
        pts = data["vertices"]
    else:
        header, rows = _rows(text)
        if header != [f"r{i}_bits" for i in range(1, m + 1)]:
            return f"bad header {header}"
        pts = [[float(x) for x in r] for r in rows]
    pts = np.array(pts, dtype=float).reshape(-1, m)
    reason = _members(pts, f, m)
    if reason:
        return reason
    # the origin and two greedy corners (receivers in order, and reversed)
    for order in ([], list(range(m)), list(range(m))[::-1]):
        corner, mask = np.zeros(m), 0
        for i in order:
            corner[i] = f[mask | 1 << i] - f[mask]
            mask |= 1 << i
        if not np.any(np.all(_close(pts, corner[None, :]), axis=1)):
            return f"greedy vertex {corner.tolist()} missing"
    return None


def check_boundary(op: dict, text: str):
    f = bounds(op["etas"], op["ns"])
    if op["fmt"] == "json":
        pts = json.loads(text)["points"]
    else:
        header, rows = _rows(text)
        if header != ["r1_bits", "r2_bits"]:
            return f"bad header {header}"
        pts = [[float(x) for x in r] for r in rows]
    pts = np.array(pts, dtype=float).reshape(-1, 2)
    if len(pts) < op["points"]:
        return f"{len(pts)} points, asked for {op['points']}"
    reason = _members(pts, f, 2)
    if reason:
        return reason
    slack = np.min(np.stack([f[1] - pts[:, 0], f[2] - pts[:, 1],
                             f[3] - pts[:, 0] - pts[:, 1]]), axis=0)
    if np.any(slack > 4 * PRINT_REL * f[3] + ABS_SLACK):
        return "point strictly inside the region, not on its boundary"
    if not (_close(pts[0], [0.0, f[2]]).all() and _close(pts[-1], [f[1], 0.0]).all()):
        return "polyline does not run from the r2 intercept to the r1 intercept"
    if np.any(np.diff(pts[:, 0]) < -ABS_SLACK):
        return "points not ordered by r1"
    return None


def check_convergence(op: dict, text: str):
    m, grid = op["m"], op["grid"]
    if op["fmt"] == "json":
        rows = [(r["ns"], mask_of(r["subset"]), r["inner_bound_bits"],
                 r["asymptotic_bound_bits"], r["gap_bits"]) for r in json.loads(text)]
    else:
        header, raw = _rows(text)
        if header != ["ns", "subset", "inner_bound_bits", "asymptotic_bound_bits", "gap_bits"]:
            return f"bad header {header}"
        rows = [(float(r[0]), mask_of(r[1].split("+")), float(r[2]), float(r[3]), float(r[4]))
                for r in raw]
    if len(rows) != len(grid) * ((1 << m) - 1):
        return f"{len(rows)} rows for {len(grid)} energies and m = {m}"
    limit = bounds(op["etas"], None)
    finite = [bounds(op["etas"], ns) for ns in grid]
    seen = set()
    for k, (ns, mask, inner, asym, gap) in enumerate(rows):
        j = k // ((1 << m) - 1)
        if not _close(ns, grid[j]):
            return f"row {k}: ns {ns!r}, expected {grid[j]!r}"
        seen.add((j, mask))
        want = finite[j][mask]
        if not _close([inner, asym, gap], [want, limit[mask], limit[mask] - want]).all():
            return f"row {k}: ({inner!r}, {asym!r}, {gap!r}) vs closed form"
    if len(seen) != len(rows) or any(mask == 0 for _, mask in seen):
        return "rows do not cover every (energy, subset) once"
    return None


_CASE = re.compile(r"^-H\(([^|]*)\|")


def check_verify(op: dict, text: str):
    data = json.loads(text)
    m, f = op["m"], bounds(op["etas"], op["ns"])
    if len(data["cases"]) != 1 << m or len(data["schmidt"]) != m:
        return f"{len(data['cases'])} cases and {len(data['schmidt'])} Schmidt checks for m = {m}"
    for c in data["cases"]:
        hit = _CASE.match(c["case"])
        if hit is None:
            continue                                  # the global-purity case
        mask = mask_of(lab[1:] for lab in hit.group(1).split(","))
        if not _close(c["closed_form_bits"], f[mask]):
            return f"case {c['case']}: closed form {c['closed_form_bits']!r}, expected {f[mask]!r}"
    if data.get("pass") is not True or not all(c["pass"] is True for c in data["cases"]):
        return SelfCheckFailed("verification did not pass")
    if not data["max_abs_dev"] < VERIFY_MAX_DEV:
        return SelfCheckFailed(f"max_abs_dev {data['max_abs_dev']!r} not below {VERIFY_MAX_DEV}")
    if not all(s["pass"] is True for s in data["schmidt"]):
        return SelfCheckFailed("Schmidt spectrum check failed")
    return None


def check_gaussian(op: dict, res: dict):
    want = bounds(op["etas"], op["ns"])[mask_of(op["subset"])]
    if not abs(res["inner"] - want) <= GAUSSIAN_TOL:
        return f"inner bound {res['inner']!r}, closed form {want!r}"
    gain = merging_gain(op["etas"], op["ns"], op["subset"], op["helpers"])
    if not abs(res["gain"] - gain) <= GAUSSIAN_TOL:
        return f"merging gain {res['gain']!r}, closed form {gain!r}"
    if "orderings" in op and res.get("equivalent") is not True:
        return SelfCheckFailed(f"orderings reported inequivalent (max deviation {res.get('max_dev')!r})")
    return None


CLI_CHECKS = {
    "region": check_region,
    "vertices": check_vertices,
    "boundary": check_boundary,
    "convergence": check_convergence,
    "verify": check_verify,
}


def check(op: dict, result) -> str | None:
    """Reason the output of one op is wrong, or None."""
    try:
        if op["cmd"] == "gaussian":
            return check_gaussian(op, result)
        return CLI_CHECKS[op["cmd"]](op, result)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
