"""Command-line front end.

Commands
--------
region       rate-region constraints (JSON or CSV)
vertices     extreme points of the region
boundary     two-receiver upper boundary polyline (plot-ready)
convergence  finite-energy bounds against their unconstrained limits
verify       number-basis oracle suite against the Gaussian computation

Numeric output is printed with 9 significant digits by default; set
``BBC_CAPACITY_PRECISION`` to override.  Tables are written from columns,
each value formatted once, and joined once: ``region`` and ``convergence``
from the subset texts, each made from the text of a shorter subset, and the
bound texts; ``vertices`` and ``boundary`` from one column per coordinate,
gathered from the texts of the distinct values.  ``convergence`` takes the
limit and the bounds of every grid energy as the rows of one array,
computed in one call and checked in one more, and writes one energy's rows
at a time.
Exit status: 0 on success, 1 on a domain or usage error, 2 when a
verification is inconclusive (truncation budget not met, or the run does
not fit in memory), 3 when a verification ran and failed (its record,
``"pass": false``, is printed).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import fock, region
from .channel import BroadcastChannelSpec
from .fock import InconclusiveVerificationError

__all__ = ["main", "run"]

DEFAULT_PRECISION = 9
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as json.dumps writes them


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2); route usage problems through exit code 1
    # so that 2 stays reserved for inconclusive verification
    def error(self, message):
        raise UsageError(message)


def _parse_floats(text: str, flag: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise UsageError(f"argument {flag}: expected comma-separated reals, got {text!r}")


def _parse_ns(text: str):
    if text.strip().lower() == "inf":
        return region.UNCONSTRAINED
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"argument --ns: expected a real or 'inf', got {text!r}")
    if value < 0 or math.isinf(value) or math.isnan(value):
        raise UsageError(f"argument --ns: expected a nonnegative real or 'inf', got {text!r}")
    return value


def _precision() -> int:
    raw = os.environ.get("BBC_CAPACITY_PRECISION")
    if raw is None:
        return DEFAULT_PRECISION
    try:
        p = int(raw)
    except ValueError:
        raise UsageError(f"BBC_CAPACITY_PRECISION must be an integer, got {raw!r}")
    if not 1 <= p <= 17:
        raise UsageError(f"BBC_CAPACITY_PRECISION must be in 1..17, got {p}")
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.

    Parsing leaves no state in it: ``_Parser.error`` raises, and each call
    gets a fresh namespace.
    """
    parser = _Parser(prog="bbcap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's own parser, by name

    def command(name, summary, runner, fmt="json"):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(command=name, runner=runner, fmt=fmt)
        p.add_argument("--etas", required=True, help="receiver transmittances, comma-separated")
        p.add_argument("--output", default=None, help="write to this file instead of stdout")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"))
        return p

    for p in (
        command("region", "rate-region constraints", _run_region),
        command("vertices", "extreme points of the region", _run_vertices),
        command("boundary", "two-receiver boundary polyline", _run_boundary, fmt="csv"),
    ):
        p.add_argument("--ns", default="inf",
                       help="input photon number, or 'inf' for the unconstrained region")
    p.add_argument("--points", type=int, default=200, help="minimum number of points")  # boundary
    p = command("convergence", "finite-energy bounds vs their limits", _run_convergence)
    p.add_argument("--ns-grid", dest="ns_grid", required=True,
                   help="input photon numbers, comma-separated")
    p = command("verify", "number-basis oracle suite", _run_verify)
    p.add_argument("--ns", required=True, help="input photon number")
    p.add_argument("--cutoff", type=int, default=None,
                   help="photon-number cutoff (default: smallest meeting the tail budget)")
    p.add_argument("--ordering", default=None,
                   help="split ordering, e.g. E,B1,B2 (default: zero-weight labels first)")
    return parser


def parse_args(argv) -> argparse.Namespace:
    """The invocation, its numbers converted; it fully determines the output bytes.

    Besides the options it carries ``runner``, the command's ``_run_*``.
    """
    parser, argv = build_parser(), sys.argv[1:] if argv is None else argv
    command = parser.commands.get(argv[0]) if argv else None  # skips the top-level parser
    args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
    args.etas = _parse_floats(args.etas, "--etas")
    if hasattr(args, "ns"):
        args.ns = _parse_ns(args.ns)
    if args.command == "verify":
        if args.ns == region.UNCONSTRAINED:
            raise UsageError("argument --ns: verification needs finite energy")
        if args.ordering is not None:
            args.ordering = tuple(s.strip() for s in args.ordering.split(","))
    if args.command == "convergence":
        args.ns_grid = _parse_floats(args.ns_grid, "--ns-grid")
        if not args.ns_grid:
            raise UsageError("argument --ns-grid: needs at least one value")
    return args


def _convergence_columns(etas, ns_grid) -> tuple:
    """m, the unconstrained row, and the inner rows of the grid, one per energy.

    Each row is a bound vector over all 2^m masks, as ``CapacityRegion``
    holds it.  The limit and the grid are one array, computed in one
    ``region._bound_rows`` call and checked here, by one call of the check
    ``CapacityRegion`` makes.  A refusal is the one a region per energy would
    give: the limit's own failure, then its unbounded flag, then a bad grid
    energy, then the first failing energy.
    """
    spec = BroadcastChannelSpec(tuple(etas))
    try:
        f = region._bound_rows(spec, (region.UNCONSTRAINED, *ns_grid))
        region._check_polymatroid(f, spec.m)
    except ValueError:
        _bounded(region.capacity_region(spec)._f)  # the limit's refusals come first
        raise
    return spec.m, _bounded(f[0]), f[1:]


def _bounded(limit):
    if np.isinf(limit).any():
        raise ValueError("unconstrained bounds are unbounded when the receivers take everything")
    return limit


def _region_for(args):
    return region.capacity_region(BroadcastChannelSpec(args.etas), args.ns)


def _emit(text: str, output) -> int:
    """Write ``text`` to stdout or to the file ``output``; the exit status."""
    if output is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"bbcap: error: cannot write {output}: {exc.strerror or exc}\n")
        return 1
    return 0


def _numbers(prec: int, fmt: str):
    """The formatter of floats at one precision.

    A CSV float is the printf text ``"%.{prec}g" % x``, the value rounded to
    ``prec`` significant digits; it is the text ``format(x, f".{prec}g")``
    gives.  A JSON float is that rounded value printed as ``json.dumps``
    prints it.

    Up to 15 digits the rounded text is itself that JSON text whenever it has
    a point and no exponent: two decimals of at most 15 digits never round to
    the same double, so the shortest text that reads back as ``float(text)``
    has those digits, and ``repr`` writes it without an exponent from 1e-4 to
    1e16.  Other texts (``10``, ``1e-05``, ``-0``, and any at 16 or 17 digits,
    which need not read back as written) take the round trip.
    """
    pattern, as_printed = f"%.{prec}g", prec <= 15
    if fmt == "csv":
        return pattern.__mod__

    def number(x):
        text = pattern % x
        if as_printed and "." in text and "e" not in text:
            return text
        return _NONFINITE.get(text) or float.__repr__(float(text))

    return number


def _json(obj, num, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, with every float through ``num``.

    Takes dicts, lists, strings, bools, ints and floats.
    """
    if isinstance(obj, float):
        return num(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        inner = pad + "  "
        items = [f"{encode_basestring_ascii(k)}: {_json(v, num, inner)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(obj, list):
        inner = pad + "  "
        items = [_json(v, num, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    return int.__repr__(obj)


def _subset_texts(m: int, sep: str) -> tuple:
    """The text of every nonempty receiver subset, its receivers joined by
    ``sep``, and the subsets' masks, both in ``region.nonempty_subsets`` order.

    In that order the k-subsets of a..m are a before each (k - 1)-subset of
    a + 1..m, then the k-subsets of a + 1..m.  So each text is made once, as
    ``f"{a}{sep}"`` on the text of a shorter subset, and the lists are joined
    by copying references.
    """
    texts = [[] for _ in range(m + 1)]  # texts[k]: the k-subsets of a..m
    masks = [np.zeros(0, dtype=np.int64)] * (m + 1)
    for a in range(m, 0, -1):
        head, bit = f"{a}{sep}", 1 << (a - 1)
        for k in range(m - a + 1, 1, -1):  # downwards: texts[k - 1] is still that of a + 1..m
            texts[k] = list(map(head.__add__, texts[k - 1])) + texts[k]
            masks[k] = np.concatenate((masks[k - 1] | bit, masks[k]))
        texts[1].insert(0, str(a))
        masks[1] = np.concatenate(([bit], masks[1]))
    return list(itertools.chain.from_iterable(texts)), np.concatenate(masks)


def _rows(first: str, n: int, columns, last: str = "") -> str:
    """``first``, n rows and ``last`` in one join.

    A row is one piece of each column in turn; a column is a list of n texts,
    or one text for every row.  The first column is the text before a row,
    and ``first`` takes its place before the first row.
    """
    pieces = [None] * (n * len(columns))
    for i, col in enumerate(columns):
        pieces[i :: len(columns)] = col if isinstance(col, list) else [col] * n
    pieces[0] = first
    pieces.append(last)
    return "".join(pieces)


def _points(values, index, num, head: str, csv: bool) -> str:
    """The points ``values[index].T`` as CSV rows after ``head``, or as the JSON list
    of rows that ``head`` opens at depth 1 of the indent-2 layout, and the close."""
    texts = np.array(list(map(num, values.tolist())), dtype=object)
    columns = ["," if csv else ",\n      "] * (2 * len(index))  # the text before each coordinate
    columns[0] = "\n" if csv else "\n    ],\n    [\n      "
    columns[1::2] = [texts[i].tolist() for i in index]
    return _rows(head, index.shape[1], columns, "" if csv else "\n    ]\n  ]\n}")


def _run_region(args, num) -> str:
    reg = _region_for(args)
    csv = args.fmt == "csv"
    texts, masks = _subset_texts(reg.m, "+" if csv else ",\n        ")
    values = reg._f[masks]
    bounds = list(map(num, values.tolist()))
    unbounded = np.flatnonzero(np.isinf(values)).tolist()
    if csv:
        for i in unbounded:
            bounds[i] = "unbounded"
        return _rows("subset,bound_bits\n", len(texts), ("\n", texts, ",", bounds))
    # the largest output of all: its 2^m - 1 entries at depth 1 of the
    # indent-2 layout are written here, not one dict at a time by _json
    key = ['\n      ],\n      "bound_bits": '] * len(texts)
    for i in unbounded:
        key[i], bounds[i] = '\n      ],\n      "unbounded": true', ""
    entry = '{\n      "subset": [\n        '
    head = f'{{\n  "m": {reg.m},\n  "energy": {_json(reg.energy, num)},\n  "constraints": [\n    '
    columns = ("\n    },\n    " + entry, texts, key, bounds)
    return _rows(head + entry, len(texts), columns, "\n    }\n  ]\n}")


def _run_vertices(args, num) -> str:
    reg, csv = _region_for(args), args.fmt == "csv"
    if csv:
        head = ",".join(f"r{i}_bits" for i in range(1, reg.m + 1)) + "\n"
    else:  # the energy is printed in full, unlike the region command's
        energy = _json(reg.energy, num) if reg.energy == region.UNCONSTRAINED else repr(reg.energy)
        head = f'{{\n  "m": {reg.m},\n  "energy": {energy},\n  "vertices": [\n    [\n      '
    return _points(*region._vertex_ranks(reg), num, head, csv)


def _run_boundary(args, num) -> str:
    pts, csv = region.boundary_2d(_region_for(args), args.points), args.fmt == "csv"
    values, index = np.unique(pts.ravel(), return_inverse=True)
    head = "r1_bits,r2_bits\n" if csv else '{\n  "points": [\n    [\n      '
    return _points(values, index.reshape(pts.shape).T, num, head, csv)


def _run_convergence(args, num) -> str:
    m, bound, rows = _convergence_columns(args.etas, args.ns_grid)
    csv = args.fmt == "csv"
    texts, masks = _subset_texts(m, "+" if csv else ",\n      ")
    bound, rows = bound[masks], rows[:, masks]
    blocks, limit = [], list(map(num, bound.tolist()))
    # one energy's texts at a time: the whole grid's at once are no faster,
    # and hold every text of the table
    for n_s, row in zip(map(region._energy, args.ns_grid), rows):  # checked: -0 prints as 0
        inner, gap = (list(map(num, b.tolist())) for b in (row, bound - row))
        if csv:
            lead, cells = f"\n{num(n_s)},", (texts, ",", inner, ",", limit, ",", gap)
            first = "ns,subset,inner_bound_bits,asymptotic_bound_bits,gap_bits" + lead
        else:  # rows at depth 1 of the indent-2 layout, each closing the one before
            lead = f'{{\n    "ns": {num(n_s)},\n    "subset": [\n      '
            cells = (texts, '\n    ],\n    "inner_bound_bits": ', inner,
                     ',\n    "asymptotic_bound_bits": ', limit, ',\n    "gap_bits": ', gap)
            lead, first = "\n  },\n  " + lead, "[\n  " + lead
        blocks.append(_rows(lead if blocks else first, len(texts), (lead, *cells)))
    if not csv:
        blocks.append("\n  }\n]")
    return "".join(blocks)


def _run_verify(args, num) -> str:
    record = fock.verify_conditional_entropies(
        BroadcastChannelSpec(args.etas), args.ns, cutoff=args.cutoff, ordering=args.ordering
    )
    if args.fmt == "json":
        text = _json(record, num)
    else:
        keys = ("gaussian_bits", "fock_bits", "closed_form_bits", "abs_dev", "tail_mass")
        rows = [(c["case"].replace(",", ";"), *(num(c[k]) for k in keys), str(c["pass"]).lower())
                for c in record["cases"]]
        text = "\n".join(["case," + ",".join(keys) + ",pass", *map(",".join, rows)])
    return text if record["pass"] else _FailedCheck(text)


class _FailedCheck(str):
    """The output of a verification that ran and failed: printed, then exit 3."""


def run(args: argparse.Namespace) -> int:
    """Execute one invocation from :func:`parse_args`; returns the process exit status.

    A bad ``BBC_CAPACITY_PRECISION`` raises :class:`UsageError` before the run."""
    num = _numbers(_precision(), args.fmt)
    try:
        text = args.runner(args, num)
    except InconclusiveVerificationError as exc:
        sys.stderr.write(f"bbcap: inconclusive: {exc}\n")
        return 2
    except MemoryError as exc:
        sys.stderr.write(f"bbcap: inconclusive: out of memory: {exc}\n")
        return 2
    except (ValueError, RuntimeError) as exc:
        sys.stderr.write(f"bbcap: error: {exc}\n")
        return 1
    return _emit(text + "\n", args.output) or (3 if isinstance(text, _FailedCheck) else 0)


def main(argv=None) -> int:
    try:
        return run(parse_args(argv))
    except UsageError as exc:
        sys.stderr.write(f"bbcap: usage error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
