"""Command-line front end.

Commands
--------
region       rate-region constraints (JSON or CSV)
vertices     extreme points of the region
boundary     two-receiver upper boundary polyline (plot-ready)
convergence  finite-energy bounds against their unconstrained limits
verify       number-basis oracle suite against the Gaussian computation

Numeric output is printed with 9 significant digits by default; set
``BBC_CAPACITY_PRECISION`` to override.  Exit status: 0 on success, 1 on a
domain or usage error, 2 when a verification is inconclusive (truncation
budget not met, or the run does not fit in memory).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from . import fock, region
from .channel import BroadcastChannelSpec
from .fock import InconclusiveVerificationError

__all__ = ["RunConfig", "main", "run", "convergence_table"]

DEFAULT_PRECISION = 9


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2); route usage problems through exit code 1
    # so that 2 stays reserved for inconclusive verification
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    """Parsed invocation; one instance fully determines the output bytes."""

    command: str
    etas: tuple
    ns: object = "inf"            # "inf" or a float
    ordering: tuple = None
    cutoff: int = None
    points: int = 200
    ns_grid: tuple = ()
    output: str = None
    fmt: str = "json"


def _parse_floats(text: str, flag: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise UsageError(f"argument {flag}: expected comma-separated reals, got {text!r}")


def _parse_ns(text: str):
    if text.strip().lower() == "inf":
        return "inf"
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

    def common(p, ns_default="inf"):
        p.add_argument("--etas", required=True,
                       help="receiver transmittances, comma-separated")
        p.add_argument("--ns", default=ns_default,
                       help="input photon number, or 'inf' for the unconstrained region")
        p.add_argument("--output", default=None, help="write to this file instead of stdout")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default=None)

    common(sub.add_parser("region", help="rate-region constraints"))
    common(sub.add_parser("vertices", help="extreme points of the region"))
    p = sub.add_parser("boundary", help="two-receiver boundary polyline")
    common(p)
    p.add_argument("--points", type=int, default=200, help="minimum number of points")
    p = sub.add_parser("convergence", help="finite-energy bounds vs their limits")
    p.add_argument("--etas", required=True)
    p.add_argument("--ns-grid", dest="ns_grid", required=True,
                   help="input photon numbers, comma-separated")
    p.add_argument("--output", default=None)
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default=None)
    p = sub.add_parser("verify", help="number-basis oracle suite")
    p.add_argument("--etas", required=True)
    p.add_argument("--ns", required=True)
    p.add_argument("--cutoff", type=int, default=None,
                   help="photon-number cutoff (default: smallest meeting the tail budget)")
    p.add_argument("--ordering", default=None,
                   help="split ordering, e.g. E,B1,B2 (default: zero-weight labels first)")
    p.add_argument("--output", default=None)
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default=None)
    return parser


def parse_args(argv) -> RunConfig:
    ns_args = build_parser().parse_args(argv)
    etas = _parse_floats(ns_args.etas, "--etas")
    config = RunConfig(command=ns_args.command, etas=etas)
    if hasattr(ns_args, "ns"):
        config.ns = _parse_ns(str(ns_args.ns))
    if ns_args.command == "verify":
        if config.ns == "inf":
            raise UsageError("argument --ns: verification needs finite energy")
        config.cutoff = ns_args.cutoff
        if ns_args.ordering is not None:
            config.ordering = tuple(s.strip() for s in ns_args.ordering.split(","))
    if ns_args.command == "boundary":
        config.points = ns_args.points
    if ns_args.command == "convergence":
        config.ns_grid = _parse_floats(ns_args.ns_grid, "--ns-grid")
        if not config.ns_grid:
            raise UsageError("argument --ns-grid: needs at least one value")
    config.output = ns_args.output
    config.fmt = ns_args.fmt or ("csv" if ns_args.command == "boundary" else "json")
    return config


def convergence_table(etas, ns_grid) -> list:
    """Rows (ns, subset, inner bound, unconstrained bound, gap) for every T."""
    spec = BroadcastChannelSpec(tuple(etas))
    if spec.eta_total >= 1.0 - 1e-12:
        raise ValueError("unconstrained bounds are unbounded when the receivers take everything")
    for n_s in ns_grid:
        if n_s < 0 or not math.isfinite(n_s):
            raise ValueError(f"grid photon numbers must be finite and nonnegative, got {n_s!r}")
    limits = region.capacity_region(spec).constraints
    rows = []
    for n_s in ns_grid:
        for inner, limit in zip(region.capacity_region(spec, n_s).constraints, limits):
            rows.append(
                {
                    "ns": float(n_s),
                    "subset": sorted(inner.subset),
                    "inner_bound_bits": inner.bound,
                    "asymptotic_bound_bits": limit.bound,
                    "gap_bits": limit.bound - inner.bound,
                }
            )
    return rows


def _region_for(config: RunConfig):
    spec = BroadcastChannelSpec(config.etas)
    energy = region.UNCONSTRAINED if config.ns == "inf" else config.ns
    return region.capacity_region(spec, energy)


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

    A JSON float is the value rounded to ``prec`` significant digits and
    printed as ``json.dumps`` prints it; a CSV float is the rounded text.
    """
    spec = f".{prec}g"
    if fmt == "csv":
        return lambda x: format(x, spec)
    return lambda x: float.__repr__(float(format(x, spec)))


class _Raw(str):
    """JSON text the writer copies as it is."""


def _json(obj, num, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, with every float through ``num``.

    Takes dicts, lists, strings, bools, ints and floats.  A tuple holds
    JSON texts already written, one per item (a rate point, a subset).
    """
    if isinstance(obj, float):
        return num(obj)
    if isinstance(obj, str):
        return obj if type(obj) is _Raw else encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        inner = pad + "  "
        items = [f"{encode_basestring_ascii(k)}: {_json(v, num, inner)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        inner = pad + "  "
        items = obj if type(obj) is tuple else [_json(v, num, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    return int.__repr__(obj)


def _csv(header: str, rows) -> str:
    """One line per row of cell texts, under ``header``."""
    return "\n".join([header, *map(",".join, rows)])


def _points(pts, num) -> list:
    """Rate points as rows of float texts."""
    return [tuple(map(num, p)) for p in pts]


def _run_region(config: RunConfig, num) -> str:
    reg = _region_for(config)
    f = reg._f.tolist()
    subsets = region._ordered_subsets(reg.m, [str(i) for i in range(1, reg.m + 1)])
    if config.fmt == "csv":
        return _csv("subset,bound_bits", [
            ("+".join(t), "unbounded" if f[mask] == math.inf else num(f[mask]))
            for t, mask in subsets
        ])
    # the largest output of all: its 2^m - 1 entries are written here, at
    # depth 1 of the indent-2 layout, rather than one dict at a time by _json
    entries = ",\n    ".join([
        '{\n      "subset": [\n        ' + ",\n        ".join(t) + "\n      ],\n      "
        + ('"unbounded": true' if f[mask] == math.inf else '"bound_bits": ' + num(f[mask]))
        + "\n    }"
        for t, mask in subsets
    ])
    data = {"m": reg.m, "energy": reg.energy, "constraints": _Raw(f"[\n    {entries}\n  ]")}
    return _json(data, num)


def _run_vertices(config: RunConfig, num) -> str:
    reg = _region_for(config)
    pts = _points(region.vertices(reg), num)
    if config.fmt == "json":
        energy = reg.energy
        if energy != region.UNCONSTRAINED:  # printed in full, unlike the region command's
            energy = _Raw(float.__repr__(energy))
        return _json({"m": reg.m, "energy": energy, "vertices": pts}, num)
    return _csv(",".join(f"r{i}_bits" for i in range(1, reg.m + 1)), pts)


def _run_boundary(config: RunConfig, num) -> str:
    pts = _points(region.boundary_2d(_region_for(config), config.points), num)
    if config.fmt == "json":
        return _json({"points": pts}, num)
    return _csv("r1_bits,r2_bits", pts)


def _run_convergence(config: RunConfig, num) -> str:
    rows = convergence_table(config.etas, config.ns_grid)
    if config.fmt == "json":
        return _json(rows, num)
    return _csv(
        "ns,subset,inner_bound_bits,asymptotic_bound_bits,gap_bits",
        [
            (num(r["ns"]), "+".join(map(str, r["subset"])), num(r["inner_bound_bits"]),
             num(r["asymptotic_bound_bits"]), num(r["gap_bits"]))
            for r in rows
        ],
    )


def _run_verify(config: RunConfig, num) -> str:
    spec = BroadcastChannelSpec(config.etas)
    report = fock.verify_conditional_entropies(
        spec, config.ns, cutoff=config.cutoff, ordering=config.ordering
    )
    schmidt = [
        fock.schmidt_spectrum_check(eta, config.ns, cutoff=report.cutoff)
        for eta in spec.etas
    ]
    if config.fmt == "json":
        data = report.to_dict()
        data["schmidt"] = [s.to_dict() for s in schmidt]
        data["pass"] = report.passed and all(s.passed for s in schmidt)
        return _json(data, num)
    return _csv(
        "case,gaussian_bits,fock_bits,closed_form_bits,abs_dev,tail_mass,pass",
        [
            (c.case.replace(",", ";"), num(c.gaussian_bits), num(c.fock_bits),
             num(c.closed_form_bits), num(c.abs_dev), num(c.tail_mass), str(c.passed).lower())
            for c in report.cases
        ],
    )


_RUNNERS = {
    "region": _run_region,
    "vertices": _run_vertices,
    "boundary": _run_boundary,
    "convergence": _run_convergence,
    "verify": _run_verify,
}


def run(config: RunConfig) -> int:
    """Execute one parsed invocation; returns the process exit status."""
    try:
        text = _RUNNERS[config.command](config, _numbers(_precision(), config.fmt))
    except InconclusiveVerificationError as exc:
        sys.stderr.write(f"bbcap: inconclusive: {exc}\n")
        return 2
    except MemoryError as exc:
        sys.stderr.write(f"bbcap: inconclusive: out of memory: {exc}\n")
        return 2
    except (ValueError, RuntimeError) as exc:
        sys.stderr.write(f"bbcap: error: {exc}\n")
        return 1
    return _emit(text + "\n", config.output)


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(f"bbcap: usage error: {exc}\n")
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
