"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions and the public methods (plus
``__init__``) of the classes defined in each layer module, and rebinds every
reference to a wrapped function in every module of the package, so calls
between layers go through the wrappers.  Nothing under the package's source
changes.  Generator functions are left alone: their work runs in the caller
that iterates them and is counted there.

A span is one wrapped call: name, start, end, parent span and op id, kept in
flat arrays and written out with ``save``.  A layer's self time is the time
of its spans minus the time covered by their child spans.  Hooks read sizes
from a call's arguments or result (e.g. the block dimensions of a reduced
density matrix); a hook that no longer fits the program drops its metric and
never fails the run, and so does a wrapped name the program no longer has.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "bbcap"
LAYERS = ("cli", "region", "channel", "gaussian", "fock")

# region functions that evaluate a rate bound, by any route
BOUND_FUNCS = (
    "region.inner_bound_finite",
    "region.asymptotic_bound",
    "region.inner_bound_finite_gaussian",
    "region.merging_gain",
    "region.merging_gain_gaussian",
)
RANK_FLOOR = 1e-14


def _greedy_candidates(m: int) -> int:
    """Points the greedy rule visits: the origin plus every ordered subset."""
    return 1 + sum(math.perm(m, k) for k in range(1, m + 1))


def _hook_vertices(c, args, result):
    c["vertex_candidates"] += _greedy_candidates(args[0].m)
    c["vertex_unique"] += len(result)


def _hook_network(c, args, result):
    c["stages"] += len(result.stages)


def _hook_symplectic(c, args, result):
    c["max_modes"] = max(c["max_modes"], args[0].n_modes)


def _hook_split(c, args, result):
    c["amplitudes"] += len(result.amplitudes)


def _hook_reduce(c, args, result):
    dims = [len(basis) for basis, _ in result.blocks]
    c["max_sector_dim"] = max([c["max_sector_dim"]] + dims)
    c["dense_bytes"] += sum(8 * d * d for d in dims)


def _hook_eigen(c, args, result):
    c["eig_computed"] += len(result)
    c["eig_kept"] += int(np.count_nonzero(np.asarray(result) > RANK_FLOOR))


HOOKS = {
    "region.vertices": _hook_vertices,
    "channel.build_network": _hook_network,
    "gaussian.symplectic_eigenvalues": _hook_symplectic,
    "fock.split_with_vacuum": _hook_split,
    "fock.reduce_density": _hook_reduce,
    "fock.DensityMatrix.eigenvalues": _hook_eigen,
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.op = -1
        self.failed_hooks = set()
        self.reset()

    def reset(self):
        """Drop recorded spans and counts (after warm-up)."""
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counts = dict.fromkeys(
            ("vertex_candidates", "vertex_unique", "stages", "max_modes", "amplitudes",
             "max_sector_dim", "dense_bytes", "eig_computed", "eig_kept"), 0)

    def _wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op_id.append(self.op)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if hook is not None and name not in self.failed_hooks:
                try:
                    hook(self.counts, args, result)
                except Exception:       # the program changed shape; drop the metric
                    self.failed_hooks.add(name)
            return result

        return traced

    def install(self):
        root = importlib.import_module(PACKAGE)
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj) and not issubclass(obj, (BaseException, tuple)):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (meth == "__init__" or not meth.startswith("_")):
                            setattr(obj, meth, self._wrap(f"{layer}.{obj.__name__}.{meth}", fn))
                elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    replaced[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in (root, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self._columns())

    def _columns(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op_id": np.frombuffer(self.op_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer figures per op (maxima and ratios over the run)."""
        col = self._columns()
        names = self.names
        k = len(names)
        nid, parent = col["name_id"], col["parent"]
        dur = col["end"] - col["start"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in names], dtype=int)
        span_layer = layer_of[nid] if len(nid) else np.zeros(0, dtype=int)
        self_s = np.bincount(span_layer, weights=dur - covered, minlength=len(LAYERS))
        calls = np.bincount(nid, minlength=k)
        incl_s = np.bincount(nid, weights=dur, minlength=k)
        have = set(names)
        c = self.counts
        per_op = 1.0 / max(n_ops, 1)

        def count(*wanted):
            return float(sum(calls[self._ids[n]] for n in wanted if n in have)) * per_op

        def ms(name):
            return float(incl_s[self._ids[name]]) * 1e3 * per_op

        out = {}
        for i, layer in enumerate(LAYERS):
            if any(n.startswith(layer + ".") for n in names):
                out[f"{layer}.self_ms"] = float(self_s[i]) * 1e3 * per_op
        rules = [
            ("region.bound_evals", BOUND_FUNCS[:1], lambda: count(*BOUND_FUNCS)),
            ("region.check_ms", ["region.CapacityRegion.__init__"],
             lambda: ms("region.CapacityRegion.__init__")),
            ("region.vertex_candidates", ["region.vertices"],
             lambda: c["vertex_candidates"] * per_op),
            ("region.vertex_yield", ["region.vertices"],
             lambda: c["vertex_unique"] / c["vertex_candidates"] if c["vertex_candidates"] else 0.0),
            ("region.covariance_calls", ["gaussian.conditional_entropy"],
             lambda: self._under_layer("gaussian.conditional_entropy", "region", col) * per_op),
            ("channel.networks_built", ["channel.build_network"],
             lambda: count("channel.build_network")),
            ("channel.stages_applied", ["channel.build_network"], lambda: c["stages"] * per_op),
            ("gaussian.symplectic_eig_calls", ["gaussian.symplectic_eigenvalues"],
             lambda: count("gaussian.symplectic_eigenvalues")),
            ("gaussian.eig_ms", ["gaussian.symplectic_eigenvalues"],
             lambda: ms("gaussian.symplectic_eigenvalues")),
            ("gaussian.max_modes", ["gaussian.symplectic_eigenvalues"],
             lambda: float(c["max_modes"])),
            ("fock.split_ms", ["fock.split_with_vacuum"], lambda: ms("fock.split_with_vacuum")),
            ("fock.reduce_ms", ["fock.reduce_density"], lambda: ms("fock.reduce_density")),
            ("fock.eig_ms", ["fock.DensityMatrix.eigenvalues"],
             lambda: ms("fock.DensityMatrix.eigenvalues")),
            ("fock.amplitudes", ["fock.split_with_vacuum"], lambda: c["amplitudes"] * per_op),
            ("fock.max_sector_dim", ["fock.reduce_density"],
             lambda: float(c["max_sector_dim"])),
            ("fock.dense_bytes", ["fock.reduce_density"], lambda: c["dense_bytes"] * per_op),
            ("fock.rank_yield", ["fock.DensityMatrix.eigenvalues"],
             lambda: c["eig_kept"] / c["eig_computed"] if c["eig_computed"] else 0.0),
        ]
        for metric, needs, value in rules:
            if all(n in have and n not in self.failed_hooks for n in needs):
                out[metric] = float(value())
        return out

    def _under_layer(self, name: str, layer: str, col: dict) -> int:
        """Spans of ``name`` that have a span of ``layer`` among their ancestors."""
        nid, parent = col["name_id"], col["parent"]
        span_layer = [n.split(".")[0] for n in self.names]
        hits = 0
        for idx in np.flatnonzero(nid == self._ids[name]):
            p = parent[idx]
            while p >= 0 and span_layer[nid[p]] != layer:
                p = parent[p]
            hits += p >= 0
        return hits
