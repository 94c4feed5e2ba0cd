"""Spans around the calls into each powertour module, for the traced run.

The tracer wraps every public function of the package's modules at every
module attribute that binds it (``powertour.mst.pairwise_sq``,
``powertour.greedy.pairwise_sq``, ``powertour.pairwise_sq``, ...) and in
every module-level registry dict that holds it (``powertour.suites.SUITES``),
so a call is seen however the caller reached the function.  The wrappers
are installed only around a traced op and removed after it; the untraced
run never sees them.

Each call records one span: name, start, end, parent span and op id.  Spans
stay in memory and are written out once, at the end of the run.  A few
wrappers also read counts off the result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("geometry", "structures", "mst", "sekanina", "greedy", "two_phase",
          "planar", "constructions", "oracle", "verifiers", "suites", "cli")


def _count_pairwise_sq(counts, d2):
    n = d2.shape[0]
    counts["geometry.pairwise_sq.bytes_computed"] += 8 * n * n
    counts["pairs_computed"] += n * (n - 1) // 2


def _count_mst(counts, tree):
    counts["accepted_edges"] += len(tree.edges)


def _count_forest(counts, trees):
    counts["mst.forest_trees"] += len(trees)
    counts["accepted_edges"] += sum(len(t.edges) for t in trees)


def _count_greedy(counts, result):
    joins = len(result[1])
    counts["greedy.joins"] += joins
    counts["accepted_edges"] += joins


def _count_two_phase(counts, result):
    report = result[1]
    counts["two_phase.tree_count"] += len(report.tree_sizes)
    counts["two_phase.greedy_added"] += report.greedy_added


# span name -> reads counts off the call's result
COUNTERS = {
    "geometry.pairwise_sq": _count_pairwise_sq,
    "mst.build_mst": _count_mst,
    "mst.build_threshold_forest": _count_forest,
    "greedy.greedy_ham_path": _count_greedy,
    "two_phase.two_phase_tour": _count_two_phase,
}

COUNT_NAMES = ("geometry.pairwise_sq.bytes_computed", "pairs_computed", "accepted_edges",
               "mst.forest_trees", "greedy.joins", "two_phase.tree_count",
               "two_phase.greedy_added")


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack: list[int] = []
        self._op_id = -1
        self._bindings = None
        self.functions: list[str] = []

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op_scope(self, name: str, op_id: int):
        """Wrap the package's functions and record one root span ``name``
        for op ``op_id``; unwrap on exit."""
        bindings = self._wrap_all()
        for namespace, key, _fn, wrapper in bindings:
            namespace[key] = wrapper
        self._op_id = op_id
        root = self.open(name)
        try:
            yield
        finally:
            self.close(root)
            for namespace, key, fn, _wrapper in bindings:
                namespace[key] = fn

    def _wrap_all(self):
        if self._bindings is None:
            wrappers = {}
            for layer in LAYERS:
                module = importlib.import_module(f"powertour.{layer}")
                for attr, obj in vars(module).items():
                    if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                            and not attr.startswith("_")):
                        name = f"{layer}.{attr}"
                        wrappers[id(obj)] = self._wrap(name, obj)
                        self.functions.append(name)
            # (namespace, key, function, wrapper): a module's __dict__ or a
            # registry dict, each scanned once
            namespaces = {}
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "powertour" and not mod_name.startswith("powertour."):
                    continue
                namespaces[id(vars(module))] = vars(module)
                for obj in vars(module).values():
                    if isinstance(obj, dict):
                        namespaces[id(obj)] = obj
            self._bindings = [(namespace, key, obj, wrappers[id(obj)])
                              for namespace in namespaces.values()
                              for key, obj in namespace.items()
                              if inspect.isfunction(obj) and id(obj) in wrappers]
        return self._bindings

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the part its child spans cover.

        Children of one span run one after another on the single caller
        thread, so the part they cover is the sum of their durations.
        """
        dur = _column(self.end) - _column(self.start)
        parent = _column(self.parent)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def layer_metrics(self) -> dict[str, float]:
        """``<module>.<function>.{calls,self_s}`` for every wrapped function
        (zero when never called), the counts, and the pairs computed per
        accepted tree or path edge."""
        names = _column(self.name)
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=self.self_times(), minlength=len(self.names))
        out: dict[str, float] = {}
        for fn in self.functions:
            i = self._name_ids.get(fn)
            out[f"{fn}.calls"] = 0 if i is None else int(calls[i])
            out[f"{fn}.self_s"] = 0.0 if i is None else float(self_s[i])
        out.update(self.counts)
        accepted = self.counts["accepted_edges"]
        out["geometry.pairs_per_accepted_edge"] = (
            self.counts["pairs_computed"] / accepted if accepted else 0.0)
        return out

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=_column(self.name),
                 start=_column(self.start), end=_column(self.end),
                 parent=_column(self.parent), op=_column(self.op))


def _column(values: array) -> np.ndarray:
    """A numpy copy, so the array can still grow afterwards."""
    return np.array(values, dtype=np.float64 if values.typecode == "d" else np.int64)
