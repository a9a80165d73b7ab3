"""Span tracing around the engine's public functions, installed from outside.

`install` replaces each traced function by a recording wrapper in its
defining module and in every `omegaramsey` module that imported the name,
so nested calls are caught without editing the engine.  Constructors of
traced classes are wrapped through the class's `__init__`.  A span records
its name, start, end, parent span and instance id; spans stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

#: module -> public functions (or classes, for their constructor) to trace
TRACED = {
    "ground": ("check_d_omega_cover", "admissible", "enumerate_admissible",
               "admissible_subsets"),
    "ellentuck": ("accepts", "rejects", "decide", "cr_witness", "is_nowhere_dense",
                  "nwd_witness", "strong_reject_set"),
    "games": ("play", "decide_all_finite", "s1_select"),
    "ramsey": ("solve_partition", "branch_walk", "extract_homogeneous",
               "merge_colors_solve", "project_solve", "stepup_solve",
               "build_partition_tree", "Coloring"),
    "barriers": ("nw_homogenize", "fg_witness", "is_dense", "ramsey_via_nw"),
    "mathias": ("valid_condition", "extends", "compatible", "dense_meet"),
    "oracle": ("brute_accepts", "brute_rejects", "brute_cr", "brute_homogeneous",
               "brute_nw"),
    "cli": ("run",),
}

ROUTES = ("pigeonhole", "branch", "exhaustive", "classical", "merge", "stepup")


def _outcome_keys(name: str, result) -> tuple[str, ...]:
    """Counters of useful outcomes, read from public fields of a result."""
    if name == "games.play":
        return ("games.play.completed",)
    if name == "games.decide_all_finite":
        return ("games.decide_all_finite.completed",) \
            if type(result).__name__ == "DecidedAll" else ()
    if name == "ramsey.solve_partition" and result is not None:
        route = result.route if result.route in ROUTES else "other"
        keys = ("ramsey.solve_partition.answered",
                f"ramsey.solve_partition.route.{route}")
        if result.admissible.value == "true":
            keys += ("ramsey.solve_partition.admissible",)
        return keys
    if name == "barriers.nw_homogenize" and result.kind == "homogeneous":
        return ("barriers.nw_homogenize.homogeneous",)
    return ()


class Tracer:
    """In-memory span store; `enabled` gates recording, `instance` tags spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_instance = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_child = array("d")     # time covered by direct children
        self.span_nested = array("b")    # inside a span of the same name
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.enabled = False
        self.instance = -1

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_instance.append(self.instance)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_nested.append(1 if self.active[nid] else 0)
        self.span_child.append(0.0)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.active[nid] += 1
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int, nid: int) -> None:
        end = perf_counter()
        self.span_end[idx] = end
        self.stack.pop()
        self.active[nid] -= 1
        parent = self.span_parent[idx]
        if parent >= 0:
            self.span_child[parent] += end - self.span_start[idx]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not self.enabled:
                    yield from fn(*args, **kwargs)
                    return
                self.counts[name + ".calls"] += 1
                inner = fn(*args, **kwargs)
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx, nid)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, nid)
            for key in _outcome_keys(name, result):
                self.counts[key] += 1
            return result
        return wrapper

    def absorb(self, dump: dict, instance: int) -> None:
        """Append the spans and counts of another process (a CLI launcher)."""
        base = len(self.span_start)
        ids = [self._id(n) for n in dump["names"]]
        for nid, parent, start, end, child, nested in zip(
                dump["name"], dump["parent"], dump["start"], dump["end"],
                dump["child"], dump["nested"]):
            self.span_name.append(ids[nid])
            self.span_instance.append(instance)
            self.span_parent.append(parent + base if parent >= 0 else -1)
            self.span_start.append(start)
            self.span_end.append(end)
            self.span_child.append(child)
            self.span_nested.append(nested)
        self.counts.update(dump["counts"])

    def dump(self) -> dict:
        return {"names": self.names, "name": list(self.span_name),
                "instance": list(self.span_instance), "parent": list(self.span_parent),
                "start": list(self.span_start), "end": list(self.span_end),
                "child": list(self.span_child),
                "nested": list(self.span_nested), "counts": dict(self.counts)}

    def summary(self, names=None) -> dict:
        """Per traced name: calls, total_s (outermost spans) and self_s."""
        if names is None:
            names = [f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns]
        total: Counter = Counter()
        self_s: Counter = Counter()
        for nid, start, end, child, nested in zip(
                self.span_name, self.span_start, self.span_end, self.span_child,
                self.span_nested):
            dur = end - start
            self_s[nid] += dur - child
            if not nested:
                total[nid] += dur
        return {name: {"calls": self.counts[name + ".calls"],
                       "total_s": float(total[self.name_id.get(name)]),
                       "self_s": float(self_s[self.name_id.get(name)])}
                for name in names}


def install(tracer: Tracer) -> None:
    """Wrap every TRACED name wherever an omegaramsey module holds it."""
    for module in TRACED:
        importlib.import_module("omegaramsey." + module)
    loaded = [m for name, m in list(sys.modules.items())
              if m is not None and (name == "omegaramsey" or name.startswith("omegaramsey."))]
    for module, names in TRACED.items():
        home = sys.modules["omegaramsey." + module]
        for fn_name in names:
            original = getattr(home, fn_name)
            label = f"{module}.{fn_name}"
            if isinstance(original, type):
                original.__init__ = tracer.wrap(label, original.__init__)
                continue
            wrapped = tracer.wrap(label, original)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
