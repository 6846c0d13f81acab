"""Spans recorded from outside the program, around calls into each layer.

`Tracer.install` replaces each listed public function (and two methods)
with a wrapper in every jcouple module that binds it, so calls made through
`from .wigner import cg` and the like are caught too.  A span is
(name, start, end, parent); spans live in flat arrays until the run ends,
and `summary` turns them into calls and self time per name.  Self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import math
import time
from array import array
from collections import Counter

# (span name, module, attribute); an attribute "Class.method" patches the class.
LAYER_FUNCTIONS = (
    ("numerics.factorial_factorized", "numerics", "factorial_factorized"),
    ("numerics.to_sum", "numerics", "Surd.to_sum"),
    ("numerics.PhasedSurdSum.add", "numerics", "PhasedSurdSum.__add__"),
    ("wigner.cg", "wigner", "cg"),
    ("wigner.three_j", "wigner", "three_j"),
    ("coupling.enumerate_chains", "coupling", "enumerate_chains"),
    ("coupling.generalized_coupling_coefficient", "coupling", "generalized_coupling_coefficient"),
    ("coupling.expand_coupled_state", "coupling", "expand_coupled_state"),
    ("coupling.enumerate_coupling_trees", "coupling", "enumerate_coupling_trees"),
    ("coupling.export_dot", "coupling", "export_dot"),
    ("timerev.audit_first_symmetry", "timerev", "audit_first_symmetry"),
    ("timerev.audit_second_symmetry", "timerev", "audit_second_symmetry"),
    ("timerev.kramers_overlap", "timerev", "kramers_overlap"),
    ("kepler.spectrum", "kepler", "spectrum"),
    ("kepler.merge_spectrum", "kepler", "merge_spectrum"),
    ("cli.main", "cli", "main"),
)
MODULES = ("numerics", "wigner", "coupling", "timerev", "particles", "kepler", "cli")


class DeadlineExceeded(Exception):
    """Raised from the interval-timer signal when an operation overruns."""


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.cg_seen: set = set()
        self.on = True

    def _wrap(self, span: str, fn, after=None):
        name_id = len(self.names)
        self.names.append(span)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(self.stack[-1])
            self.start.append(clock())
            self.end.append(math.nan)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except DeadlineExceeded:
                self.counts[span + ".timeouts"] += 1
                raise
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_only(self, key: str, fn):
        def wrapper(*args, **kwargs):
            if self.on:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # per-call hooks for the ratio counters
    def _after_cg(self, args, result) -> None:
        self.counts["wigner.cg.seen"] += args[0] not in self.cg_seen
        self.cg_seen.add(args[0])

    def _after_coefficient(self, args, result) -> None:
        self.counts["coupling.generalized_coupling_coefficient.nonzero"] += not result.is_zero

    def _after_expand(self, args, result) -> None:
        tuples = 1
        for j in args[0].js:
            tuples *= j.twice + 1
        self.counts["coupling.expand_coupled_state.tuples"] += tuples
        self.counts["coupling.expand_coupled_state.amplitudes"] += len(result.amplitudes)

    def _after_trees(self, args, result) -> None:
        self.counts["coupling.trees.built"] += len(result)

    def _after_dot(self, args, result) -> None:
        self.counts["coupling.trees.emitted"] += 1

    def install(self) -> None:
        """Patch every binding of the layer functions in the jcouple modules."""
        mods = [importlib.import_module("jcouple")]
        mods += [importlib.import_module(f"jcouple.{m}") for m in MODULES]
        hooks = {
            "wigner.cg": self._after_cg,
            "coupling.generalized_coupling_coefficient": self._after_coefficient,
            "coupling.expand_coupled_state": self._after_expand,
            "coupling.enumerate_coupling_trees": self._after_trees,
            "coupling.export_dot": self._after_dot,
        }
        for span, module, attr in LAYER_FUNCTIONS:
            owner = importlib.import_module(f"jcouple.{module}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self._wrap(span, getattr(cls, method), hooks.get(span)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original, hooks.get(span))
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        tree_cls = importlib.import_module("jcouple.coupling").CouplingTree
        tree_cls.to_nested = self._count_only("coupling.trees.emitted", tree_cls.to_nested)

    def close_open_spans(self) -> None:
        """End every span left open when a deadline unwound the stack mid-bookkeeping."""
        now = time.perf_counter()
        for idx in self.stack[1:]:
            if math.isnan(self.end[idx]):
                self.end[idx] = now
        del self.stack[1:]

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, total_ms and self_ms per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_of[i]]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_ms"] += duration * 1e3
            row["self_ms"] += (duration - child[i]) * 1e3
        return out
