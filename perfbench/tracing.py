"""Spans around gaussgeom's public entry points, recorded from outside.

A :class:`Tracer` replaces each traced function where its callers look it up:
in every loaded ``gaussgeom`` module (and the recheck script) that holds it
under some name, because ``solver`` imports the ``connections`` functions by
name. Methods are replaced on their class. Per-scalar ``QSqrt2`` arithmetic is
not traced. Spans stay in memory as ``(name, start, end, parent, op,
failed)`` tuples and are written out once, when the run ends.

While the tracer is not installed nothing is wrapped, so untraced code runs
exactly as the program ships.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

#: (module, attribute, span name) for plain functions
FUNCTIONS = (
    ("gaussgeom.algebra", "lie_algebra", "algebra.lie_algebra"),
    ("gaussgeom.solver", "assemble", "solver.assemble"),
    ("gaussgeom.solver", "solve", "solver.solve"),
    ("gaussgeom.connections", "predicate_suite", "connections.predicate_suite"),
    ("gaussgeom.connections", "curvature", "connections.curvature"),
    (
        "gaussgeom.connections",
        "is_conjugate_symmetric",
        "connections.is_conjugate_symmetric",
    ),
    (
        "gaussgeom.connections",
        "lc_difference_derivative",
        "connections.lc_difference_derivative",
    ),
    (
        "gaussgeom.connections",
        "connection_cubic_derivative",
        "connections.connection_cubic_derivative",
    ),
    ("gaussgeom.connections", "lc_cubic_derivative", "connections.lc_cubic_derivative"),
    ("gaussgeom.manifold", "mc_oracle_metric", "manifold.mc_oracle_metric"),
    ("gaussgeom.manifold", "mc_oracle_cubic", "manifold.mc_oracle_cubic"),
    ("gaussgeom.manifold", "fisher_metric", "manifold.fisher_metric"),
    ("gaussgeom.manifold", "amari_cubic", "manifold.amari_cubic"),
    ("gaussgeom.manifold", "alpha_connection_form", "manifold.alpha_connection_form"),
    ("gaussgeom.group", "act", "group.act"),
    ("gaussgeom.group", "act_tangent", "group.act_tangent"),
    ("gaussgeom.group", "pull_back_to_identity", "group.pull_back_to_identity"),
)

#: (module, class, attribute, span name) for methods, replaced on the class
METHODS = (
    ("gaussgeom.solver", "ConstraintSystem", "residuals", "solver.residuals"),
    ("gaussgeom.exact", "SparseEchelon", "insert", "exact.echelon.insert"),
    ("gaussgeom.exact", "SparseEchelon", "kernel_basis", "exact.echelon.kernel_basis"),
    ("gaussgeom.exact", "ExactArray", "build", "exact.build"),
    ("gaussgeom.exact", "ExactArray", "tensordot", "exact.tensordot"),
    ("gaussgeom.exact", "ExactArray", "reduced", "exact.reduced"),
    ("gaussgeom.tensors", "SymTensor3", "to_exact_array", "tensors.to_exact_array"),
)


def _count_system(c, args, system, seconds):
    c["assemble_calls"] += 1
    c["rows"] += len(system.rows)
    c["rows_distinct"] += len(set(system.rows))
    c["row_nnz"] += sum(len(row) for row in system.rows)


def _count_insert(c, args, useful, seconds):
    c["inserts"] += 1
    c["useful_inserts"] += bool(useful)


def _count_kernel(c, args, basis, seconds):
    bits = max((v.bit_size() for vector in basis for v in vector if v), default=0)
    c["eliminations"] += 1
    c["max_bit_size"] = max(c["max_bit_size"], bits)


def _count_mc(c, args, estimate, seconds):
    n = args[0].n
    c["mc_samples"][n] += estimate.samples
    c["mc_s"][n] += seconds


def _count_lie_algebra(c, args, result, seconds):
    c["lie_algebra_s"][args[0]] += seconds


#: span name -> function of (counters, args, result, seconds) that updates the
#: counters when a call of that span returns
COUNT: dict[str, Callable[[dict, tuple, Any, float], None]] = {
    "algebra.lie_algebra": _count_lie_algebra,
    "solver.assemble": _count_system,
    "exact.echelon.insert": _count_insert,
    "exact.echelon.kernel_basis": _count_kernel,
    "manifold.mc_oracle_metric": _count_mc,
    "manifold.mc_oracle_cubic": _count_mc,
}


def _traced_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == "gaussgeom" or name.startswith("gaussgeom.") or name == "recheck_certificate")
    ]


class Tracer:
    """Records spans for the entry points in FUNCTIONS and METHODS."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op: int | str = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._counters = {
            "assemble_calls": 0,
            "rows": 0,
            "rows_distinct": 0,
            "row_nnz": 0,
            "eliminations": 0,
            "max_bit_size": 0,
            "inserts": 0,
            "useful_inserts": 0,
            "mc_samples": defaultdict(int),
            "mc_s": defaultdict(float),
            "lie_algebra_s": defaultdict(float),
        }

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, count = self.spans, self._stack, COUNT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            failed = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, failed)
                if count is not None and not failed:
                    count(self._counters, args, result, end - start)

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _traced_modules()
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapped)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Inclusive seconds, self seconds, calls and failures per span name,
        over spans of operations (set-up spans are reported by op "setup")."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op, failed in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "failures": 0, "setup_s": 0.0}
        )
        for index, (name, start, end, parent, op, failed) in enumerate(self.spans):
            entry = totals[name]
            if op == "setup":
                entry["setup_s"] += end - start
                continue
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            entry["calls"] += 1
            entry["failures"] += failed
        return totals

    def counters(self) -> dict:
        """Counters from public results; ``mc_samples``, ``mc_s`` and
        ``lie_algebra_s`` are keyed by n."""
        return dict(self._counters)

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **header,
                    "span_fields": ["name", "start", "end", "parent", "op", "failed"],
                    "spans": self.spans,
                },
                fh,
            )
