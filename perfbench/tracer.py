"""Spans and counts recorded from outside the library.

The tracer replaces module attributes (``sphsolve.solver.lu_factor``,
``numpy.linalg.eigvalsh``, ...) with wrappers that record a span per call:
name, start, end, parent span and op id.  Spans stay in memory and are
written out when the run ends.  Nothing under ``src/`` is modified; the
wrappers live only in the benchmark process and are removed again by
``uninstall``.

Counts are computed from the array shapes of the arguments, never
measured: they repeat exactly from run to run.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

# Root span of one traced pass through a workload's ops.  Its self time is
# the harness's own work between ops (the per-op checks).
PASS_SPAN = "bench.pass"
# Root span of one traced set-up.
SETUP_SPAN = "bench.setup"


def _count_product_weight(tracer: "Tracer", args, kwargs, result) -> None:
    dots, w, coeffs = args[0], args[1], args[2]
    entries = dots.size
    tracer.counts["kernels.entries"] += entries
    tracer.counts["kernels.legendre_terms"] += entries * len(coeffs)
    tracer.counts["kernels.bytes_computed"] += 8 * (
        dots.size + result.size + len(w) + len(coeffs))


def _count_zonal_sum(tracer: "Tracer", args, kwargs, result) -> None:
    coeffs, dots = args[0], args[1]
    entries = dots.size
    tracer.counts["kernels.entries"] += entries
    tracer.counts["kernels.legendre_terms"] += entries * len(coeffs)
    tracer.counts["kernels.bytes_computed"] += 8 * (
        dots.size + result.size + len(coeffs))


def _distinct_gram(tracer: "Tracer", args, kwargs, result) -> None:
    rule, n = args[0], args[1]
    tracer.distinct["mz.gram_matrix"].add((id(rule), n))


def _distinct_mesh_norm(tracer: "Tracer", args, kwargs, result) -> None:
    points, probe = args[0], args[1]
    tracer.distinct["sphere.mesh_norm"].add((id(points), id(probe)))


# (module, attribute, span name, counter).  A function imported by name
# into another module is wrapped where its caller looks it up, under the
# span name of the module that defines it.  Metric names must start with a
# letter, so the spans of ``sphsolve._kernels`` are called ``kernels.*``.
INSTRUMENTS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("sphsolve.experiments", "run_experiment", "experiments.run_experiment", None),
    ("sphsolve.experiments", "recompute_f", "experiments.recompute_f", None),
    ("sphsolve.experiments", "solve_stage1", "solver.solve_stage1", None),
    ("sphsolve.solver", "modified_moments", "moments.modified_moments", None),
    ("sphsolve.solver", "assemble_system", "solver.assemble_system", None),
    ("sphsolve.solver", "lu_factor", "solver.lu_factor", None),
    ("sphsolve.solver", "lu_solve", "solver.lu_solve", None),
    ("sphsolve.solver", "gram_matrix", "mz.gram_matrix", _distinct_gram),
    ("sphsolve.solver", "evaluate_stage2", "solver.evaluate_stage2", None),
    ("sphsolve._kernels", "product_weight_matrix",
     "kernels.product_weight_matrix", _count_product_weight),
    ("sphsolve._kernels", "zonal_sum", "kernels.zonal_sum", _count_zonal_sum),
    ("sphsolve.mz", "mz_constant", "mz.mz_constant", None),
    ("sphsolve.mz", "gram_matrix", "mz.gram_matrix", _distinct_gram),
    ("sphsolve.mz", "eval_basis_matrix", "harmonics.eval_basis_matrix", None),
    ("sphsolve.harmonics", "eval_basis_matrix", "harmonics.eval_basis_matrix", None),
    ("sphsolve.mz", "mesh_norm", "sphere.mesh_norm", _distinct_mesh_norm),
    ("sphsolve.sphere", "mesh_norm", "sphere.mesh_norm", _distinct_mesh_norm),
    ("numpy.linalg", "eigvalsh", "numpy.eigvalsh", None),
    ("sphsolve.pointsets", "load_pointset", "pointsets.load_pointset", None),
    ("sphsolve.pointsets", "uniform_random_points",
     "sphere.uniform_random_points", None),
    ("sphsolve.sphere", "uniform_random_points",
     "sphere.uniform_random_points", None),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(
    [PASS_SPAN, SETUP_SPAN] + [name for _, _, name, _ in INSTRUMENTS]))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


@dataclass
class Tracer:
    """In-memory span recorder; one per traced run."""

    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    distinct: defaultdict = field(default_factory=lambda: defaultdict(set))
    op: int | None = None
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def _wrapper(self, name: str, fn: Callable, counter: Callable | None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every attribute in INSTRUMENTS."""
        for module_name, attr, name, counter in INSTRUMENTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(name, fn, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def tree_of(self, root: int) -> list[int]:
        """Indices of root and every span below it."""
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i].parent in inside:
                inside.add(i)
        return sorted(inside)

    def summary(self, indices) -> dict[str, tuple[float, float, int]]:
        """name -> (self seconds, inclusive seconds, calls) over the spans."""
        own = self.self_times()
        out = {name: [0.0, 0.0, 0] for name in SPAN_NAMES}
        for i in indices:
            span = self.spans[i]
            entry = out.setdefault(span.name, [0.0, 0.0, 0])
            entry[0] += own[i]
            entry[1] += span.end - span.start
            entry[2] += 1
        return {name: tuple(v) for name, v in out.items()}

    def distinct_ratio(self, name: str, calls: int) -> float:
        """Distinct inputs over calls; 0 when the span was never entered."""
        return len(self.distinct[name]) / calls if calls else 0.0

    def dump(self, origin: float) -> list[list]:
        """Spans as JSON rows [name, start, end, parent, op], times from origin."""
        return [[s.name, s.start - origin, s.end - origin, s.parent, s.op]
                for s in self.spans]
