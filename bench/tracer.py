"""Outside-in tracing of the expsav layers, for the benchmark's traced runs.

The tracer replaces the package's public callables at the modules that
import them with wrappers that record one span per call: name, category,
start, end and the time covered by child spans. Spans stay in memory until
the benchmark takes them; a span's self time is its duration minus its
children's. G and G' are traced through a catalog.register-ed copy of the
workload's entry. Every replaced attribute and catalog entry is put back
by restore(), so an untraced call made afterwards runs the package as is.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from time import perf_counter

from expsav import avf, catalog, fourier, grids, kg, nls, runner, tables

STEPPERS = ("kg.kg_step", "nls.nls_step", "avf.eavf_step_kg", "avf.eavf_step_nls")
TRANSFORMS = ("fourier.forward_values", "fourier.inverse_values")


class Span:
    __slots__ = ("name", "cat", "start", "end", "child", "nbytes")

    def __init__(self, name: str, cat: str | None):
        self.name = name
        self.cat = cat
        self.child = 0.0
        self.nbytes = 0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


def _transform_bytes(args, out) -> int:
    """Computed bytes a transform reads and writes: its input and output arrays."""
    return args[0].nbytes + out.nbytes


def _table_bytes(args, out) -> int:
    return sum(v.nbytes for v in vars(out).values() if hasattr(v, "nbytes"))


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self, problem_id: str):
        self.problem_id = problem_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self._saved_entry = None

    def wrap(self, name: str, fn, cat: str | None = None, measure=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, cat or (parent.cat if parent else None))
            stack.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
                spans.append(span)
            if measure is not None:
                span.nbytes = measure(args, out)
            return out

        return traced

    def _patch(self, owner, attr: str, name: str, cat: str | None = None, measure=None):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, cat, measure))

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def _install(self):
        p = self._patch
        p(runner, "run", "runner.run", "run")
        p(runner, "resolve", "runner.resolve", "setup")
        for owner in (runner, tables):
            p(owner, "build_kg_tables", "tables.build", "setup", _table_bytes)
            p(owner, "build_nls_tables", "tables.build", "setup", _table_bytes)
        p(kg, "kg_init", "kg.kg_init", "setup")
        p(nls, "nls_init", "nls.nls_init", "setup")
        p(kg, "kg_step", "kg.kg_step", "step")
        p(nls, "nls_step", "nls.nls_step", "step")
        p(avf, "eavf_step_kg", "avf.eavf_step_kg", "step")
        p(avf, "eavf_step_nls", "avf.eavf_step_nls", "step")
        p(avf, "avf_gradient_kg", "avf.gradient")
        p(avf, "avf_gradient_nls", "avf.gradient")
        for owner in (kg, avf, fourier):
            p(owner, "forward_values", "fourier.forward_values", measure=_transform_bytes)
            p(owner, "inverse_values", "fourier.inverse_values", measure=_transform_bytes)
        for owner in (kg, avf):
            p(owner, "real_part", "fourier.real_part")
        for owner in (nls, avf):
            p(owner, "apply_multipliers", "fourier.apply_multipliers")
        p(grids.Field, "__post_init__", "grids.validate")
        p(grids.ComplexField, "__post_init__", "grids.validate")
        for fn in ("kg_modified_energy", "kg_original_energy"):
            p(kg, fn, "diagnostics.energy", "diag")
        for fn in ("nls_modified_energy", "nls_hamiltonian"):
            p(nls, fn, "diagnostics.energy", "diag")
        p(runner, "error_norms", "diagnostics.error_norms", "diag")
        p(runner, "write_run_csv", "runner.write_run_csv", "io")
        p(runner, "write_snapshot", "runner.write_snapshot", "io")
        self._register_traced_entry()

    def _register_traced_entry(self):
        entry = catalog.get_entry(self.problem_id)
        self._saved_entry = entry

        def make_problem(grid, c0):
            problem = entry.make_problem(grid, c0)
            if entry.kind != "wave":
                return problem
            return dataclasses.replace(problem, G=self.wrap("catalog.G", problem.G),
                                       Gp=self.wrap("catalog.Gp", problem.Gp))

        traced = dataclasses.replace(entry, make_problem=make_problem)
        # the eigenvalues are part of set-up; an instance attribute shadows the method
        object.__setattr__(traced, "laplacian_eigenvalues",
                           self.wrap("grids.laplacian_eigenvalues",
                                     entry.laplacian_eigenvalues, "setup"))
        catalog.register(traced)

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        if self._saved_entry is not None:
            catalog.register(self._saved_entry)
            self._saved_entry = None

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        taken = self.spans[:]
        self.spans.clear()
        return taken


class Totals:
    __slots__ = ("count", "dur", "self_time", "nbytes")

    def __init__(self):
        self.count = 0
        self.dur = self.self_time = 0.0
        self.nbytes = 0


def aggregate(spans: list[Span]) -> dict[tuple[str | None, str], Totals]:
    """Per (category, span name): call count, total and self seconds, computed bytes."""
    out: dict[tuple[str | None, str], Totals] = defaultdict(Totals)
    for span in spans:
        tot = out[span.cat, span.name]
        tot.count += 1
        tot.dur += span.dur
        tot.self_time += span.self_time
        tot.nbytes += span.nbytes
    return out
