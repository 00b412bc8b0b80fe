"""In-memory spans around the calls sltfem's layers make into each other.

Spans are recorded from outside the program: while a `Tracer` is installed,
the public functions each layer calls through its module namespace (for
example `sltfem.solver.linear_solve`) are replaced by timing wrappers, and
`scipy.sparse.linalg.splu` returns a proxy whose `.solve` is timed too, so
factorization and triangular solves are measured apart.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import scipy.sparse.linalg as spla

import sltfem.assembly
import sltfem.config
import sltfem.postprocess
import sltfem.solver

# (module, attribute, span name). The span name is the layer metric it feeds.
_TRACED = [
    (sltfem.config, "run_single", "config.run_single"),
    (sltfem.config, "build_cracked_grid", "mesh.build"),
    (sltfem.config, "FESpace", "assembly.fespace"),
    (sltfem.config, "solve_thermal", "solver.thermal"),
    (sltfem.config, "picard_solve", "solver.picard"),
    (sltfem.solver, "assemble_thermal", "assembly.thermal"),
    (sltfem.solver, "assemble_mechanical", "assembly.mechanical"),
    (sltfem.solver, "mass_matrix", "assembly.mass"),
    (sltfem.solver, "linear_solve", "solver.linear_solve"),
    (sltfem.assembly, "relaxation_factor_m", "constitutive.relaxation"),
    (sltfem.postprocess, "recover_fields", "postprocess.recover"),
    (sltfem.postprocess, "stress_from_strain_m", "constitutive.stress"),
    (sltfem.postprocess, "strain_energy_density_m", "constitutive.energy"),
    (sltfem.postprocess, "run_sweep", "postprocess.sweep"),
    (spla, "splu", "solver.factor"),
]

# Self time per layer, named after the span that records it.
TIME_METRICS = sorted({name + "_s" for _, _, name in _TRACED})

# Counter -> how repeated values within one run combine.
COUNTERS = {
    "assembly.dofs": max,
    "assembly.matrix_nnz": max,
    "solver.lu_fill": max,
    "solver.picard_iterations": sum,
    "solver.clamp_events": sum,
}


class _TracedFactor:
    """A SuperLU factor whose triangular solves are spans; records its fill."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self._tracer = tracer
        tracer.count("solver.lu_fill", lu.nnz)

    def solve(self, rhs, *args):
        with self._tracer.span("solver.triangular"):
            return self._lu.solve(rhs, *args)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class Tracer:
    """Spans as (name, start, end, parent index, run id), kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple[str, int, int]] = []   # (counter, value, run id)
        self.run = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, value) -> None:
        self.counts.append((name, int(value), self.run))

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            self._observe(name, out)
            return out
        return traced

    def _observe(self, name: str, out) -> None:
        if name == "assembly.mechanical":
            system, _ = out
            self.count("assembly.dofs", system.rhs.size)
            self.count("assembly.matrix_nnz", system.matrix.nnz)
        elif name == "solver.picard":
            _, report = out
            self.count("solver.picard_iterations", report.iterations)
            self.count("solver.clamp_events", report.clamp_events)

    @contextmanager
    def installed(self):
        """Swap in the timing wrappers; the originals are back on exit."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in _TRACED]
        for (module, attr, name), (_, _, fn) in zip(_TRACED, saved):
            wrapped = self._wrap(name, fn)
            if name == "solver.factor":
                wrapped = self._factor(wrapped)
            setattr(module, attr, wrapped)
        try:
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def _factor(self, splu):
        return lambda *args, **kwargs: _TracedFactor(splu(*args, **kwargs), self)

    def layer_metrics(self, run: int) -> dict[str, float]:
        """Self time per layer, call counts and counters of one run."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == run]
        self_time = {i: s[2] - s[1] for i, s in spans}
        for _, (_, start, end, parent, _) in spans:
            if parent is not None:
                self_time[parent] -= end - start
        out = {m: 0.0 for m in TIME_METRICS + ["solver.triangular_s"]}
        calls: dict[str, int] = {}
        for i, s in spans:
            out[s[0] + "_s"] += self_time[i]
            calls[s[0]] = calls.get(s[0], 0) + 1
        out["assembly.mechanical_calls"] = calls.get("assembly.mechanical", 0)
        out["solver.linear_solves"] = calls.get("solver.linear_solve", 0)
        out["solver.refine_steps"] = (calls.get("solver.triangular", 0)
                                      - calls.get("solver.factor", 0))
        for counter, combine in COUNTERS.items():
            values = [v for c, v, r in self.counts if c == counter and r == run]
            out[counter] = combine(values) if values else 0
        return out

    def dump(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "run")
        return [dict(zip(keys, s)) for s in self.spans]
