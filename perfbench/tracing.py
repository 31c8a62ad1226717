"""In-memory spans around spectralab's public layer functions.

The tracer replaces module attributes of spectralab with wrappers while a
traced pass runs and puts the originals back afterwards, so untraced passes
run the program untouched.  The pipeline looks these functions up as module
attributes at call time (`measures.builtin_measure`, `spectral.eigen_spectrum`,
and the module globals that `ahlfors_constants` uses), so the wrappers see
every call the pipeline makes.

A span records name, start, end, parent span and case.  Assembly and
eigensolve spans also record their allocation peak: tracemalloc runs only
while one of them is open, because tracing every allocation would slow the
per-atom Python loops of the measures layer several-fold.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager

# (module attribute, span name); spans are named after the layer modules.
MEASURES = ("builtin_measure", "save_measure_text", "load_measure_text",
            "nearest_neighbor_spacing", "ahlfors_constants", "density_bounds")
ORLICZ = ("luxemburg_norm", "averaged_norm")
OPERATORS = ("assemble_fourier_bs", "assemble_log_kernel", "assemble_log_potential",
             "assemble_steklov_circle")
SPECTRAL = ("write_spectrum_csv", "weyl_plateau", "dixmier_sequence", "order_bounds", "spectra_match")
FUNCTIONALS = SPECTRAL[1:] + ("DixmierEstimate.from_values",)


class Span:
    __slots__ = ("index", "name", "case", "parent", "start", "end", "alloc_peak", "attrs")

    def __init__(self, index, name, case, parent, start):
        self.index, self.name, self.case, self.parent = index, name, case, parent
        self.start, self.end = start, None
        self.alloc_peak = None
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self, origin: float) -> dict:
        out = {"name": self.name, "case": self.case, "parent": self.parent,
               "start": self.start - origin, "end": self.end - origin, **self.attrs}
        if self.alloc_peak is not None:
            out["alloc_peak_mb"] = self.alloc_peak / 1e6
        return out


class Tracer:
    """Collects spans while `enabled`; the wrappers stay inert otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.case: str | None = None
        self.enabled = False
        self._open: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str, memory: bool = False):
        parent = self._open[-1].index if self._open else None
        s = Span(len(self.spans), name, self.case, parent, time.perf_counter())
        self.spans.append(s)
        self._open.append(s)
        memory = memory and not tracemalloc.is_tracing()
        if memory:
            tracemalloc.start()
        try:
            yield s
        finally:
            if memory:
                s.alloc_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            s.end = time.perf_counter()
            self._open.pop()

    # -- wrappers ----------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, after=None, static=False, memory=False):
        original = owner.__dict__[attr] if static else getattr(owner, attr)
        fn = original.__func__ if static else original

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name, memory) as s:
                result = fn(*args, **kwargs)
            if after is not None:
                after(s, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, staticmethod(traced) if static else traced)

    def install(self) -> None:
        from spectralab import coeffs, measures, operators, orlicz, spectral
        from spectralab.cli import experiment

        def atoms(s, result):
            s.attrs["atoms"] = int(result[0].atom_count)

        def iterations(s, result):
            s.attrs["iterations"] = int(result.iterations)

        def order(s, result):
            s.attrs["order"] = int(result.size)

        def assembled(s, result):
            m = result.matrix
            s.attrs["matrix_mb"] = m.shape[0] * m.shape[1] * m.itemsize / 1e6
            # Time the self-adjointness check on its own by constructing the
            # operator again from the returned matrix.
            with self.span("operators.check"):
                operators.AssembledOperator(matrix=m, route=result.route, metadata=result.metadata)

        hooks = {"builtin_measure": atoms, "luxemburg_norm": iterations}
        for attr in MEASURES:
            self._patch(measures, attr, f"measures.{attr}", hooks.get(attr))
        for attr in ORLICZ:
            self._patch(orlicz, attr, f"orlicz.{attr}", hooks.get(attr))
        self._patch(coeffs, "predicted_trace", "coeffs.predicted_trace")
        for attr in OPERATORS:
            self._patch(operators, attr, f"operators.{attr}", assembled, memory=True)
        self._patch(spectral, "eigen_spectrum", "spectral.eigen_spectrum", order, memory=True)
        for attr in SPECTRAL:
            self._patch(spectral, attr, f"spectral.{attr}")
        self._patch(spectral.DixmierEstimate, "from_values", "spectral.DixmierEstimate.from_values",
                    static=True)
        self._patch(experiment, "emit_report", "experiment.emit_report")
        self._patch(experiment, "run_experiment", "experiment.run_experiment")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _sum(spans, *names) -> float:
    return sum(s.duration for s in spans if s.name in names)


def _max(values) -> float:
    return max(values, default=0.0)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one traced pass, keyed by metric name.

    Span indices are positions in `spans`, which holds one pass."""
    functionals = {f"spectral.{a}" for a in FUNCTIONALS}
    assemble = {f"operators.{a}" for a in OPERATORS}

    def named(name):
        return [s for s in spans if s.name == name]

    def outermost(group):
        # Spans of the group not nested inside another span of the group.
        out = []
        for s in spans:
            if s.name not in group:
                continue
            p = s.parent
            while p is not None and spans[p].name not in group:
                p = spans[p].parent
            if p is None:
                out.append(s)
        return out

    def peak_mb(group):
        return _max(s.alloc_peak / 1e6 for s in spans if s.name in group)

    run_s = _sum(spans, "experiment.run_experiment")
    covered = sum(c.duration for c in spans
                  if c.parent is not None and spans[c.parent].name == "experiment.run_experiment")
    return {
        "measures.build_s": _sum(spans, "measures.builtin_measure"),
        "measures.write_s": _sum(spans, "measures.save_measure_text"),
        "measures.read_s": _sum(spans, "measures.load_measure_text"),
        "measures.nn_s": _sum(spans, "measures.nearest_neighbor_spacing"),
        "measures.nn_calls": len(named("measures.nearest_neighbor_spacing")),
        # Includes the nearest-neighbour calls the ball functions make.
        "measures.ball_s": _sum(spans, "measures.ahlfors_constants", "measures.density_bounds"),
        "measures.atoms": sum(s.attrs["atoms"] for s in named("measures.builtin_measure")),
        "orlicz.norm_s": _sum(spans, *(f"orlicz.{a}" for a in ORLICZ)),
        "orlicz.iterations": sum(s.attrs["iterations"] for s in named("orlicz.luxemburg_norm")),
        "coeffs.predict_s": _sum(spans, "coeffs.predicted_trace"),
        "operators.assemble_s": _sum(spans, *assemble),
        "operators.check_s": _sum(spans, "operators.check"),
        "operators.matrix_mb": _max(s.attrs["matrix_mb"] for s in spans if s.name in assemble),
        "operators.alloc_peak_mb": peak_mb(assemble),
        "spectral.eigensolve_s": _sum(spans, "spectral.eigen_spectrum"),
        "spectral.order": sum(s.attrs["order"] for s in named("spectral.eigen_spectrum")),
        "spectral.alloc_peak_mb": peak_mb({"spectral.eigen_spectrum"}),
        "spectral.functionals_s": sum(s.duration for s in outermost(functionals)),
        "spectral.write_s": _sum(spans, "spectral.write_spectrum_csv"),
        "experiment.run_s": run_s,
        "experiment.self_s": run_s - covered,
        "experiment.emit_s": _sum(spans, "experiment.emit_report"),
        "experiment.covered_pct": 100.0 * covered / run_s if run_s > 0 else 0.0,
    }
