"""In-memory tracer for the traced run.

`Tracer.install` wraps every public function of each `holocycle` module,
the private stage helpers `approximate` looks up at call time, and a few
hot methods.  It rebinds every module-level name that refers to a wrapped
function, so `approximate`'s global lookups reach the wrappers.  Each call
is a span; a span's self time is its duration minus the time of the spans
it caused.  Self times, call counts and work counts are summed in memory
and read out at the end; nothing is written while the workload runs.
"""
import contextlib
import functools
import inspect
import os
import time
from collections import defaultdict

MODULES = ("geometry", "measures", "chains", "triangulation", "approximation",
           "foliations", "cli")

# private functions that are pipeline stages in their own right
PRIVATE_STAGES = {"approximation": ("_base_cloud", "_quadrature_chains",
                                    "_march_line", "_patch_pieces",
                                    "_reference_cloud")}

# spans whose name differs from "<module>.<function>"
SPAN_NAMES = {"triangulation.locate_simplex": "triangulation.locate",
              "foliations.pseudoholomorphic_construct": "foliations.pseudoholomorphic",
              # only the CLI serializes chains while the tracer is active
              "chains.chain_to_dict": "cli.chain_to_dict"}


def _cycle_bytes(args, kwargs, out):
    path = os.path.join(args[0].out, "cycle.json")
    return {"cli.cycle_json_bytes": os.path.getsize(path) if os.path.exists(path) else 0}


def _collocation_cols(args, kwargs, out):
    cutoff = args[1] if len(args) > 1 else kwargs["cutoff"]
    return {"foliations.collocation_cols": (2 * cutoff + 1) ** args[0].torus.dim}


# work counts read off a span's arguments and result, as increments
COUNTS = {
    "approximation.sample_cells": lambda a, k, out: {
        "approximation.leaves": len(out.leaves),
        "approximation.pieces": len(out.pieces)},
    "approximation.solve_cells": lambda a, k, out: {"approximation.cells": len(out)},
    "approximation.pair_cells": lambda a, k, out: {
        "approximation.paired_traces": 2 * len(out.pairs),
        "approximation.traces": sum(len(rec.traces) for rec in a[0])},
    "approximation.glue": lambda a, k, out: {
        "approximation.glued_cells": sum(type(rec.cell.map).__name__ == "GluedMap"
                                         for rec in out[0])},
    "approximation.close_up": lambda a, k, out: {
        "approximation.connectors": out[1]["n_connectors"],
        "approximation.cones": out[1]["n_cones"]},
    "chains.chain_measure": lambda a, k, out: {"chains.atoms": len(out.w)},
    "measures.hol_residual": lambda a, k, out: {"measures.hol_atoms": len(a[0].w)},
    "foliations.solve_density": _collocation_cols,
    "foliations.grid_points": lambda a, k, out: {"foliations.grid_points": len(out)},
    "cli.cmd_approximate": _cycle_bytes,
    "triangulation.mesh": lambda a, k, out: {
        "triangulation.top_simplices": len(a[0].top_simplices)},
}


class Tracer:
    def __init__(self, now=time.perf_counter):
        self._now = now
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []
        self._undo = []
        self._paused = False

    def _wrap(self, span, fn):
        count = COUNTS.get(span)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = self._now()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = self._now() - t0
                self.self_s[span] += dt - stack.pop()
                self.calls[span] += 1
                if stack:
                    stack[-1] += dt
            if count is not None:
                for key, inc in count(args, kwargs, out).items():
                    self.counts[key] += inc
            return out

        return traced

    def _methods(self, hc):
        return ((hc.triangulation.TorusTriangulation, "__init__", "triangulation.mesh"),
                (hc.triangulation.TorusTriangulation, "locate_index",
                 "triangulation.locate"),
                (hc.approximation.BaseMeasure, "density", "approximation.base_density"),
                (hc.geometry.DifferentialForm, "evaluate", "geometry.form_evaluate"),
                (hc.geometry.TrigPolynomial, "__call__", "geometry.trig_eval"))

    def install(self, hc):
        modules = [getattr(hc, name) for name in MODULES]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            extra = PRIVATE_STAGES.get(short, ())
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not name.startswith("_") or name in extra)):
                    key = f"{short}.{name}"
                    wrapped[obj] = self._wrap(SPAN_NAMES.get(key, key), obj)
        for ns in [hc] + modules:
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(ns, name, wrapped[obj])
                    self._undo.append((ns, name, obj))
        for cls, name, span in self._methods(hc):
            orig = cls.__dict__[name]
            setattr(cls, name, self._wrap(span, orig))
            self._undo.append((cls, name, orig))

    def uninstall(self):
        for owner, name, obj in reversed(self._undo):
            setattr(owner, name, obj)
        self._undo.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) are not traced."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def table(self):
        """Every span and count, for the trace file."""
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts)}
