"""Smoke test of the benchmark's tracer (`perfbench/tracer.py`) on the package.

`--trace 1` runs wrap functions and methods by name, so deleting one of
them breaks every traced run; this catches that in the unit suite.  The
tracer's source is read and executed here, never imported from its
directory, so the test writes nothing under `perfbench/`.
"""
import inspect
import pathlib
import types

import holocycle
import holocycle.cli  # the tracer wraps the CLI module too
from holocycle.geometry import FlatTorus
from holocycle.triangulation import TorusTriangulation

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    mod = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), mod.__dict__)
    return mod


def bindings(tracer_mod, tracer):
    """Every function bound in the package's namespaces, and the wrapped methods."""
    spaces = [holocycle] + [getattr(holocycle, name) for name in tracer_mod.MODULES]
    funcs = {(ns.__name__, name): obj for ns in spaces
             for name, obj in vars(ns).items() if inspect.isfunction(obj)}
    methods = {(cls.__name__, name): cls.__dict__[name]
               for cls, name, _ in tracer._methods(holocycle)}
    return funcs, methods


def test_tracer_installs_records_and_uninstalls():
    tracer_mod = load_tracer()
    tracer = tracer_mod.Tracer()
    funcs, methods = bindings(tracer_mod, tracer)
    tracer.install(holocycle)
    try:
        TorusTriangulation(FlatTorus(2), 1)
        assert TorusTriangulation.__dict__["__init__"] is not methods[
            ("TorusTriangulation", "__init__")]
    finally:
        tracer.uninstall()
    assert tracer.calls["triangulation.mesh"] == 1
    assert tracer.counts["triangulation.top_simplices"] == 8
    after_funcs, after_methods = bindings(tracer_mod, tracer)
    assert after_funcs.keys() == funcs.keys()
    assert all(after_funcs[key] is obj for key, obj in funcs.items())
    assert all(after_methods[key] is obj for key, obj in methods.items())
