"""Every exported name is bound, and so is every name the benchmark's tracer wraps.

`perfbench/tracing.py` looks up the functions and methods it wraps by name,
and `perfbench/worker.py` calls the library with keyword arguments, so
removing or renaming one of them breaks the benchmark run.
"""
import importlib
import inspect
import os
import pkgutil

import gadisolve
from gadisolve import SolveConfig, SplitParams, matrixeq
from gadisolve.bench import RunConfig

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_every_exported_name_is_bound():
    modules = [gadisolve] + [importlib.import_module(f"gadisolve.{info.name}")
                             for info in pkgutil.iter_modules(gadisolve.__path__)]
    checked = 0
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
            checked += 1
    assert checked > 0


def test_every_name_the_tracer_wraps_resolves(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    for home, attr, *_ in tracing.FUNCTIONS:
        module = importlib.import_module(f"gadisolve.{home}")
        assert callable(getattr(module, attr, None)), f"gadisolve.{home}.{attr}"
    for home, cls_name, attr, *_ in tracing.METHODS:
        cls = getattr(importlib.import_module(f"gadisolve.{home}"), cls_name, None)
        assert callable(getattr(cls, attr, None)), f"gadisolve.{home}.{cls_name}.{attr}"


def test_the_calls_the_benchmark_makes_bind():
    # the keyword calls of perfbench/worker.py, bound to today's signatures
    calls = [
        (SolveConfig, (), {"tol": 1e-6, "max_outer": 500, "inner": "exact"}),
        (matrixeq.newton_gadi_riccati, ("p",), {"outer_tol": 1e-6, "inner_forcing": (0.1, 0.1)}),
        (matrixeq.solve_lyapunov_gadi, ("p",), {"config": None}),
        (matrixeq.solve_lyapunov_hss, ("p",), {"config": None}),
        (RunConfig, ("specs", "methods", "policy"), {"tol": 1e-6, "inner": "exact"}),
        (SplitParams, ("gadi", 1.0, 0.01), {}),
        (SplitParams, ("gadi", 1.0), {}),
        (gadisolve.run_stationary, ("system", "params", "config"), {}),
    ]
    for fn, args, kwargs in calls:
        inspect.signature(fn).bind(*args, **kwargs)
