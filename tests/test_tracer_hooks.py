"""The benchmark tracer's counter hooks read real results and errors.

`perfbench/tracing.py` counts Newton steps, inner sweeps and stationary
sweeps from what the wrapped functions return or raise. These tests feed its
after-hooks the results and errors the library produces today, so a change
to a result's fields or to what an error carries cannot silently zero a
counter of the traced benchmark run.
"""
import importlib
import os

import numpy as np
import pytest

from gadisolve import (InnerSolverError, SolveConfig, SplitParams, gen_ex241, gen_ex421,
                       newton_gadi_riccati, run_stationary, splitting)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracing")


def test_after_newton_counts_a_result(tracing):
    tracer = tracing.Tracer()
    problem = gen_ex421(8)
    result = newton_gadi_riccati(problem, outer_tol=1e-5)
    tracing._after_newton(tracer, (problem,), result, None)
    assert tracer.counts == {"matrixeq.newton_steps": result.outer_iterations,
                             "matrixeq.inner_sweeps": result.inner_iteration_total}
    assert tracer.counts == {"matrixeq.newton_steps": 7, "matrixeq.inner_sweeps": 37}


def test_after_newton_counts_a_divergence(tracing):
    tracer = tracing.Tracer()
    problem = gen_ex421(40)
    with pytest.raises(InnerSolverError) as info:
        newton_gadi_riccati(problem, outer_tol=1e-5)
    tracing._after_newton(tracer, (problem,), None, info.value)
    assert tracer.counts == {"matrixeq.inner_sweeps": info.value.iterations}
    assert info.value.iterations == 80


def test_after_run_stationary_counts_a_result(tracing):
    tracer = tracing.Tracer()
    system = gen_ex241(m=8, tau_mode="500h", stencil="unit")
    params = SplitParams("gadi", alpha=1.0)
    result = run_stationary(system, params, SolveConfig(tol=1e-6))
    tracing._after_run_stationary(tracer, (system, params), result, None)
    report = result[1]
    assert report.converged
    assert tracer.counts == {"splitting.sweeps": report.iterations, "splitting.converged": 1}


def test_after_run_stationary_counts_an_error_with_its_report(tracing, monkeypatch):
    # the second sweep's first half-step fails, so the error's report holds one sweep
    original, calls = splitting.cg_hpd, []

    def second_fails(M, b, rel_tol, max_it):
        calls.append(1)
        if len(calls) > 1:
            raise InnerSolverError("no convergence", x=np.zeros(b.shape, complex), iterations=7)
        return original(M, b, rel_tol=rel_tol, max_it=max_it)
    monkeypatch.setattr(splitting, "cg_hpd", second_fails)
    tracer = tracing.Tracer()
    system = gen_ex241(m=8, tau_mode="500h", stencil="unit")
    params = SplitParams("gadi", alpha=1.0)
    with pytest.raises(InnerSolverError) as info:
        run_stationary(system, params, SolveConfig(tol=1e-10, inner="iterative"))
    report = info.value.report
    tracing._after_run_stationary(tracer, (system, params), None, info.value)
    assert report.iterations == 1
    assert tracer.counts == {"splitting.sweeps": report.iterations, "splitting.converged": 0,
                             "splitting.wasted_sweeps": report.iterations}
