"""A sweep grid on a system with a joint sine eigenbasis is solved as one
modal sweep of the grid, a race to the first converged sweep; each point's
report must be the one its own solve gives with max_outer lowered to that
sweep."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gadisolve import METHODS, ProblemSpec, SolveConfig, SplitParams, run_stationary
from gadisolve.bench import LINEAR_METHODS, METHOD_ALIASES, sweep_params
from gadisolve.splitting import run_stationary_grid
from helpers import random_system

SPECS = st.one_of(
    st.builds(lambda m, tau, stencil: ProblemSpec("ex241", m=m, tau_mode=tau, stencil=stencil),
              st.integers(2, 12), st.sampled_from(("h", "500h")),
              st.sampled_from(("unit", "h2"))),
    st.builds(lambda m, s1, s2, stencil: ProblemSpec("ex242", m=m, sigma1=s1, sigma2=s2,
                                                     stencil=stencil),
              st.integers(2, 12), st.floats(0.0, 200.0), st.floats(1.0, 200.0),
              st.sampled_from(("unit", "h2"))))
ALPHAS = st.lists(st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e), min_size=1, max_size=4)
OMEGAS = st.lists(st.floats(0.0, 1.9), min_size=1, max_size=3)
TOLS = st.floats(-12.0, -3.0).map(lambda e: 10.0 ** e)


def _one_by_one(system, points, config, capped):
    """Each point solved alone, in order; capped, with max_outer lowered to
    the fewest sweeps a point before it converged in."""
    reports, cap = [], config.max_outer
    for p in points:
        report = run_stationary(system, p, SolveConfig(config.tol, cap, config.inner))[1]
        reports.append(report)
        if capped and report.converged:
            cap = min(cap, report.iterations)
    return reports


def _outcome(report):
    return report.converged, report.iterations, report.final_res, report.residual_history


@settings(derandomize=True, deadline=None, max_examples=80)
@given(spec=SPECS, method=st.sampled_from(METHODS), alphas=ALPHAS, omegas=OMEGAS, tol=TOLS,
       max_outer=st.integers(1, 200), inner=st.sampled_from(("exact", "auto")))
def test_the_grid_pass_reports_each_point_as_its_own_solve(spec, method, alphas, omegas, tol,
                                                           max_outer, inner):
    system = spec.build()
    points = [SplitParams(method, a, w) for a in alphas for w in omegas]
    config = SolveConfig(tol, max_outer, inner)
    reports = run_stationary_grid(system, method, alphas, omegas, config)
    # a race: every point stops at the fewest sweeps a point stops in alone
    alone = _one_by_one(system, points, config, capped=False)
    first = min([r.iterations for r in alone if r.iterations < max_outer], default=max_outer)
    expected = _one_by_one(system, points, SolveConfig(tol, max(first, 1), inner), capped=False)
    assert [_outcome(r) for r in reports] == [_outcome(r) for r in expected]


def _winner(points, reports):
    """The index best_cell picks: converged first, then fewest sweeps, then
    smaller RES, then smaller alpha, the first of a tie."""
    return min(range(len(points)), key=lambda i: (
        not reports[i].converged, reports[i].iterations, reports[i].final_res, points[i].alpha))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(spec=SPECS, method=st.sampled_from(METHODS), alphas=ALPHAS, omegas=OMEGAS, tol=TOLS,
       max_outer=st.integers(1, 200))
def test_the_race_finds_the_winner_of_the_capped_cell_by_cell_order(spec, method, alphas, omegas,
                                                                    tol, max_outer):
    system = spec.build()
    points = [SplitParams(method, a, w) for a in alphas for w in omegas]
    config = SolveConfig(tol, max_outer, "exact")
    reports = run_stationary_grid(system, method, alphas, omegas, config)
    capped = _one_by_one(system, points, config, capped=True)
    win = _winner(points, reports)
    assert win == _winner(points, capped)
    assert _outcome(reports[win]) == _outcome(capped[win])


@settings(derandomize=True, deadline=None, max_examples=40)
@given(spec=SPECS, method=st.sampled_from(LINEAR_METHODS), alphas=ALPHAS, omegas=OMEGAS,
       tol=TOLS)
def test_sweep_params_rows_are_the_solves_of_their_cells(spec, method, alphas, omegas, tol):
    rows = sweep_params(spec, method, tuple(alphas), tuple(omegas), tol=tol)
    system = spec.build()
    relaxes = METHOD_ALIASES.get(method, method) == "gadi"
    points = [SplitParams(METHOD_ALIASES.get(method, method), a, w)
              for w in (omegas if relaxes else (0.0,)) for a in alphas]
    expected = _one_by_one(system, points, SolveConfig(tol, 200, "exact"), capped=False)
    assert [(r.alpha, r.omega, r.converged, r.it, r.res) for r in rows] == [
        (p.alpha, p.relaxation, e.converged, e.iterations, e.final_res)
        for p, e in zip(points, expected)]


def test_a_detected_grid_races_in_one_sweep_loop(monkeypatch):
    from gadisolve import splitting
    calls, original = [], splitting._sweep

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(splitting, "_sweep", counted)
    system = ProblemSpec("ex241", m=8, stencil="unit").build()
    alphas, omegas = (0.5, 1.0, 2.0), (0.01, 0.5)
    reports = run_stationary_grid(system, "gadi", alphas, omegas, SolveConfig(1e-6))
    assert len(calls) == 1
    # the race stops at sweep 50, where (2.0, 0.01) alone converges
    assert [(r.converged, r.iterations) for r in reports] == [(False, 50)] * 4 + [
        (True, 50), (False, 50)]
    assert [_outcome(r) for r in reports] == [
        _outcome(run_stationary(system, SplitParams("gadi", a, w), SolveConfig(1e-6, 50))[1])
        for a in alphas for w in omegas]


def test_a_system_without_a_closed_form_is_left_to_its_caller():
    detected = ProblemSpec("ex241", m=4, stencil="unit").build()
    assert run_stationary_grid(detected, "gadi", [1.0], [0.01],
                               SolveConfig(inner="iterative")) is None
    other = random_system(np.random.default_rng(0), 5)
    assert run_stationary_grid(other, "gadi", [1.0], [0.01], SolveConfig(inner="exact")) is None


@pytest.mark.parametrize("method, alphas, omegas, message", [
    ("gadi", [1.0, -1.0], [0.0], r"^alpha must be positive, got -1.0$"),
    ("mhss", [1.0, float("inf")], [0.0], r"^alpha must be finite, got inf$"),
    ("gadi", [1.0], [0.0, 2.5], r"^omega must lie in \[0, 2\), got 2.5$"),
    ("hss", [1.0], [True], r"^omega must be a real number, got True$"),
    ("sor", [1.0], [0.0], r"^unknown method 'sor'; expected one of "),
    ("gadi", [], [2.5], r"^omega must lie in \[0, 2\), got 2.5$"),
], ids=["negative-alpha", "infinite-alpha", "omega-above-2", "bool-omega", "unknown-method",
        "no-alphas"])
def test_a_bad_grid_raises_split_params_message_before_any_factor(monkeypatch, method, alphas,
                                                                  omegas, message):
    from gadisolve import splitting
    monkeypatch.setattr(splitting, "_mode_factors", None)  # a call would raise
    system = ProblemSpec("ex241", m=4, stencil="unit").build()
    with pytest.raises(ValueError, match=message):
        run_stationary_grid(system, method, alphas, omegas)


def test_a_start_that_meets_tol_builds_no_factors(monkeypatch):
    from gadisolve import splitting
    monkeypatch.setattr(splitting, "_mode_factors", None)  # a call would raise
    system = ProblemSpec("ex241", m=4, stencil="unit").build()
    points = [SplitParams("gadi", a) for a in (0.5, 1.0)]
    config = SolveConfig(tol=2.0)
    reports = run_stationary_grid(system, "gadi", (0.5, 1.0), (0.01,), config)
    assert [_outcome(r) for r in reports] == [
        _outcome(run_stationary(system, p, config)[1]) for p in points]
    assert all(r.converged and r.iterations == 0 for r in reports)


def test_an_empty_grid_reports_nothing_and_builds_no_factors(monkeypatch):
    from gadisolve import splitting
    monkeypatch.setattr(splitting, "_mode_factors", None)  # a call would raise
    system = ProblemSpec("ex241", m=4, stencil="unit").build()
    assert run_stationary_grid(system, "gadi", [], [0.01]) == []
    assert run_stationary_grid(system, "gadi", [1.0], []) == []
    assert run_stationary_grid(system, "gadi", [], [], SolveConfig(inner="iterative")) is None


@pytest.mark.parametrize("modes", [1, 7, 8, 9, 127, 128, 129, 255, 256, 1000, 2304, 9216])
def test_the_block_row_sums_are_the_sums_of_the_rows(modes):
    # run_stationary_grid takes every point's RES from one w.sum(axis=-1) of
    # its C-ordered (shifts, relaxations, modes) array, and run_stationary
    # from a 1-D w.sum(); the reports agree bit for bit only while these two
    # do, for the (points, modes) block and each grid shape of its points
    rng = np.random.default_rng(modes)
    w = np.abs(rng.standard_normal((70, modes)) * 10.0 ** rng.uniform(-8.0, 8.0, (70, modes))) ** 2
    for points in range(1, 71):
        block = w[:points]
        assert block.flags.c_contiguous
        rows = np.array([r.sum() for r in block]).tobytes()
        grids = [block.reshape(a, points // a, modes) for a in range(1, points + 1)
                 if points % a == 0]
        for layout in (block, *grids):
            assert layout.sum(axis=-1).tobytes() == rows
