import csv
import math

import numpy as np
import pytest

from gadisolve.bench import (SWEEP_MAX_OUTER, SWEEP_OMEGAS, BenchmarkRow, ParamPolicy, RunConfig,
                             PRESET_NAMES, best_cell, build_preset, main, parse_csv,
                             run_grid, sweep_params, write_convergence_series,
                             write_csv)
from gadisolve.problems import ProblemSpec
from gadisolve.splitting import DEFAULT_OMEGA, SolveReport
from helpers import joint_sine_factors, mode_factors, without_joint_eigenbasis


# -- run_grid -------------------------------------------------------------------

def test_single_trivial_problem_one_row():
    cfg = RunConfig((ProblemSpec("ex241", m=1),), ("gadi",), ParamPolicy(),
                    tol=1e-8)
    rows = run_grid(cfg)
    assert len(rows) == 1
    assert rows[0].converged
    assert rows[0].it <= 10
    assert rows[0].n == 1


def test_row_count_is_cross_product():
    points = tuple((1.0, w) for w in (0.0, 0.5))
    cfg = RunConfig((ProblemSpec("ex241", m=1), ProblemSpec("ex241", m=2)),
                    ("gadi", "hss"), ParamPolicy("fixed", points=points), tol=1e-6)
    rows = run_grid(cfg)
    assert len(rows) == 2 * 2 * 2


def test_invalid_method_for_family_rejected_before_solve():
    with pytest.raises(ValueError):
        RunConfig((ProblemSpec("ex241", m=2),), ("newton-gadi",))
    with pytest.raises(ValueError):
        RunConfig((ProblemSpec("ex421", n=2),), ("mhss",))
    with pytest.raises(ValueError):
        RunConfig((), ("gadi",))


def test_failures_recorded_as_nonconverged_rows():
    # one sweep cannot reach 1e-10 here; the row must still appear
    cfg = RunConfig((ProblemSpec("ex241", m=4),), ("mhss",),
                    ParamPolicy("fixed", points=((1.0, 0.0),)), tol=1e-10,
                    max_outer=1)
    rows = run_grid(cfg)
    assert len(rows) == 1
    assert not rows[0].converged


def test_indefinite_inner_cg_recorded_as_failed_rows():
    # W = K - 2000 I is indefinite, so CG in the first half-step meets
    # nonpositive curvature; each method still yields a row
    spec = ProblemSpec("ex242", m=8, sigma1=-2000.0, stencil="unit")
    cfg = RunConfig((spec,), ("gadi", "mhss"),
                    ParamPolicy("fixed", points=((1.0, 0.01),)), inner="iterative")
    rows = run_grid(cfg)
    assert [r.algorithm for r in rows] == ["gadi", "mhss"]
    assert not any(r.converged for r in rows)


def _third_cg_fails(monkeypatch):
    # the first half-step's CG fails in every third sweep, with a Krylov
    # count and residual of its own
    from gadisolve import InnerSolverError, splitting
    original, calls = splitting.cg_hpd, []

    def third_fails(M, b, rel_tol, max_it):
        calls.append(1)
        if len(calls) % 3 == 0:
            raise InnerSolverError("no convergence", x=np.zeros(b.shape, complex),
                                   iterations=7, residual=0.5)
        return original(M, b, rel_tol=rel_tol, max_it=max_it)
    monkeypatch.setattr(splitting, "cg_hpd", third_fails)


def test_a_failed_cell_reads_its_row_from_the_partial_report(monkeypatch):
    from gadisolve import InnerSolverError, SolveConfig, SplitParams, run_stationary
    _third_cg_fails(monkeypatch)
    spec = ProblemSpec("ex241", m=8, tau_mode="500h", stencil="unit")
    with pytest.raises(InnerSolverError) as info:
        run_stationary(spec.build(), SplitParams("gadi", 1.0, 0.01),
                       SolveConfig(tol=1e-10, inner="iterative"))
    partial = info.value.report
    (row,) = run_grid(RunConfig((spec,), ("gadi",), ParamPolicy("fixed", ((1.0, 0.01),)),
                                tol=1e-10, inner="iterative"))
    # sweeps and the outer RES, not the Krylov steps and residual of the error
    assert (row.it, row.res, row.converged) == (partial.iterations, partial.final_res, False)
    assert row.it == 2 and row.res != 0.5


def test_a_failed_newton_cell_counts_every_inner_sweep():
    # the restart from X = 0 diverges at outer step 2 (see test_matrixeq)
    (row,) = run_grid(RunConfig((ProblemSpec("ex421", n=40),), ("newton-gadi",),
                                ParamPolicy("fixed", ((None, 0.01),))))
    assert not row.converged and row.it == 80
    assert row.res == pytest.approx(4759.2515937790, rel=1e-12)


def test_run_config_is_frozen():
    # a field set after the checks would skip them: a tol the cells ignore,
    # or a method the family does not have
    import dataclasses
    cfg = RunConfig((ProblemSpec("ex241", m=4),), ("gadi",))
    for name, value in (("tol", 1e-12), ("methods", ("newton-gadi",)), ("max_outer", 0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
    assert (cfg.tol, cfg.methods, cfg.max_outer) == (1e-5, ("gadi",), 500)


def test_run_config_checks_its_solver_settings():
    specs, methods = (ProblemSpec("ex241", m=2),), ("gadi",)
    for kwargs, message in (({"max_outer": 0}, "max_outer must be at least 1"),
                            ({"inner": "fast"}, "inner must be 'auto', 'exact' or 'iterative'"),
                            ({"tol": -1.0}, "tol must be positive, got -1.0")):
        with pytest.raises(ValueError, match=message):
            RunConfig(specs, methods, **kwargs)
    # the mixed GADI path solves without a SolveConfig of its own, so the
    # check must come before any cell runs, as it does for mhss and ex31
    for spec, method in ((ProblemSpec("ex241", m=4, stencil="unit"), "gadi"),
                         (ProblemSpec("ex241", m=4, stencil="unit"), "mhss"),
                         (ProblemSpec("ex31", n=4), "gadi")):
        with pytest.raises(ValueError, match="max_outer must be at least 1"):
            sweep_params(spec, method, (1.0,), (0.01,), max_outer=0)


def test_param_policy_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="^policy kind must be fixed or sweep, got 'grid'$"):
        ParamPolicy("grid")


def test_solve_config_names_a_nonpositive_tol():
    from gadisolve import SolveConfig
    with pytest.raises(ValueError, match="tol must be positive, got -1.0"):
        SolveConfig(tol=-1.0)


def test_max_outer_bounds_the_newton_steps():
    spec = ProblemSpec("ex421", n=8)
    policy = ParamPolicy("fixed", points=((None, 0.01),))
    (full,) = run_grid(RunConfig((spec,), ("newton-gadi",), policy))
    reports = []
    (row,) = run_grid(RunConfig((spec,), ("newton-gadi",), policy, max_outer=1),
                      on_report=lambda r, rep: reports.append(rep))
    assert full.converged and not row.converged
    assert reports[0].iterations == 1 and row.it < full.it


def test_fixed_policy_cells_are_direct_solves(monkeypatch):
    # fig1 and fig2 write the GADI series of a fixed cell: it must be
    # run_stationary's
    from gadisolve import SolveConfig, SplitParams, default_alpha, run_stationary
    spec = ProblemSpec("ex241", m=4, stencil="unit")
    reports = []
    points = ((None, None), (None, 0.0), (1.0, 0.5))
    run_grid(RunConfig((spec,), ("gadi",), ParamPolicy("fixed", points=points), inner="exact"),
             on_report=lambda row, report: reports.append((row, report)))
    assert len(reports) == len(points)
    system = spec.build()
    for (row, report), (alpha, omega) in zip(reports, points):
        params = SplitParams("gadi", default_alpha(system, "gadi") if alpha is None else alpha,
                             DEFAULT_OMEGA if omega is None else omega)
        direct = run_stationary(system, params, SolveConfig(1e-5, 500, "exact"))[1]
        assert row.omega == params.omega
        assert report.residual_history == direct.residual_history


def _count_solves(monkeypatch):
    """The (params, max_outer, report) of every run_stationary solve bench makes."""
    from gadisolve import bench
    calls = []
    original = bench.run_stationary

    def counted(system, params, config):
        x, report = original(system, params, config)
        calls.append((params, config.max_outer, report))
        return x, report
    monkeypatch.setattr(bench, "run_stationary", counted)
    return calls


def test_sweep_policy_reuses_the_winning_cell(monkeypatch):
    without_joint_eigenbasis(monkeypatch)  # the cell-by-cell grid
    spec = ProblemSpec("ex241", m=4, stencil="unit")
    cells = sweep_params(spec, "gadi", None, SWEEP_OMEGAS, tol=1e-5)
    best = best_cell(cells)
    calls = _count_solves(monkeypatch)
    reports = []
    cfg = RunConfig((spec,), ("gadi",), ParamPolicy("sweep"), tol=1e-5)
    (row,) = run_grid(cfg, on_report=lambda r, rep: reports.append(rep))
    assert len(calls) == len(cells) == 21 * 3  # one solve per cell, no second solve of the winner
    assert (row.alpha, row.omega, row.it, row.res) == (best.alpha, best.omega, best.it, best.res)
    assert len(reports) == 1 and reports[0].iterations == row.it


def test_sweep_policy_without_a_converged_cell_solves_once_more(monkeypatch):
    without_joint_eigenbasis(monkeypatch)  # the cell-by-cell grid
    spec = ProblemSpec("ex241", m=4, stencil="unit")
    best = best_cell(sweep_params(spec, "gadi", None, SWEEP_OMEGAS, tol=1e-300, max_outer=3))
    calls = _count_solves(monkeypatch)
    cfg = RunConfig((spec,), ("gadi",), ParamPolicy("sweep"), tol=1e-300, max_outer=3)
    (row,) = run_grid(cfg)
    assert len(calls) == 21 * 3 + 1  # the best cell again, with the full max_outer
    assert not row.converged and row.it == 3
    assert (row.alpha, row.omega) == (best.alpha, best.omega)


def test_a_bad_grid_point_fails_before_any_solve(monkeypatch, capsys):
    calls = _count_solves(monkeypatch)
    with pytest.raises(ValueError, match="^omega must lie in \\[0, 2\\), got 2.5$"):
        run_grid(RunConfig((ProblemSpec("ex241", m=2),), ("gadi",),
                           ParamPolicy("fixed", points=((1.0, 0.01), (1.0, 2.5)))))
    assert calls == []
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--family", "ex241", "--m", "2", "--alpha-grid", "1,-1",
              "--omega-grid", "0,0.5"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith("sweep: alpha must be positive, got -1.0\n")
    assert calls == []


@pytest.mark.parametrize("spec", [
    ProblemSpec("ex241", m=6, tau_mode="h", stencil="unit"),
    ProblemSpec("ex241", m=6, tau_mode="500h", stencil="unit"),
    ProblemSpec("ex242", m=6, stencil="unit"),
], ids=lambda spec: spec.label())
def test_capped_sweep_policy_finds_the_full_grid_winner(monkeypatch, spec):
    without_joint_eigenbasis(monkeypatch)  # the cell-by-cell grid
    full = sweep_params(spec, "gadi", None, SWEEP_OMEGAS)
    best = best_cell(full)
    calls = _count_solves(monkeypatch)
    (row,) = run_grid(RunConfig((spec,), ("gadi",), ParamPolicy("sweep")))
    assert (row.alpha, row.omega, row.it, row.res) == (best.alpha, best.omega, best.it, best.res)
    # every cell still runs, but none beyond the best converged count so far
    assert len(calls) == len(full)
    assert sum(report.iterations for _, _, report in calls) < sum(c.it for c in full)
    cap = SWEEP_MAX_OUTER
    for _, max_outer, report in calls:
        assert max_outer <= cap and report.iterations <= max_outer
        if report.converged:
            cap = min(cap, report.iterations)


def _count_mode_factors(monkeypatch):
    """The (shifts, relaxations) of every per-mode factor build."""
    from gadisolve import splitting
    sizes = []
    original = splitting._mode_factors

    def counted(lam, mu, method, alpha, omega):
        sizes.append((np.size(alpha), np.size(omega)))
        return original(lam, mu, method, alpha, omega)
    monkeypatch.setattr(splitting, "_mode_factors", counted)
    return sizes


def _outcome(report):
    return report.converged, report.iterations, report.final_res, report.residual_history


def test_detected_sweep_policy_solves_the_grid_in_one_pass(monkeypatch):
    from gadisolve import SolveConfig, SplitParams, run_stationary
    spec = ProblemSpec("ex241", m=4, stencil="unit")
    best = best_cell(sweep_params(spec, "gadi", None, SWEEP_OMEGAS, tol=1e-5))
    calls, sizes = _count_solves(monkeypatch), _count_mode_factors(monkeypatch)
    reports = []
    cfg = RunConfig((spec,), ("gadi",), ParamPolicy("sweep"), tol=1e-5)
    (row,) = run_grid(cfg, on_report=lambda r, rep: reports.append(rep))
    assert (row.alpha, row.omega, row.it, row.res) == (best.alpha, best.omega, best.it, best.res)
    # g once for the 21 shifts times 3 omegas, and no solve of the winner alone
    assert sizes == [(21, 3)] and calls == []
    # the race's own report of the winner is its solve's
    (report,) = reports
    own = run_stationary(spec.build(), SplitParams("gadi", row.alpha, row.omega),
                         SolveConfig(1e-5, SWEEP_MAX_OUTER, "exact"))[1]
    assert _outcome(report) == _outcome(own)
    assert report.converged and report.iterations == row.it
    assert len(report.residual_history) == row.it + 1


def test_detected_sweep_policy_without_a_converged_cell_solves_once(monkeypatch):
    spec = ProblemSpec("ex241", m=4, stencil="unit")
    best = best_cell(sweep_params(spec, "gadi", None, SWEEP_OMEGAS, tol=1e-300, max_outer=3))
    calls, sizes = _count_solves(monkeypatch), _count_mode_factors(monkeypatch)
    reports = []
    cfg = RunConfig((spec,), ("gadi",), ParamPolicy("sweep"), tol=1e-300, max_outer=3)
    (row,) = run_grid(cfg, on_report=lambda r, rep: reports.append(rep))
    assert sizes == [(21, 3), (1, 1)]
    assert len(calls) == 1  # the best cell, with the full max_outer
    assert not row.converged and row.it == 3
    assert (row.alpha, row.omega, row.res) == (best.alpha, best.omega, best.res)
    assert reports[0].iterations == 3 and len(reports[0].residual_history) == 4


@pytest.mark.parametrize("spec", [
    ProblemSpec("ex241", m=6, tau_mode="h", stencil="unit"),
    ProblemSpec("ex241", m=6, tau_mode="500h", stencil="unit"),
    ProblemSpec("ex242", m=6, stencil="unit"),
], ids=lambda spec: spec.label())
def test_detected_capped_sweep_policy_finds_the_full_grid_winner(monkeypatch, spec):
    best = best_cell(sweep_params(spec, "gadi", None, SWEEP_OMEGAS))
    calls, sizes = _count_solves(monkeypatch), _count_mode_factors(monkeypatch)
    (row,) = run_grid(RunConfig((spec,), ("gadi",), ParamPolicy("sweep")))
    assert (row.alpha, row.omega, row.it, row.res) == (best.alpha, best.omega, best.it, best.res)
    assert sizes == [(21, 3)] and calls == []


def test_a_factorization_failure_fails_every_omega_of_its_shift(monkeypatch):
    from gadisolve import splitting
    without_joint_eigenbasis(monkeypatch)

    def singular(M):
        raise RuntimeError("Factor is exactly singular")
    monkeypatch.setattr(splitting, "DirectSolver", singular)
    spec = ProblemSpec("ex241", m=4, stencil="unit")
    cells = sweep_params(spec, "gadi", None, SWEEP_OMEGAS)
    assert len(cells) == 21 * 3
    assert all(not c.converged and c.it == 0 and math.isnan(c.res) for c in cells)
    assert [c.omega for c in cells] == [w for w in SWEEP_OMEGAS for _ in range(21)]
    (row,) = run_grid(RunConfig((spec,), ("gadi",), ParamPolicy("sweep")))
    assert not row.converged and row.it == 0


def test_uncapped_ex421_sweep_policy_finds_the_full_grid_winner():
    spec = ProblemSpec("ex421", n=4)
    best = best_cell(sweep_params(spec, "newton-gadi", None, SWEEP_OMEGAS))
    (row,) = run_grid(RunConfig((spec,), ("newton-gadi",), ParamPolicy("sweep")))
    assert best.converged
    assert (row.alpha, row.omega, row.it, row.res) == (best.alpha, best.omega, best.it, best.res)


def test_ex421_sweep_grid_keeps_only_the_winning_report():
    # every cell's RiccatiResult holds X and a NewtonState per step; keeping
    # all 63 of them at n = 8 peaks near 2.4 MB, the winner's alone near 0.4
    import tracemalloc
    cfg = RunConfig((ProblemSpec("ex421", n=8),), ("newton-gadi",), ParamPolicy("sweep"))
    tracemalloc.start()
    try:
        (row,) = run_grid(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.converged
    assert peak < 1_000_000


def test_sweep_policy_factorizes_each_shift_once(monkeypatch):
    from gadisolve import linalg, splitting
    without_joint_eigenbasis(monkeypatch)
    made = []

    class Counted(linalg.DirectSolver):
        def __init__(self, M):
            made.append(M.shape)
            super().__init__(M)
    monkeypatch.setattr(splitting, "DirectSolver", Counted)
    spec = ProblemSpec("ex241", m=4, stencil="unit")
    (row,) = run_grid(RunConfig((spec,), ("gadi",), ParamPolicy("sweep"), inner="exact"))
    assert row.converged
    assert len(made) == 2 * 21 * 3  # one pair per (shift, omega) cell, not per sweep


def test_sweep_params_factorizes_each_shift_once(monkeypatch):
    from gadisolve import linalg, splitting
    without_joint_eigenbasis(monkeypatch)
    made = []

    class Counted(linalg.DirectSolver):
        def __init__(self, M):
            made.append(M.shape)
            super().__init__(M)
    monkeypatch.setattr(splitting, "DirectSolver", Counted)
    cells = sweep_params(ProblemSpec("ex241", m=4, stencil="unit"), "gadi", None, SWEEP_OMEGAS)
    assert len(cells) == 21 * 3
    assert len(made) == 2 * 21 * 3  # one pair per (shift, omega) cell, not per sweep
    # the cells come back omega-major, each omega's shifts in ascending order
    assert [c.omega for c in cells] == [w for w in SWEEP_OMEGAS for _ in range(21)]
    assert [c.alpha for c in cells[:21]] == sorted(c.alpha for c in cells[:21])
    assert [c.alpha for c in cells[21:42]] == [c.alpha for c in cells[:21]]


def test_detected_systems_make_no_factorization_and_no_eigensolve(monkeypatch):
    # ex241 and ex242 have a joint sine eigenbasis: their exact sweeps divide,
    # and their bound shift is read off the eigenvalues of W
    from gadisolve import splitting
    made, shifts = [], []
    monkeypatch.setattr(splitting, "DirectSolver", lambda M: made.append(M.shape))
    monkeypatch.setattr(splitting, "eig_extremes_spd", lambda W: shifts.append(W.shape))
    specs = (ProblemSpec("ex241", m=4, stencil="unit"), ProblemSpec("ex242", m=4, stencil="unit"))
    rows = run_grid(RunConfig(specs, ("gadi",), ParamPolicy("sweep"), inner="exact"))
    rows += run_grid(RunConfig(specs, ("mhss", "pmhss", "pmhss-vi", "cri", "tscsp"), inner="exact"))
    assert len(rows) == 12 and all(r.converged for r in rows)
    assert made == [] and shifts == []


def _printed_rows(rows):
    return [(r.algorithm, r.problem, f"{r.alpha:.10g}", r.omega, r.it, f"{r.res:.4e}")
            for r in rows]


def test_sparse_path_gives_the_rows_of_the_joint_eigenbasis(monkeypatch):
    specs = tuple(spec for m in (8, 16) for spec in (
        ProblemSpec("ex241", m=m, tau_mode="h", stencil="unit"),
        ProblemSpec("ex241", m=m, tau_mode="500h", stencil="unit"),
        ProblemSpec("ex242", m=m, stencil="unit")))
    cfgs = (RunConfig(specs, ("gadi",), ParamPolicy("sweep"), inner="exact"),
            RunConfig(specs, ("mhss", "pmhss", "pmhss-vi", "cri", "tscsp"), inner="exact"))
    detected = [row for cfg in cfgs for row in run_grid(cfg)]
    without_joint_eigenbasis(monkeypatch)
    sparse = [row for cfg in cfgs for row in run_grid(cfg)]
    assert len(detected) == 6 * 6 and all(r.converged for r in detected)
    assert _printed_rows(sparse) == _printed_rows(detected)


def test_table1_preset_gadi_strictly_smallest_per_size():
    # the tau = h batches of the table1 preset: 5 comparison methods (plus the
    # second PMHSS variant) and the swept GADI rows over all five grid sizes
    cfg_base, cfg_gadi, _ = build_preset("table1")
    rows = run_grid(cfg_base) + run_grid(cfg_gadi)
    assert len(rows) >= 25
    assert all(r.converged for r in rows)
    by_problem = {}
    for r in rows:
        by_problem.setdefault(r.problem, {})[r.algorithm] = r.it
    assert len(by_problem) == 5
    for problem, its in by_problem.items():
        competitors = [v for k, v in its.items() if k != "gadi"]
        assert its["gadi"] < min(competitors), (problem, its)


def test_sweep_policy_not_worse_than_auto():
    spec = (ProblemSpec("ex241", m=8, stencil="unit"),)
    auto = run_grid(RunConfig(spec, ("gadi",), ParamPolicy(), tol=1e-5))
    swept = run_grid(RunConfig(spec, ("gadi",), ParamPolicy("sweep"), tol=1e-5))
    assert swept[0].it <= auto[0].it


def test_sweep_consistent_with_radius_search():
    from gadisolve import default_alpha
    spec = ProblemSpec("ex241", m=4, stencil="unit")
    system = spec.build()
    at = default_alpha(system, "gadi")
    grid = tuple(np.geomspace(at / 4, 4 * at, 15))
    cells = sweep_params(spec, "gadi", grid, (0.01,), tol=1e-5)
    best = best_cell(cells)
    # the iteration matrix is diagonal in the joint sine eigenbasis, so its
    # spectral radius is the largest per-mode factor
    lam, mu, _ = joint_sine_factors(system)
    a_rho = min(grid, key=lambda a: np.abs(mode_factors("gadi", lam, mu, a, 0.01)).max())
    it_at_rho_min = next(c.it for c in cells if c.alpha == pytest.approx(a_rho))
    assert it_at_rho_min <= best.it + 2


# -- sweep_params ------------------------------------------------------------------

def test_sweep_relaxation_pattern_lyapunov_row():
    # reference iteration counts 19, 20, 19, 25, 40, 84 over this omega list
    spec = ProblemSpec("ex31", n=16, t=0.01)
    omegas = (0.01, 0.1, 0.0, 0.5, 1.0, 1.5)
    cells = sweep_params(spec, "gadi", (2.6198,), omegas, tol=1e-5)
    assert all(c.converged for c in cells)
    by_omega = {c.omega: c.it for c in cells}
    assert by_omega[1.5] > by_omega[1.0] > by_omega[0.5] > max(by_omega[0.0],
                                                               by_omega[0.01],
                                                               by_omega[0.1])


def test_sweep_degenerate_single_cell():
    cells = sweep_params(ProblemSpec("ex241", m=2), "gadi", (5.0,), (0.01,), tol=1e-6)
    assert len(cells) == 1


def test_sweep_empty_grid_rejected():
    with pytest.raises(ValueError):
        sweep_params(ProblemSpec("ex241", m=2), "gadi", (), (0.0,))


def test_best_cell_tiebreaks():
    cells = [BenchmarkRow("gadi", 4, "ex241(m=2,tau=h)", alpha, 0.0, res, it, 0.0, converged)
             for alpha, it, res, converged in ((2.0, 7, 1e-6, True),
                                               (1.0, 7, 1e-6, True),
                                               (3.0, 7, 5e-7, True),
                                               (4.0, 9, 1e-8, True),
                                               (0.5, 2, 1e-6, False))]
    win = best_cell(cells)
    assert (win.alpha, win.it) == (3.0, 7)  # smaller RES wins the IT tie


# -- CSV and series -----------------------------------------------------------------

def _sample_rows():
    rows = []
    for k in range(10):
        rows.append(BenchmarkRow(("gadi", "mhss")[k % 2], 4 + k, f"ex241(m={k},tau=h)",
                                 1.5 + k, 0.01 * k, float(f"{math.pi * 10 ** -k:.4e}"),
                                 3 + k, 0.125 * k, k % 3 != 0))
    return rows


def test_write_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], path)
    assert path.read_text() == "algorithm,n,problem,alpha,omega,RES,IT,CPU,converged\n"


def test_csv_round_trip(tmp_path):
    rows = _sample_rows()
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(rows, p1)
    back = parse_csv(p1)
    write_csv(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert [ (r.algorithm, r.n, r.problem, r.it, r.converged) for r in back ] == \
           [ (r.algorithm, r.n, r.problem, r.it, r.converged) for r in rows ]
    for a, b in zip(rows, back):
        assert b.res == float(f"{a.res:.4e}")
        assert b.alpha == pytest.approx(a.alpha)


def test_parse_csv_rejects_a_wrong_header(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("algorithm,n,problem\ngadi,4,ex241(m=2)\n")
    with pytest.raises(ValueError, match=r"^unexpected CSV header \('algorithm', 'n', 'problem'\)$"):
        parse_csv(path)


def test_series_minimal_report(tmp_path):
    report = SolveReport(True, 0, 0.0, [(0, 0.0)], 0.0)
    path = tmp_path / "series.csv"
    write_convergence_series(report, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "iteration,RES"


def test_series_of_an_empty_history_is_refused(tmp_path):
    path = tmp_path / "series.csv"
    with pytest.raises(ValueError, match="^report has an empty residual history$"):
        write_convergence_series(SolveReport(False, 0, 1.0, [], 0.0), path)
    assert not path.exists()


def test_series_of_a_riccati_result(tmp_path):
    from gadisolve import gen_ex421, newton_gadi_riccati
    result = newton_gadi_riccati(gen_ex421(8))
    path = tmp_path / "series.csv"
    write_convergence_series(result, path)
    lines = path.read_text().splitlines()
    assert len(lines) == result.outer_iterations + 2
    assert lines[-1] == f"{result.outer_iterations},{result.final_res:.10e}"


def test_series_length_matches_history(tmp_path):
    cfg = RunConfig((ProblemSpec("ex241", m=3),), ("gadi",), ParamPolicy(),
                    tol=1e-6)
    captured = []
    rows = run_grid(cfg, on_report=lambda row, rep: captured.append(rep))
    path = tmp_path / "series.csv"
    write_convergence_series(captured[0], path)
    lines = path.read_text().splitlines()
    assert len(lines) == rows[0].it + 2  # header + IT+1 samples


def test_preset_runs_are_deterministic_modulo_cpu(tmp_path):
    def strip_cpu(path):
        import csv as csvmod
        out = []
        with open(path, newline="") as fh:
            for parts in csvmod.reader(fh):
                out.append(tuple(parts[:7] + parts[8:]))
        return out

    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for path in (p1, p2):
        rows = []
        for cfg in build_preset("table3"):
            rows.extend(run_grid(cfg))
        write_csv(rows, path)
    assert strip_cpu(p1) == strip_cpu(p2)


# -- CLI ------------------------------------------------------------------------------

def test_cli_solve_writes_row_and_series(tmp_path, capsys):
    out = tmp_path / "row.csv"
    series = tmp_path / "series.csv"
    code = main(["solve", "--family", "ex241", "--m", "4", "--tau", "h",
                 "--method", "gadi", "--alpha", "auto", "--omega", "0.01",
                 "--tol", "1e-5", "--inner", "exact",
                 "--out", str(out), "--series", str(series)])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.startswith("algorithm,")
    rows = parse_csv(out)
    assert len(rows) == 1 and rows[0].converged
    assert series.read_text().startswith("iteration,RES")


def test_cli_solve_exit_code_on_failure(tmp_path):
    code = main(["solve", "--family", "ex241", "--m", "4", "--method", "mhss",
                 "--alpha", "1.0", "--tol", "1e-12", "--max-outer", "1"])
    assert code == 1


def test_cli_sweep(tmp_path, capsys):
    out = tmp_path / "cells.csv"
    code = main(["sweep", "--family", "ex31", "--n", "8", "--t", "0.01",
                 "--method", "gadi", "--alpha-grid", "4:6:1",
                 "--omega-grid", "0,0.01", "--tol", "1e-5", "--out", str(out)])
    assert code == 0
    assert "best:" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,omega,IT,RES,converged"
    assert len(lines) == 1 + 3 * 2


def test_fig1_preset_emits_one_series_per_method(tmp_path):
    (cfg,) = build_preset("fig1")
    reports = []
    rows = run_grid(cfg, on_report=lambda row, rep: reports.append((row, rep)))
    assert len(rows) == 5
    assert all(r.converged for r in rows)
    for k, (row, rep) in enumerate(reports):
        path = tmp_path / f"series_{k}.csv"
        write_convergence_series(rep, path)
        assert len(path.read_text().splitlines()) == row.it + 2


def test_cli_run_preset_with_series(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    code = main(["run", "--preset", "fig3", "--out", str(out),
                 "--series-dir", str(tmp_path)])
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 2  # hss and gadi
    series = sorted(p.name for p in tmp_path.glob("fig3_*.csv"))
    assert len(series) == 2
    for name, row in zip(series, sorted(rows, key=lambda r: r.algorithm)):
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) == row.it + 2


def test_cli_run_preset_writes_its_series_beside_out_by_default(tmp_path, monkeypatch, capsys):
    # without --series-dir a series preset writes into the directory of --out
    out_dir = tmp_path / "rows"
    out_dir.mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--preset", "fig1", "--out", str(out_dir / "x.csv")]) == 0
    rows = parse_csv(out_dir / "x.csv")
    series = sorted(out_dir.glob("fig1_*.csv"))
    assert len(series) == len(rows) == 5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows"]


def test_cli_config_file_defaults_and_override(tmp_path, capsys):
    ini = tmp_path / "bench.ini"
    ini.write_text("[sweep]\nfamily = ex241\nm = 2\nmethod = gadi\n"
                   "alpha_grid = 8:10:1\nomega_grid = 0.01\ntol = 1e-6\n")
    code = main(["sweep", "--config", str(ini)])
    assert code == 0
    out1 = capsys.readouterr().out
    assert "best:" in out1
    # explicit flag overrides the file
    code = main(["sweep", "--config", str(ini), "--omega-grid", "0.5"])
    assert code == 0
    out2 = capsys.readouterr().out
    assert "omega=0.5" in out2


@pytest.mark.parametrize("flags", [["--alpha-grid", "1:2:0"],
                                   ["--alpha-grid", "1:2:-0.5"],
                                   ["--alpha-grid", "2:1:0.5"],
                                   ["--alpha-grid", "1:2"],
                                   ["--omega-grid", ""],
                                   ["--omega-grid", "0.1,,0.2"]])
def test_cli_sweep_rejects_bad_grid_flags(flags, capsys):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--family", "ex241", "--m", "4", *flags])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "grid" in err.splitlines()[-1]


def test_cli_sweep_rejects_bad_grid_from_config_file(tmp_path, capsys):
    ini = tmp_path / "bench.ini"
    ini.write_text("[sweep]\nfamily = ex241\nm = 2\nalpha_grid = 1:2:0\n")
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--config", str(ini)])
    assert info.value.code == 2
    assert "grid" in capsys.readouterr().err.splitlines()[-1]


def test_cli_solve_prints_the_written_row(tmp_path, capsys):
    out = tmp_path / "row.csv"
    main(["solve", "--family", "ex241", "--m", "3", "--method", "cri",
          "--alpha", "1.0", "--out", str(out)])
    assert capsys.readouterr().out == out.read_text()


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        build_preset("table9")


def _labels(family, sizes, **params):
    size = "m" if family in ("ex241", "ex242") else "n"
    tail = "".join(f",{k}={v}" for k, v in params.items())
    return tuple(f"{family}({size}={s}{tail})" for s in sizes)


_T1 = (8, 16, 24, 32, 48)
_EX241 = _labels("ex241", _T1, tau="h", stencil="unit")
_EX242 = _labels("ex242", _T1, s1=100, s2=100, stencil="unit")
_COMPARISON = ("mhss", "pmhss", "pmhss-vi", "cri", "tscsp")
_FIG_LINEAR = ("mhss", "pmhss", "cri", "tscsp", "gadi")
_AUTO = ((None, None),)
_FIG3 = [(("ex31(n=32,t=0.01)",), ("hss", "gadi"), "fixed", ((None, 0.0),), True)]
_FIG4 = [(("ex31(n=32,t=0.1)",), ("hss", "gadi"), "fixed", ((None, 0.0),), True)]

# every batch of every preset: (spec labels, methods, policy kind, policy
# points, series)
PINNED_PRESETS = {
    "table1": [(_EX241, _COMPARISON, "fixed", _AUTO, False),
               (_EX241, ("gadi",), "sweep", _AUTO, False),
               (_labels("ex241", _T1, tau="500h", stencil="unit"), ("gadi",), "sweep", _AUTO,
                False)],
    "table2": [(_EX242, _COMPARISON, "fixed", _AUTO, False),
               (_EX242, ("gadi",), "sweep", _AUTO, False)],
    "table3": [(("ex31(n=16,t=0.01)", "ex31(n=16,t=0.1)"), ("gadi",), "fixed",
                tuple((None, w) for w in (0.01, 0.1, 0.0, 0.5, 1.0, 1.5)), False)],
    "table4": [(tuple(f"ex31(n={n},t={t})" for n in _T1 for t in (0.01, 0.1)),
                ("hss", "gadi"), "fixed", ((None, 0.0),), False)],
    "table5": [(_labels("ex421", (8, 16, 24, 32)), ("newton-gadi",), "fixed", ((None, 0.01),),
                False)],
    "fig1": [(_labels("ex241", (32,), tau="h", stencil="unit"), _FIG_LINEAR, "fixed", _AUTO,
              True)],
    "fig2": [(_labels("ex242", (32,), s1=100, s2=100, stencil="unit"), _FIG_LINEAR, "fixed",
              _AUTO, True)],
    "fig3": _FIG3,
    "fig4": _FIG4,
    "fig5": _FIG3,
    "fig6": _FIG4,
    "fig7": [(_labels("ex421", (8, 16, 24)), ("newton-gadi",), "fixed", ((None, 0.01),), True)],
}


@pytest.mark.parametrize("tol, inner", [(1e-5, "exact"), (1e-7, "iterative")])
def test_preset_batches_are_pinned(tol, inner):
    assert PRESET_NAMES == tuple(PINNED_PRESETS)
    for name, batches in PINNED_PRESETS.items():
        cfgs = (build_preset(name) if (tol, inner) == (1e-5, "exact")
                else build_preset(name, tol=tol, inner=inner))
        got = [(tuple(spec.label() for spec in cfg.problems), cfg.methods, cfg.policy.kind,
                cfg.policy.points, cfg.series) for cfg in cfgs]
        assert got == batches, name
        assert all((cfg.tol, cfg.inner, cfg.max_outer) == (tol, inner, 500) for cfg in cfgs)


# -- the pinned reproduction rows ---------------------------------------------------

# every column but CPU of the table3, table4 and table5 presets; table3 is the
# one preset that runs Lyapunov GADI at omega != 0, the table4 GADI rows match
# the reference digit for digit, and table5 at n = 8 gives 37 sweeps
PINNED_ROWS = {
    "table3": """\
gadi,16,"ex31(n=16,t=0.01)",2.619756743,0.01,5.8459e-06,19,true
gadi,16,"ex31(n=16,t=0.01)",2.619756743,0.1,6.7647e-06,20,true
gadi,16,"ex31(n=16,t=0.01)",2.619756743,0,5.3789e-06,19,true
gadi,16,"ex31(n=16,t=0.01)",2.619756743,0.5,7.3836e-06,27,true
gadi,16,"ex31(n=16,t=0.01)",2.619756743,1,9.0998e-06,43,true
gadi,16,"ex31(n=16,t=0.01)",2.619756743,1.5,9.2320e-06,92,true
gadi,16,"ex31(n=16,t=0.1)",3.081044239,0.01,7.0055e-06,15,true
gadi,16,"ex31(n=16,t=0.1)",3.081044239,0.1,7.3900e-06,16,true
gadi,16,"ex31(n=16,t=0.1)",3.081044239,0,6.4057e-06,15,true
gadi,16,"ex31(n=16,t=0.1)",3.081044239,0.5,8.2237e-06,22,true
gadi,16,"ex31(n=16,t=0.1)",3.081044239,1,9.1637e-06,36,true
gadi,16,"ex31(n=16,t=0.1)",3.081044239,1.5,9.4291e-06,78,true
""",
    "table4": """\
hss,8,"ex31(n=8,t=0.01)",5.291740428,0,8.9841e-06,10,true
gadi,8,"ex31(n=8,t=0.01)",5.291740428,0,8.9841e-06,10,true
hss,8,"ex31(n=8,t=0.1)",5.514140916,0,2.8720e-06,10,true
gadi,8,"ex31(n=8,t=0.1)",5.514140916,0,2.8720e-06,10,true
hss,16,"ex31(n=16,t=0.01)",2.619756743,0,5.3789e-06,19,true
gadi,16,"ex31(n=16,t=0.01)",2.619756743,0,5.3789e-06,19,true
hss,16,"ex31(n=16,t=0.1)",3.081044239,0,6.4057e-06,15,true
gadi,16,"ex31(n=16,t=0.1)",3.081044239,0,6.4057e-06,15,true
hss,24,"ex31(n=24,t=0.01)",1.79642232,0,8.4557e-06,26,true
gadi,24,"ex31(n=24,t=0.01)",1.79642232,0,8.4557e-06,26,true
hss,24,"ex31(n=24,t=0.1)",2.430222442,0,8.9194e-06,18,true
gadi,24,"ex31(n=24,t=0.1)",2.430222442,0,8.9194e-06,18,true
hss,32,"ex31(n=32,t=0.01)",1.40109256,0,8.4981e-06,33,true
gadi,32,"ex31(n=32,t=0.01)",1.40109256,0,8.4981e-06,33,true
hss,32,"ex31(n=32,t=0.1)",2.158719281,0,9.2584e-06,20,true
gadi,32,"ex31(n=32,t=0.1)",2.158719281,0,9.2584e-06,20,true
hss,48,"ex31(n=48,t=0.01)",1.027667517,0,7.7812e-06,45,true
gadi,48,"ex31(n=48,t=0.01)",1.027667517,0,7.7812e-06,45,true
hss,48,"ex31(n=48,t=0.1)",1.940754589,0,9.7814e-06,22,true
gadi,48,"ex31(n=48,t=0.1)",1.940754589,0,9.7814e-06,22,true
""",
    "table5": """\
newton-gadi,8,ex421(n=8),1.368080573,0.01,7.4812e-06,37,true
newton-gadi,16,ex421(n=16),0.7349980713,0.01,3.9356e-06,77,true
newton-gadi,24,ex421(n=24),0.5013329343,0.01,8.1429e-06,136,true
newton-gadi,32,ex421(n=32),0.3802241732,0.01,8.2803e-06,189,true
""",
}


@pytest.mark.parametrize("preset", sorted(PINNED_ROWS))
def test_preset_rows_are_pinned(tmp_path, preset):
    out = tmp_path / f"{preset}.csv"
    assert main(["run", "--preset", preset, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        got = [rec[:7] + rec[8:] for rec in csv.reader(fh)]
    assert got[0] == ["algorithm", "n", "problem", "alpha", "omega", "RES", "IT", "converged"]
    assert got[1:] == list(csv.reader(PINNED_ROWS[preset].splitlines()))


@pytest.mark.parametrize("preset", ["table3", "table4"])
def test_lyapunov_preset_rows_are_pinned_on_the_eigen_sweep_path(tmp_path, monkeypatch, preset):
    # ex31's W and T are tridiagonal Toeplitz, so every preset solve runs the
    # closed-form modal path; with detection off the same rows must come from
    # the eigen-coordinate sweep, which this keeps pinned
    without_joint_eigenbasis(monkeypatch)
    test_preset_rows_are_pinned(tmp_path, preset)
