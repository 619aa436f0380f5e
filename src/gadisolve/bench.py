"""Benchmark harness and command line interface.

Reproduces the reference result tables as CSV and the convergence-history
figures as machine-readable series files. Three subcommands:

    bench run   --preset table1 --out results.csv
    bench solve --family ex241 --m 8 --tau h --method gadi --alpha auto \
                --omega 0.01 --tol 1e-5 --inner exact --series series.csv
    bench sweep --family ex31 --n 16 --t 0.01 --alpha-grid 0.5:5:0.1 \
                --omega-grid 0,0.01,0.1,0.5,1,1.5

`--config FILE` reads the INI section named after the subcommand as flags:
each key is a long-flag name (`max_outer` or `max-outer`), placed before the
command line's own flags, which therefore win. An unknown key or a bad value
is a usage error like a bad flag. Exit codes: 0 when every run converged, 1
when a run did not converge or its solver failed (the row still appears), 2
on a usage or input error, reported in one line on stderr.
"""
import argparse
import configparser
import csv
import functools
import itertools
import math
import os
import re
import sys
import time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .linalg import NotPositiveDefiniteError
from .matrixeq import newton_gadi_riccati, solve_lyapunov_gadi, solve_lyapunov_hss
from .problems import FAMILIES, STENCILS, TAU_MODES, ProblemSpec
from .splitting import (DEFAULT_OMEGA, SolveConfig, SplitParams, default_alpha, run_stationary,
                        run_stationary_grid)

__all__ = [
    "BenchmarkRow", "ParamPolicy", "RunConfig",
    "run_grid", "sweep_params", "best_cell",
    "write_csv", "parse_csv", "write_convergence_series",
    "build_preset", "PRESET_NAMES", "main",
]

CSV_HEADER = ("algorithm", "n", "problem", "alpha", "omega", "RES", "IT", "CPU", "converged")

LINEAR_METHODS = ("gadi", "hss", "mhss", "pmhss", "pmhss-vi", "cri", "tscsp")
# a family's methods, the report of one cell's solve(problem, params,
# config), the report field its IT column reads, and grid(problem, method,
# alphas, omegas, config): the reports of a race of the grid alphas x omegas,
# alpha-major, to its first converged sweep, from one pass, or None where its
# cells are solved one by one. A solve looks its solver up here when it
# runs, so a wrapper bound over bench.run_stationary sees it
Family = namedtuple("Family", "methods solve it_field grid")
_LINEAR = Family(LINEAR_METHODS, lambda p, params, config: run_stationary(p, params, config)[1],
                 "iterations", run_stationary_grid)
_CELL_BY_CELL = lambda problem, method, alphas, omegas, config: None
METHODS_BY_FAMILY = {
    "ex241": _LINEAR,
    "ex242": _LINEAR,
    "ex31": Family(("gadi", "hss"), lambda p, params, config: (
        solve_lyapunov_gadi if params.method == "gadi" else solve_lyapunov_hss)(
            p, params, config)[1], "iterations", _CELL_BY_CELL),
    # max_outer counts Newton steps, and IT the inner sweeps
    "ex421": Family(("newton-gadi",), lambda p, params, config: newton_gadi_riccati(
        p, outer_tol=config.tol, max_outer=config.max_outer, alpha=params.alpha,
        omega=params.omega), "inner_iteration_total", _CELL_BY_CELL),
}


@dataclass
class BenchmarkRow:
    algorithm: str
    n: int
    problem: str
    alpha: float
    omega: float
    res: float
    it: int
    cpu: float
    converged: bool


@dataclass(frozen=True)
class ParamPolicy:
    """How (alpha, omega) are chosen per (problem, method) cell.

    kind "fixed" (the default): the given (alpha, omega) points, where None
    means the method's default shift or DEFAULT_OMEGA; a bad point is
    rejected here, before any solve. "sweep": the geometric shift grid
    around the default shift, times SWEEP_OMEGAS for a method that relaxes,
    reporting the single best cell (fewest iterations, residual tiebreak,
    then smaller alpha). It finds the winner of the grid
    :func:`sweep_params` runs with less work: the shifts run nearest the
    default first, and a cell stops once it has taken as many sweeps as the
    best converged cell so far (except on ex421, whose IT counts inner
    sweeps). On ex241 and ex242 in exact or auto inner mode, at every n,
    the whole grid, shifts times relaxations, is one closed-form race to
    its first converged sweep in the systems' joint sine eigenbasis
    (:func:`~gadisolve.splitting.run_stationary_grid`), with no
    factorization and no Krylov step; the winner's row and report come from
    the race, and no cell is solved alone. Elsewhere every cell is one
    solve. A row records the omega its sweeps ran with, 0 for a method that
    does not relax.
    """
    kind: str = "fixed"
    points: tuple = ((None, None),)

    def __post_init__(self):
        if self.kind not in ("fixed", "sweep"):
            raise ValueError(f"policy kind must be fixed or sweep, got {self.kind!r}")
        for alpha, omega in self.points:  # None, the method's default, is always valid
            SplitParams("gadi", 1.0 if alpha is None else alpha,
                        DEFAULT_OMEGA if omega is None else omega)


@dataclass(frozen=True)
class RunConfig:
    """One batch of (problem x method x parameter point) cells, checked and frozen."""
    problems: tuple
    methods: tuple
    policy: ParamPolicy = field(default_factory=ParamPolicy)
    tol: float = 1e-5
    inner: str = "exact"
    max_outer: int = 500
    series: bool = False

    def __post_init__(self):
        if not self.problems or not self.methods:
            raise ValueError("problem and method lists must be nonempty")
        SolveConfig(self.tol, self.max_outer, self.inner)  # a cell may lower max_outer
        for spec in self.problems:
            allowed = METHODS_BY_FAMILY[spec.family].methods
            for method in self.methods:
                if method not in allowed:
                    raise ValueError(
                        f"method {method!r} is not valid for family {spec.family!r} "
                        f"(allowed: {allowed})")


SWEEP_OMEGAS = (0.0, 0.01, 0.1)
SWEEP_MAX_OUTER = 200
# pmhss with V = I is mhss, sweep for sweep, and newton-gadi's inner sweeps
# are gadi's; the CSV keeps the alias's name
METHOD_ALIASES = {"pmhss-vi": "mhss", "newton-gadi": "gadi"}


def _swept_omegas(method, omega_grid=SWEEP_OMEGAS):
    """The omegas a sweep of ``method`` runs: only GADI relaxes, so any other
    method sweeps its shift alone, at omega 0."""
    return omega_grid if METHOD_ALIASES.get(method, method) == "gadi" else (0.0,)


def _auto_grid(alpha_star, points=21):
    return tuple(np.geomspace(alpha_star / 5.0, 5.0 * alpha_star, points))


def _params(method, alpha, omega):
    return SplitParams(METHOD_ALIASES.get(method, method), float(alpha), float(omega))


def _row(spec, method, params, shown, converged, cpu):
    """The row of ``method`` at ``params``: IT and RES read from report
    ``shown`` (the family's IT field), or 0 and NaN when it is None, and
    the omega the sweeps ran with, SplitParams.relaxation."""
    res, it = ((math.nan, 0) if shown is None else
               (shown.final_res, getattr(shown, METHODS_BY_FAMILY[spec.family].it_field)))
    return BenchmarkRow(method, spec.dimension, spec.label(), params.alpha, params.relaxation,
                        res, it, cpu, converged)


def _cell(spec, problem, method, alpha, omega, cfg, max_outer):
    """The cell of ``method`` at ``(alpha, omega)``, as ``(row, report)``.

    One call of the family's solve in METHODS_BY_FAMILY, at ``max_outer``
    (Newton steps on ex421). A solver failure becomes a non-converged row
    with report None, whose IT and RES are read from the error's partial
    report, or are 0 and NaN for an error without one.
    """
    family = METHODS_BY_FAMILY[spec.family]
    params = _params(method, alpha, omega)
    t0 = time.perf_counter()
    try:
        report = shown = family.solve(problem, params, SolveConfig(cfg.tol, max_outer, cfg.inner))
    except (RuntimeError, NotPositiveDefiniteError) as err:
        report, shown = None, getattr(err, "report", None)
    return (_row(spec, method, params, shown, report is not None and report.converged,
                 time.perf_counter() - t0), report)


def _grid(spec, problem, method, shifts, omegas, cfg, max_outer):
    """The sweep policy's (shift, omega) cells, shift by shift, reduced as they
    run to ``(win, ran)``: the :func:`best_cell` winner as ``(row, report)``,
    and the best row whose solver did not fail (None if every one failed).
    Only the winner's report is kept, not one per cell.

    Where IT counts the sweeps max_outer bounds (not on ex421, whose IT
    counts inner sweeps), no cell may take more sweeps than the best
    converged cell so far: one that needs more cannot win, and the cap is
    inclusive, so a tie still competes on RES and then on alpha.

    Where the family solves the grid in one pass (ex241 and ex242 with a
    joint eigenbasis, inner exact or auto), the cells race as one closed-form
    sweep of the grid, shifts times omegas, and all stop at the first sweep at
    which one converges. The cells that converge there are the cells of the
    fewest sweeps, so the winner is the one the cell-by-cell loop finds, by
    best_cell's key on the race's reports. Only its row is made, with the
    pass's time as CPU, and it keeps the race's report: no cell is solved
    alone.
    """
    family = METHODS_BY_FAMILY[spec.family]
    reports = family.grid(problem, METHOD_ALIASES.get(method, method), shifts, omegas,
                          SolveConfig(cfg.tol, max_outer, cfg.inner))
    if reports is not None:  # the closed form fails no cell
        k = len(omegas)
        i = min(range(len(reports)), key=lambda j: _cell_key(
            reports[j].converged, reports[j].iterations, reports[j].final_res, shifts[j // k]))
        report, params = reports[i], _params(method, shifts[i // k], omegas[i % k])
        row = _row(spec, method, params, report, report.converged, report.wall_time)
        return (row, report if report.converged else None), row
    win = ran = None
    capped = family.it_field == "iterations"
    for alpha, omega in itertools.product(shifts, omegas):
        cell = row, report = _cell(spec, problem, method, alpha, omega, cfg, max_outer)
        if win is None or best_cell((win[0], row)) is row:
            win = cell
        if report is not None and (ran is None or best_cell((ran, row)) is row):
            ran = row
        if capped and row.converged:
            max_outer = min(max_outer, row.it)
    return win, ran


def _method_rows(cfg, spec, problem, method):
    """The [(row, report)] one method contributes to a batch under its policy."""
    auto = functools.cache(lambda: default_alpha(problem, METHOD_ALIASES.get(method, method)))
    if cfg.policy.kind == "fixed":
        points = [(auto() if alpha is None else alpha, DEFAULT_OMEGA if omega is None else omega)
                  for alpha, omega in cfg.policy.points]
    else:
        # sweep: the single best cell of the grid, nominal shift first. A
        # winner that converged within the sweep cap is what a full solve
        # would give.
        alpha_star = auto()
        omegas = _swept_omegas(method)
        shifts = sorted(_auto_grid(alpha_star), key=lambda a: (abs(math.log(a / alpha_star)), a))
        win, ran = _grid(spec, problem, method, shifts, omegas, cfg,
                         min(cfg.max_outer, SWEEP_MAX_OUTER))
        if win[0].converged:
            return [win]
        # nothing converged: solve the best cell that ran to the cap again
        # with the full max_outer, or, if every cell failed, the nominal shift
        points = [(alpha_star, omegas[0]) if ran is None else (ran.alpha, ran.omega)]
    return [_cell(spec, problem, method, alpha, omega, cfg, cfg.max_outer)
            for alpha, omega in points]


def run_grid(cfg, on_report=None):
    """Run every (problem, method, parameter point) cell of a RunConfig.

    Rows come back in configuration order; a solver failure is recorded as a
    non-converged row rather than dropped. `on_report` receives
    (row, report) for each completed solve (used for series output).
    """
    rows = []
    for spec in cfg.problems:
        problem = spec.build()
        for method in cfg.methods:
            for row, report in _method_rows(cfg, spec, problem, method):
                rows.append(row)
                if report is not None and on_report is not None:
                    on_report(row, report)
    return rows


def sweep_params(spec, method, alpha_grid, omega_grid, tol=1e-5, inner="exact",
                 max_outer=SWEEP_MAX_OUTER):
    """Full factorial (alpha, omega) sweep for one problem and method.

    ``alpha_grid`` None selects the geometric grid around the method's
    default shift. A method that does not relax runs at omega 0 alone,
    whatever ``omega_grid`` holds. Every cell may run to ``max_outer``
    sweeps (Newton steps on ex421); each is one solve of the family, in
    closed form on ex241 and ex242 in exact or auto inner mode. Every point
    is checked before the first solve. Returns the BenchmarkRow of each cell in
    grid order (omega-major), the order it solves them in; pick the winner
    with :func:`best_cell`.
    """
    if (alpha_grid is not None and len(alpha_grid) == 0) or len(omega_grid) == 0:
        raise ValueError("sweep grids must be nonempty")
    omegas = _swept_omegas(method, omega_grid)
    alphas = (None,) if alpha_grid is None else alpha_grid
    # RunConfig rejects a method that is not valid for the family, and its
    # policy a bad point, before the problem is built
    policy = ParamPolicy("fixed", tuple((a, w) for w in omegas for a in alphas))
    cfg = RunConfig((spec,), (method,), policy, tol=tol, inner=inner, max_outer=max_outer)
    problem = spec.build()
    if alpha_grid is None:
        alphas = _auto_grid(default_alpha(problem, METHOD_ALIASES.get(method, method)))
    return [_cell(spec, problem, method, a, w, cfg, max_outer)[0] for w in omegas for a in alphas]


def _cell_key(converged, it, res, alpha):
    """The order of sweep cells: converged first, then fewest iterations, then
    smaller residual (NaN read as inf), then smaller alpha."""
    return (0 if converged else 1, it, res if np.isfinite(res) else math.inf, alpha)


def best_cell(cells):
    """Winning sweep cell: fewest iterations, then smaller residual, then smaller alpha."""
    return min(cells, key=lambda c: _cell_key(c.converged, c.it, c.res, c.alpha))


# -- output -------------------------------------------------------------------

def _write_rows(rows, fh):
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([
            r.algorithm, r.n, r.problem,
            f"{r.alpha:.10g}", f"{r.omega:.10g}",
            f"{r.res:.4e}", r.it, f"{r.cpu:.6f}",
            "true" if r.converged else "false",
        ])


def write_csv(rows, path):
    """Write benchmark rows; RES uses scientific notation with 5 significant digits."""
    with open(path, "w", newline="") as fh:
        _write_rows(rows, fh)


def parse_csv(path):
    """Read a benchmark CSV back into rows (inverse of :func:`write_csv`)."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header}")
        for rec in reader:
            rows.append(BenchmarkRow(
                rec[0], int(rec[1]), rec[2], float(rec[3]), float(rec[4]),
                float(rec[5]), int(rec[6]), float(rec[7]), rec[8] == "true"))
    return rows


def write_convergence_series(report, path):
    """Write the residual history as an 'iteration,RES' series for plotting."""
    if not report.residual_history:
        raise ValueError("report has an empty residual history")
    with open(path, "w", newline="") as fh:
        fh.write("iteration,RES\n")
        for it, res in report.residual_history:
            fh.write(f"{it},{res:.10e}\n")


def _series_filename(prefix, row):
    tag = re.sub(r"[^A-Za-z0-9]+", "_", f"{row.algorithm}_{row.problem}").strip("_")
    return f"{prefix}{tag}.csv"


# -- presets ------------------------------------------------------------------

_T1_SIZES = (8, 16, 24, 32, 48)
_COMPARISON = ("mhss", "pmhss", "pmhss-vi", "cri", "tscsp")
_FIG_METHODS = ("mhss", "pmhss", "cri", "tscsp", "gadi")
_DEFAULT, _SWEEP = ParamPolicy(), ParamPolicy("sweep")
_AT_OMEGA_0 = ParamPolicy("fixed", points=((None, 0.0),))
_AT_OMEGA_001 = ParamPolicy("fixed", points=((None, 0.01),))


def _grid_specs(family, sizes, **params):
    # the unit Laplacian stencil: the reading of ex241/ex242 that matches the
    # reference iteration counts (see README)
    return tuple(ProblemSpec(family, m=m, stencil="unit", **params) for m in sizes)


_FIG3 = (((ProblemSpec("ex31", n=32, t=0.01),), ("hss", "gadi"), _AT_OMEGA_0, True),)
_FIG4 = (((ProblemSpec("ex31", n=32, t=0.1),), ("hss", "gadi"), _AT_OMEGA_0, True),)
# preset: its batches in run order, each (problems, methods, policy, series);
# specs and policies are frozen, so presets and their batches share them
_PRESETS = {
    "table1": ((_grid_specs("ex241", _T1_SIZES), _COMPARISON, _DEFAULT, False),
               (_grid_specs("ex241", _T1_SIZES), ("gadi",), _SWEEP, False),
               (_grid_specs("ex241", _T1_SIZES, tau_mode="500h"), ("gadi",), _SWEEP, False)),
    "table2": ((_grid_specs("ex242", _T1_SIZES), _COMPARISON, _DEFAULT, False),
               (_grid_specs("ex242", _T1_SIZES), ("gadi",), _SWEEP, False)),
    "table3": ((tuple(ProblemSpec("ex31", n=16, t=t) for t in (0.01, 0.1)), ("gadi",),
                ParamPolicy("fixed", tuple((None, w) for w in (0.01, 0.1, 0.0, 0.5, 1.0, 1.5))),
                False),),
    "table4": ((tuple(ProblemSpec("ex31", n=n, t=t) for n in _T1_SIZES for t in (0.01, 0.1)),
                ("hss", "gadi"), _AT_OMEGA_0, False),),
    "table5": ((tuple(ProblemSpec("ex421", n=n) for n in (8, 16, 24, 32)), ("newton-gadi",),
                _AT_OMEGA_001, False),),
    "fig1": ((_grid_specs("ex241", (32,)), _FIG_METHODS, _DEFAULT, True),),
    "fig2": ((_grid_specs("ex242", (32,)), _FIG_METHODS, _DEFAULT, True),),
    "fig3": _FIG3, "fig4": _FIG4, "fig5": _FIG3, "fig6": _FIG4,
    "fig7": ((tuple(ProblemSpec("ex421", n=n) for n in (8, 16, 24)), ("newton-gadi",),
              _AT_OMEGA_001, True),),
}
PRESET_NAMES = tuple(_PRESETS)


def build_preset(name, tol=1e-5, inner="exact"):
    """The RunConfig batches, run in order, that reproduce reference table or
    figure ``name``; they are pinned data, so only tol and inner vary."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return [RunConfig(problems, methods, policy, tol=tol, inner=inner, series=series)
            for problems, methods, policy, series in _PRESETS[name]]


# -- command line -------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage and input errors exit 2 with one line on stderr."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _parse_grid(text):
    """'start:stop:step' (stop included), a comma list, or 'auto' (None)."""
    if text == "auto":
        return None
    try:
        if ":" not in text:
            return tuple(float(t) for t in text.split(","))
        start, stop, step = (float(t) for t in text.split(":"))
        if step > 0 and stop >= start:
            return tuple(np.arange(start, stop + step / 2.0, step))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"bad grid {text!r}: expected 'start:stop:step' with step > 0 "
        "and stop >= start, a comma-separated list, or 'auto'")


def _parse_alpha(text):
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'auto', got {text!r}") from None


def _add_common_flags(p):
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--inner", default="exact", choices=("exact", "iterative", "auto"))
    p.add_argument("--config", default=None,
                   help="INI file whose section for this command supplies flags (keys "
                        "are long-flag names); flags given here override it")


def _add_problem_flags(p):
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--m", type=int, help="grid size for ex241/ex242 (n = m^2)")
    p.add_argument("--n", type=int, help="matrix size for ex31/ex421")
    p.add_argument("--tau", default=ProblemSpec.tau_mode, choices=TAU_MODES,
                   help="ex241 time step")
    p.add_argument("--sigma1", type=float, default=ProblemSpec.sigma1)
    p.add_argument("--sigma2", type=float, default=ProblemSpec.sigma2)
    p.add_argument("--t", type=float, default=ProblemSpec.t, help="ex31 control parameter")
    p.add_argument("--stencil", default=ProblemSpec.stencil, choices=STENCILS,
                   help="Laplacian scaling for ex241/ex242")


def _spec_from_args(args):
    return ProblemSpec(args.family, m=args.m, n=args.n, tau_mode=args.tau,
                       sigma1=args.sigma1, sigma2=args.sigma2, t=args.t,
                       stencil=args.stencil)


def _build_parser():
    parser = _Parser(prog="bench", description="splitting-iteration benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)
    methods = sorted({m for family in METHODS_BY_FAMILY.values() for m in family.methods})

    run_p = sub.add_parser("run", help="run a pinned reproduction preset")
    run_p.set_defaults(func=_cmd_run)
    run_p.add_argument("--preset", required=True, choices=PRESET_NAMES)
    run_p.add_argument("--series-dir", default=None,
                       help="directory for per-run iteration,RES series files")
    run_p.add_argument("--out", default="results.csv")
    _add_common_flags(run_p)

    solve_p = sub.add_parser("solve", help="solve one instance with one method")
    solve_p.set_defaults(func=_cmd_solve)
    _add_problem_flags(solve_p)
    solve_p.add_argument("--method", required=True, choices=methods)
    solve_p.add_argument("--alpha", type=_parse_alpha, default="auto",
                         help="shift parameter, or 'auto' for the method default")
    solve_p.add_argument("--omega", type=float, default=DEFAULT_OMEGA)
    solve_p.add_argument("--max-outer", type=int, default=500, dest="max_outer")
    solve_p.add_argument("--series", default=None, help="write iteration,RES series here")
    solve_p.add_argument("--out", default=None, help="write the result row as CSV here")
    _add_common_flags(solve_p)

    sweep_p = sub.add_parser("sweep", help="factorial (alpha, omega) sweep")
    sweep_p.set_defaults(func=_cmd_sweep)
    _add_problem_flags(sweep_p)
    sweep_p.add_argument("--method", default="gadi", choices=methods)
    sweep_p.add_argument("--alpha-grid", type=_parse_grid, default="auto", dest="alpha_grid",
                         help="'start:stop:step', comma list, or 'auto'")
    sweep_p.add_argument("--omega-grid", type=_parse_grid, default=(DEFAULT_OMEGA,),
                         dest="omega_grid", help="comma-separated relaxation values")
    sweep_p.add_argument("--out", default=None, help="write all sweep cells as CSV here")
    _add_common_flags(sweep_p)
    return parser


def _parse_args(parser, argv):
    """Parse argv. The --config file's section for the command comes first, as
    --key=value flags (`_` in a key read as `-`), so argv's own flags win."""
    pre = _Parser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path:
        ini = configparser.ConfigParser(interpolation=None)
        try:
            with open(path) as fh:
                ini.read_file(fh)
        except (OSError, configparser.Error) as err:
            parser.error(f"--config {path}: {str(err).splitlines()[0]}")
        if ini.has_section(argv[0]):
            # the = form keeps a value that begins with '-' attached to its flag
            flags = [f"--{key.replace('_', '-')}={value}" for key, value in ini.items(argv[0])]
            argv = argv[:1] + flags + argv[1:]
    return parser.parse_args(argv)


def _cmd_run(args):
    cfgs = build_preset(args.preset, tol=args.tol, inner=args.inner)
    open(args.out, "a").close()  # an unwritable --out fails before the preset runs
    series_dir = args.series_dir
    if series_dir is None and any(c.series for c in cfgs):
        series_dir = os.path.dirname(os.path.abspath(args.out))
    rows = []
    for cfg in cfgs:
        sink = None
        if cfg.series and series_dir is not None:
            prefix = os.path.join(series_dir, f"{args.preset}_")
            sink = lambda row, report, prefix=prefix: write_convergence_series(
                report, _series_filename(prefix, row))
        rows.extend(run_grid(cfg, on_report=sink))
    write_csv(rows, args.out)
    print(f"{len(rows)} rows -> {args.out}")
    return 0 if all(r.converged for r in rows) else 1


def _cmd_solve(args):
    # one cell of a grid: a solver failure is a non-converged row without a report
    cfg = RunConfig((_spec_from_args(args),), (args.method,),
                    ParamPolicy("fixed", points=((args.alpha, args.omega),)),
                    tol=args.tol, inner=args.inner, max_outer=args.max_outer)
    sink = None
    if args.series:
        sink = lambda row, report: write_convergence_series(report, args.series)
    (row,) = run_grid(cfg, on_report=sink)
    _write_rows([row], sys.stdout)
    if args.out:
        write_csv([row], args.out)
    return 0 if row.converged else 1


def _cmd_sweep(args):
    omega_grid = args.omega_grid if args.omega_grid is not None else (DEFAULT_OMEGA,)
    cells = sweep_params(_spec_from_args(args), args.method, args.alpha_grid, omega_grid,
                         tol=args.tol, inner=args.inner)
    best = best_cell(cells)
    print(f"best: alpha={best.alpha:.6g} omega={best.omega:.6g} "
          f"IT={best.it} RES={best.res:.4e} converged={best.converged}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("alpha", "omega", "IT", "RES", "converged"))
            for c in cells:
                writer.writerow([f"{c.alpha:.10g}", f"{c.omega:.10g}", c.it,
                                 f"{c.res:.4e}", "true" if c.converged else "false"])
    return 0 if best.converged else 1


def main(argv=None):
    """Exit 0 when every run converged, 1 when one did not or its solver failed, 2 on bad
    input or an output file that cannot be written."""
    parser = _build_parser()
    args = _parse_args(parser, sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (ValueError, OSError) as err:  # bad input, or an output file it cannot write
        parser.error(f"{args.command}: {err}")


if __name__ == "__main__":
    sys.exit(main())
