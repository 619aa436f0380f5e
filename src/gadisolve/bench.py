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
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import NotPositiveDefiniteError
from .matrixeq import (_eigh, _lift_shift, newton_gadi_riccati,
                       solve_lyapunov_gadi, solve_lyapunov_hss)
from .problems import ProblemSpec
from .splitting import (DEFAULT_OMEGA, SolveConfig, SolveReport, SplitParams,
                        default_alpha, run_stationary)

__all__ = [
    "BenchmarkRow", "ParamPolicy", "RunConfig",
    "run_grid", "sweep_params", "best_cell",
    "write_csv", "parse_csv", "write_convergence_series",
    "build_preset", "PRESET_NAMES", "main",
]

CSV_HEADER = ("algorithm", "n", "problem", "alpha", "omega", "RES", "IT", "CPU", "converged")

LINEAR_METHODS = ("gadi", "hss", "mhss", "pmhss", "pmhss-vi", "cri", "tscsp")
METHODS_BY_FAMILY = {
    "ex241": LINEAR_METHODS,
    "ex242": LINEAR_METHODS,
    "ex31": ("gadi", "hss"),
    "ex421": ("newton-gadi",),
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


@dataclass
class ParamPolicy:
    """How (alpha, omega) are chosen per (problem, method) cell.

    kind "fixed" (the default): the given (alpha, omega) points, where None
    means the method's default shift or DEFAULT_OMEGA. "sweep": the
    geometric shift grid around the default shift, times SWEEP_OMEGAS for a
    method that relaxes, reporting the single best cell (fewest iterations,
    residual tiebreak, then smaller alpha). It finds the full grid's winner
    with less work: the shifts run nearest the default first, each with all
    its omegas on one factorization, and a cell stops once it has taken as
    many sweeps as the best converged cell so far (except on ex421, whose IT
    counts inner sweeps). A row records the omega its sweeps ran with, 0 for
    a method that does not relax.
    """
    kind: str = "fixed"
    points: tuple = ((None, None),)

    def __post_init__(self):
        if self.kind not in ("fixed", "sweep"):
            raise ValueError(f"policy kind must be fixed or sweep, got {self.kind!r}")


@dataclass
class RunConfig:
    """One batch of (problem x method x parameter point) benchmark cells."""
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
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if not math.isfinite(self.tol):
            raise ValueError(f"tol must be finite, got {self.tol}")
        for spec in self.problems:
            allowed = METHODS_BY_FAMILY[spec.family]
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


def _auto_alpha(spec, problem, method):
    if spec.family in ("ex241", "ex242"):
        return default_alpha(problem, METHOD_ALIASES.get(method, method))
    # ex31 and ex421: the shift of the lifted real part, the solvers' default
    return _lift_shift(_eigh(problem.W)[0])


def _swept_omegas(method, omega_grid=SWEEP_OMEGAS):
    """The omegas a sweep of ``method`` runs: only GADI relaxes, so any other
    method sweeps its shift alone, at omega 0."""
    return omega_grid if METHOD_ALIASES.get(method, method) == "gadi" else (0.0,)


def _auto_grid(alpha_star, points=21):
    return tuple(np.geomspace(alpha_star / 5.0, 5.0 * alpha_star, points))


def _solve_cell(spec, problem, params, cfg, max_outer):
    """Run one benchmark cell; returns its SolveReport."""
    if spec.family == "ex421":
        result = newton_gadi_riccati(problem, outer_tol=cfg.tol, alpha=params.alpha,
                                     omega=params.omega)
        return SolveReport(result.converged, result.outer_iterations,
                           result.final_res, result.res_history,
                           result.wall_time, result.inner_iteration_total)
    config = SolveConfig(tol=cfg.tol, max_outer=max_outer, inner=cfg.inner)
    solver = run_stationary
    if spec.family == "ex31":
        solver = solve_lyapunov_gadi if params.method == "gadi" else solve_lyapunov_hss
    return solver(problem, params, config)[1]


def _solve_points(spec, problem, method, points, cfg, max_outer):
    """Solve each (alpha, omega) point; returns [(row, report)].

    A row records the omega the sweeps ran with, SplitParams.relaxation. A
    solver failure becomes a non-converged row with report None.
    """
    out = []
    for alpha, omega in points:
        params = SplitParams(METHOD_ALIASES.get(method, method), float(alpha), float(omega))
        t0 = time.perf_counter()
        try:
            report = _solve_cell(spec, problem, params, cfg, max_outer)
            # the ex421 history is indexed by outer step, and its IT column
            # carries the cumulative inner sweep count
            it = report.inner_iteration_total if spec.family == "ex421" else report.iterations
            res, converged = report.final_res, report.converged
        except (RuntimeError, NotPositiveDefiniteError) as err:
            report, converged = None, False
            res = getattr(err, "residual", math.nan)
            res = res if np.isfinite(res) else math.nan
            it = int(getattr(err, "iterations", 0))
        out.append((BenchmarkRow(method, spec.dimension, spec.label(), params.alpha,
                                 params.relaxation, res, it, time.perf_counter() - t0,
                                 converged), report))
    return out


def _method_rows(cfg, spec, problem, method):
    """The [(row, report)] one method contributes to a batch under its policy."""
    auto = functools.cache(lambda: _auto_alpha(spec, problem, method))
    if cfg.policy.kind == "fixed":
        points = [(auto() if alpha is None else alpha, DEFAULT_OMEGA if omega is None else omega)
                  for alpha, omega in cfg.policy.points]
    else:
        # sweep: the single best cell of the grid. A winner that converged
        # within the sweep cap is what a full solve would give. The nominal
        # shift comes first, and each shift's omegas run together, so they
        # share its factorization. No cell may take more sweeps than the best
        # converged cell so far: one that needs more cannot win, and the cap
        # is inclusive, so a tie still competes on RES and then on alpha.
        # ex421's IT column counts inner sweeps, which max_outer does not
        # bound, so its cells run uncapped.
        alpha_star = auto()
        omegas = _swept_omegas(method)
        shifts = sorted(_auto_grid(alpha_star), key=lambda a: (abs(math.log(a / alpha_star)), a))
        cap = min(cfg.max_outer, SWEEP_MAX_OUTER)
        solved = []
        for a in shifts:
            for w in omegas:
                solved += _solve_points(spec, problem, method, [(a, w)], cfg, cap)
                row = solved[-1][0]
                if row.converged and spec.family != "ex421":
                    cap = min(cap, row.it)
        rows = [row for row, _ in solved]
        win = best_cell(rows)
        if win.converged:
            return [solved[rows.index(win)]]
        # nothing converged: solve the best cell that ran to the cap again
        # with the full max_outer, or, if every cell failed, the nominal shift
        points = [(alpha_star, omegas[0])]
        ran = [row for row, report in solved if report is not None]
        if ran:
            win = best_cell(ran)
            points = [(win.alpha, win.omega)]
    return _solve_points(spec, problem, method, points, cfg, cfg.max_outer)


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
    whatever ``omega_grid`` holds. Every cell runs to ``max_outer``, shift by
    shift, so each shift's omegas share one factorization. Returns the
    BenchmarkRow of each cell in grid order (omega-major); pick the winner
    with :func:`best_cell`.
    """
    if (alpha_grid is not None and len(alpha_grid) == 0) or len(omega_grid) == 0:
        raise ValueError("sweep grids must be nonempty")
    # RunConfig rejects a method that is not valid for the family before the
    # problem is built
    cfg = RunConfig((spec,), (method,), tol=tol, inner=inner, max_outer=max_outer)
    problem = spec.build()
    if alpha_grid is None:
        alpha_grid = _auto_grid(_auto_alpha(spec, problem, method))
    omegas = _swept_omegas(method, omega_grid)
    points = [(a, w) for a in alpha_grid for w in omegas]
    rows = [row for row, _ in _solve_points(spec, problem, method, points, cfg, max_outer)]
    return [row for j in range(len(omegas)) for row in rows[j::len(omegas)]]


def best_cell(cells):
    """Winning sweep cell: fewest iterations, then smaller residual, then smaller alpha."""
    def key(c):
        res = c.res if np.isfinite(c.res) else math.inf
        return (0 if c.converged else 1, c.it, res, c.alpha)
    return min(cells, key=key)


# -- output -------------------------------------------------------------------

def _format_param(x):
    return "auto" if x is None else f"{x:.10g}"


def _write_rows(rows, fh):
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([
            r.algorithm, r.n, r.problem,
            _format_param(r.alpha), _format_param(r.omega),
            f"{r.res:.4e}", r.it, f"{r.cpu:.6f}",
            "true" if r.converged else "false",
        ])


def write_csv(rows, path):
    """Write benchmark rows; RES uses scientific notation with 5 significant digits."""
    with open(path, "w", newline="") as fh:
        _write_rows(rows, fh)


def parse_csv(path):
    """Read a benchmark CSV back into rows (inverse of :func:`write_csv`)."""
    def param(tok):
        return None if tok == "auto" else float(tok)
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header}")
        for rec in reader:
            rows.append(BenchmarkRow(
                rec[0], int(rec[1]), rec[2], param(rec[3]), param(rec[4]),
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

PRESET_NAMES = ("table1", "table2", "table3", "table4", "table5",
                "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7")

_T1_SIZES = (8, 16, 24, 32, 48)


def build_preset(name, tol=1e-5, inner="exact"):
    """Pinned problem/method/parameter grids reproducing the reference tables.

    The ex241/ex242 presets use the unit Laplacian stencil, which is the
    reading of those families that matches the reference iteration counts
    (see README). Returns a list of RunConfig batches executed in order.
    """
    def spec241(m, tau="h"):
        return ProblemSpec("ex241", m=m, tau_mode=tau, stencil="unit")

    def spec242(m):
        return ProblemSpec("ex242", m=m, stencil="unit")

    comparison = ("mhss", "pmhss", "pmhss-vi", "cri", "tscsp")
    if name == "table1":
        return [
            RunConfig(tuple(spec241(m) for m in _T1_SIZES), comparison,
                      ParamPolicy(), tol=tol, inner=inner),
            RunConfig(tuple(spec241(m) for m in _T1_SIZES), ("gadi",),
                      ParamPolicy("sweep"), tol=tol, inner=inner),
            RunConfig(tuple(spec241(m, "500h") for m in _T1_SIZES), ("gadi",),
                      ParamPolicy("sweep"), tol=tol, inner=inner),
        ]
    if name == "table2":
        return [
            RunConfig(tuple(spec242(m) for m in _T1_SIZES), comparison,
                      ParamPolicy(), tol=tol, inner=inner),
            RunConfig(tuple(spec242(m) for m in _T1_SIZES), ("gadi",),
                      ParamPolicy("sweep"), tol=tol, inner=inner),
        ]
    if name == "table3":
        points = tuple((None, w) for w in (0.01, 0.1, 0.0, 0.5, 1.0, 1.5))
        return [RunConfig(tuple(ProblemSpec("ex31", n=16, t=t) for t in (0.01, 0.1)),
                          ("gadi",), ParamPolicy("fixed", points=points),
                          tol=tol, inner=inner)]
    if name == "table4":
        specs = tuple(ProblemSpec("ex31", n=n, t=t)
                      for n in (8, 16, 24, 32, 48) for t in (0.01, 0.1))
        return [RunConfig(specs, ("hss", "gadi"),
                          ParamPolicy("fixed", points=((None, 0.0),)),
                          tol=tol, inner=inner)]
    if name == "table5":
        specs = tuple(ProblemSpec("ex421", n=n) for n in (8, 16, 24, 32))
        return [RunConfig(specs, ("newton-gadi",),
                          ParamPolicy("fixed", points=((None, 0.01),)),
                          tol=tol, inner=inner)]
    if name == "fig1":
        return [RunConfig((spec241(32),), ("mhss", "pmhss", "cri", "tscsp", "gadi"),
                          ParamPolicy(), tol=tol, inner=inner, series=True)]
    if name == "fig2":
        return [RunConfig((spec242(32),), ("mhss", "pmhss", "cri", "tscsp", "gadi"),
                          ParamPolicy(), tol=tol, inner=inner, series=True)]
    if name in ("fig3", "fig5"):
        return [RunConfig((ProblemSpec("ex31", n=32, t=0.01),), ("hss", "gadi"),
                          ParamPolicy("fixed", points=((None, 0.0),)),
                          tol=tol, inner=inner, series=True)]
    if name in ("fig4", "fig6"):
        return [RunConfig((ProblemSpec("ex31", n=32, t=0.1),), ("hss", "gadi"),
                          ParamPolicy("fixed", points=((None, 0.0),)),
                          tol=tol, inner=inner, series=True)]
    if name == "fig7":
        return [RunConfig(tuple(ProblemSpec("ex421", n=n) for n in (8, 16, 24)),
                          ("newton-gadi",), ParamPolicy("fixed", points=((None, 0.01),)),
                          tol=tol, inner=inner, series=True)]
    raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


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
    p.add_argument("--family", required=True, choices=("ex241", "ex242", "ex31", "ex421"))
    p.add_argument("--m", type=int, help="grid size for ex241/ex242 (n = m^2)")
    p.add_argument("--n", type=int, help="matrix size for ex31/ex421")
    p.add_argument("--tau", default="h", choices=("h", "500h"), help="ex241 time step")
    p.add_argument("--sigma1", type=float, default=100.0)
    p.add_argument("--sigma2", type=float, default=100.0)
    p.add_argument("--t", type=float, default=0.01, help="ex31 control parameter")
    p.add_argument("--stencil", default="h2", choices=("h2", "unit"),
                   help="Laplacian scaling for ex241/ex242")


def _spec_from_args(args):
    return ProblemSpec(args.family, m=args.m, n=args.n, tau_mode=args.tau,
                       sigma1=args.sigma1, sigma2=args.sigma2, t=args.t,
                       stencil=args.stencil)


def _build_parser():
    parser = _Parser(prog="bench", description="splitting-iteration benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)
    methods = sorted({m for ms in METHODS_BY_FAMILY.values() for m in ms})

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
    """Exit 0 when every run converged, 1 when one did not or its solver failed, 2 on bad input."""
    parser = _build_parser()
    args = _parse_args(parser, sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except ValueError as err:  # a bad problem, method, parameter or config value
        parser.error(f"{args.command}: {err}")


if __name__ == "__main__":
    sys.exit(main())
