"""One workload in one process: set up, run timed rounds, check every answer.

Started by run.py, which fixes the BLAS thread count in the environment and
points PYTHONPATH at the checkout's src/. Prints one JSON object as its last
line of standard output.

A round is the workload's fixed batch of solves. Rounds repeat until the next
one would end after --deadline; every answer is checked between rounds,
outside the timed region. With --trace 1 the run is a fixed amount of work:
traced set-up, a warm-up round, then untraced and traced rounds in turn, so
counts repeat exactly for a given seed.
"""
import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TOL = 1e-5


class Op:
    """One timed operation and what its check needs."""

    def __init__(self, kind, key, seconds, payload=None, error=None):
        self.kind, self.key, self.seconds = kind, key, seconds
        self.payload, self.error = payload, error
        self.wrong = False  # failed a check, as opposed to raising or not converging


def _timed(kind, key, fn):
    t0 = time.perf_counter()
    try:
        payload = fn()
    except Exception as exc:  # a solve that raises is a failed operation
        return Op(kind, key, time.perf_counter() - t0,
                  error=f"{type(exc).__name__}: {exc}")
    return Op(kind, key, time.perf_counter() - t0, payload)


# -- workloads -------------------------------------------------------------------

class Sweep:
    """GADI shift/relaxation sweep of the table1/table2 presets via run_grid."""

    SIZES = (8, 12, 16)

    def setup(self, seed, workdir):
        import numpy as np
        from gadisolve import ProblemSpec
        from gadisolve.bench import ParamPolicy, RunConfig
        # ex242's sigma1, sigma2 within 1% of the preset's 100
        s1, s2 = 100.0 * (1.0 + 0.01 * np.random.default_rng(seed).uniform(-1.0, 1.0, 2))
        self.specs = ([ProblemSpec("ex241", m=m, tau_mode=tau, stencil="unit")
                       for tau in ("h", "500h") for m in self.SIZES]
                      + [ProblemSpec("ex242", m=m, sigma1=float(s1), sigma2=float(s2),
                                     stencil="unit") for m in self.SIZES])
        self.problems = [spec.build() for spec in self.specs]
        self.cfgs = [RunConfig((spec,), ("gadi",), ParamPolicy("sweep"), tol=TOL,
                               inner="exact") for spec in self.specs]
        self._own = {}
        self._verified = set()

    def run_round(self):
        from gadisolve import bench
        return [_timed("solve", i, lambda cfg=cfg: bench.run_grid(cfg))
                for i, cfg in enumerate(self.cfgs)]

    def _own_system(self, i):
        import checks
        if i not in self._own:
            s = self.specs[i]
            if s.family == "ex241":
                own = (checks.ex241_matrix(s.m, s.tau_mode), checks.ex241_rhs(s.m, s.tau_mode))
            else:
                own = (checks.ex242_matrix(s.m, s.sigma1, s.sigma2),
                       checks.ex242_rhs(s.m, s.sigma1, s.sigma2))
            self._own[i] = own
        return self._own[i]

    def check(self, op):
        import checks
        from gadisolve import SolveConfig, SplitParams, run_stationary
        (row,) = op.payload
        if not (row.converged and row.res <= TOL):
            return "did not converge"
        key = (op.key, row.alpha, row.omega, row.it, row.res)
        if key in self._verified:  # same row as an earlier round: already checked
            return None
        x, report = run_stationary(self.problems[op.key],
                                   SplitParams("gadi", row.alpha, row.omega),
                                   SolveConfig(tol=TOL, max_outer=500, inner="exact"))
        A, b = self._own_system(op.key)
        checks.check_linear(A, b, x, TOL)
        if report.iterations != row.it:
            raise checks.CheckError(f"row IT {row.it} != {report.iterations} on a re-solve")
        self._verified.add(key)
        return None


class Large:
    """ex241 at n = 9216: file read, shift, Krylov inner solves, file write."""

    M = 96
    TAUS = ("h", "500h")
    METHODS = ("gadi", "mhss", "pmhss", "cri", "tscsp")

    def setup(self, seed, workdir):
        import numpy as np
        from gadisolve import ComplexSymSystem, gen_ex241, save_system
        rng = np.random.default_rng(seed)
        n = self.M * self.M
        self.workdir = workdir
        self.systems, self.stems = {}, {}
        for tau in self.TAUS:
            base = gen_ex241(self.M, tau, stencil="unit")
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            self.systems[tau] = ComplexSymSystem(base.W, base.T, b)
            self.stems[tau] = os.path.join(workdir, f"ex241-{tau}")
            save_system(self.stems[tau], self.systems[tau])
        self._own = {}

    def _solution_path(self, tau, method):
        return os.path.join(self.workdir, f"x-{tau}-{method}.vec")

    def run_round(self):
        from gadisolve import SolveConfig, SplitParams, linalg, problems, splitting
        ops = []
        for tau in self.TAUS:
            load = _timed("load", tau, lambda tau=tau: problems.load_system(self.stems[tau]))
            ops.append(load)
            if load.error:
                continue
            system = load.payload

            def solve(method):
                alpha = splitting.default_alpha(system, method)
                return splitting.run_stationary(system, SplitParams(method, alpha),
                                                SolveConfig(tol=TOL, inner="auto"))

            def write(x, path):
                linalg.save_vector(path, x)
                return x
            for method in self.METHODS:
                op = _timed("solve", (tau, method), lambda method=method: solve(method))
                ops.append(op)
                if op.error is None:
                    path = self._solution_path(tau, method)
                    ops.append(_timed("write", (tau, method),
                                      lambda x=op.payload[0], path=path: write(x, path)))
        return ops

    def check(self, op):
        import checks
        if op.kind == "load":
            expected = self.systems[op.key]
            checks.check_same_sparse(op.payload.W, expected.W, f"{op.key} W")
            checks.check_same_sparse(op.payload.T, expected.T, f"{op.key} T")
            checks.check_same_vector(op.payload.b, expected.b, f"{op.key} b")
            return None
        tau, method = op.key
        if op.kind == "write":
            checks.check_same_vector(checks.read_vector_file(self._solution_path(tau, method)),
                                     op.payload, f"solution file {tau}/{method}")
            return None
        x, report = op.payload
        if not report.converged:
            return "did not converge"
        if tau not in self._own:
            self._own[tau] = checks.ex241_matrix(self.M, tau)
        checks.check_linear(self._own[tau], self.systems[tau].b, x, TOL)
        return None


class MatrixEq:
    """Lifted Lyapunov solves (HSS and GADI) and Newton-GADI Riccati solves."""

    # no smaller n: with them the median solve sat where the sorted solve times
    # climb steeply, and solve_p50_s jumped between ranks from run to run
    LYAP_N = (32, 48, 64)
    LYAP_T = (0.01, 0.1)
    RICCATI_N = (8, 16, 24)

    def setup(self, seed, workdir):
        import numpy as np
        from gadisolve import LyapunovProblem, gen_ex31, gen_ex421
        rng = np.random.default_rng(seed)
        self.lyap = {}
        for n in self.LYAP_N:
            for t in self.LYAP_T:
                base = gen_ex31(n, t)
                # rank-one Q = c c^T with c within 1% of the preset's all-ones C
                c = 1.0 + 0.01 * rng.uniform(-1.0, 1.0, n)
                Q = np.outer(c, c).astype(complex)
                self.lyap[n, t] = (LyapunovProblem(base.W, base.T, Q), Q)
        self.riccati = {n: gen_ex421(n) for n in self.RICCATI_N}

    def run_round(self):
        from gadisolve import SolveConfig, matrixeq
        config = SolveConfig(tol=TOL, max_outer=500, inner="exact")
        ops = []
        for (n, t), (problem, _) in self.lyap.items():
            for name in ("hss", "gadi"):
                solver = getattr(matrixeq, f"solve_lyapunov_{name}")
                ops.append(_timed("lyapunov", (n, t, name),
                                  lambda s=solver, p=problem: s(p, config=config)))
        for n, problem in self.riccati.items():
            ops.append(_timed("riccati", n, lambda p=problem: matrixeq.newton_gadi_riccati(
                p, outer_tol=TOL, inner_forcing=(0.1, 0.1))))
        return ops

    def check(self, op):
        import checks
        if op.kind == "lyapunov":
            n, t, _ = op.key
            X, report = op.payload
            if not report.converged:
                return "did not converge"
            checks.check_lyapunov(checks.ex31_matrix(n, t), self.lyap[n, t][1], X, TOL)
            return None
        result = op.payload
        if not result.converged:
            return "did not converge"
        A, G, Q = checks.ex421_data(op.key)
        checks.check_riccati(A, G, Q, result.X, TOL)
        return None


WORKLOADS = {"sweep": Sweep, "large": Large, "matrixeq": MatrixEq}


# -- environment -----------------------------------------------------------------

def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# -- the run ---------------------------------------------------------------------

def _check(workload, ops, problems):
    """Check each operation's answer with tracing off; record failures."""
    import checks
    for op in ops:
        if op.error is None:
            try:
                op.error = workload.check(op)
            except checks.CheckError as exc:
                op.error, op.wrong = f"wrong answer: {exc}", True
        if op.error is not None:
            problems.append(f"{op.kind} {op.key}: {op.error}")
        op.payload = None  # keeps peak memory independent of the number of rounds


def _per_op_medians(ops):
    """Each operation's median time over the rounds.

    The batch time is the sum of these, and solve_p50_s their median over the
    solves: on a shared machine a slow spell of a few seconds then moves one
    sample of a few operations, not the whole of a round.
    """
    times = {}
    for op in ops:
        times.setdefault((op.kind, op.key), []).append(op.seconds)
    return {k: statistics.median(v) for k, v in times.items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--deadline", type=float, required=True,
                   help="time.monotonic() after which no round may end")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        sys.exit("worker: OPENBLAS_NUM_THREADS must be 1; start the benchmark with run.py")
    import gadisolve
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(gadisolve.__file__).startswith(src):
        sys.exit(f"worker: gadisolve imported from {gadisolve.__file__}, not from {src}")

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.active = True
    workdir = os.path.join(HERE, "out", f"work-{args.workload}")  # instance and solution files
    os.makedirs(workdir, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, workdir)
    setup_s = time.monotonic() - args.spawned_at
    if tracer is not None:
        tracer.active = False
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    ops, problems, walls = [], [], []
    timed = {False: [], True: []}  # operations timed with tracing off / on

    def run_round(on):
        """One round, then its checks; on=None is an untimed warm-up round."""
        if tracer is not None:
            tracer.active = bool(on)
        start = time.perf_counter()
        round_ops = workload.run_round()
        walls.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.active = False
        _check(workload, round_ops, problems)
        ops.extend(round_ops)
        if on is not None:
            timed[on].extend(round_ops)

    if tracer is None:
        while True:
            t0 = time.monotonic()
            run_round(False)
            if 2 * time.monotonic() - t0 > args.deadline:  # the next round would end late
                break
    else:
        # After a warm-up round, untraced and traced rounds come in the order
        # U T T U U T, so that a drift in speed over the run does not favour
        # either side of the overhead. The layer metrics are those of set-up
        # plus the first traced round.
        spans = None
        for on in (None, False, True, True, False, False, True):
            run_round(on)
            if on and spans is None:
                out["layers"] = tracing.layer_metrics(tracer)
                spans = tracer.spans
            if on:
                tracer.reset()
        out["traced_wall_s"] = sum(_per_op_medians(timed[True]).values())
        tracing.write_spans(spans, os.path.join(
            HERE, "out", f"{args.workload}-seed{args.seed}-spans.jsonl"))

    per_op = _per_op_medians(timed[False])
    out.update({
        "rounds": len(walls),
        "walls": walls,
        "wall_s": sum(per_op.values()),
        "solve_p50_s": statistics.median(
            v for (kind, _), v in per_op.items() if kind not in ("load", "write")),
        "attempted": len(ops),
        "failed": sum(op.error is not None for op in ops),
        "wrong": sum(op.wrong for op in ops),
        "problems": problems[:20],
        "op_times": [[op.kind, str(op.key), op.seconds] for op in ops],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
