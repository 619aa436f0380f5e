"""Span tracing of gadisolve from outside the package.

`install(tracer)` replaces the public functions of each module (bench,
splitting, linalg, spectral, matrixeq, problems) with wrappers, under every
name a caller looks them up by: the defining module, each module that
imported the name, and the package namespace. A wrapper records one span
(name, start, end, parent) and, for a few calls, a count read from the
arguments or the result. Spans stay in memory; `layer_metrics` reduces them
once the run is over.
"""
import functools
import hashlib
import importlib
import os
import time

import numpy as np
import scipy.sparse as sp

MODULES = ("gadisolve", "gadisolve.bench", "gadisolve.splitting", "gadisolve.linalg",
           "gadisolve.spectral", "gadisolve.matrixeq", "gadisolve.problems")


class Tracer:
    """Spans and counters of one run; records only while `active`."""

    def __init__(self):
        self.active = False
        self.spans = []       # [name, start, end, parent index or -1]
        self.counts = {}
        self.digests = {}     # counter name -> set of content digests
        self._stack = []

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def reset(self):
        """Start empty; what was recorded stays with whoever holds it."""
        self.spans, self.counts, self.digests = [], {}, {}

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def digest(self, key, matrix):
        self.digests.setdefault(key, set()).add(_content_digest(matrix))


def _content_digest(M):
    """Digest of a matrix's content, independent of how it was stored."""
    h = hashlib.blake2b(digest_size=16)
    if sp.issparse(M):
        C = sp.csr_matrix(M, copy=True)
        C.sum_duplicates()
        C.sort_indices()
        C.eliminate_zeros()
        parts = (C.indptr, C.indices, C.data)
    else:
        parts = (np.ascontiguousarray(M),)
    h.update(repr((M.shape, str(parts[-1].dtype))).encode())
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


def _wrap(tracer, name, fn, after=None):
    """Span around `fn`; `after(tracer, args, result, error)` runs outside it."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        result = error = None
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            error = exc
            raise
        finally:
            tracer.close(idx)
            if after is not None:
                after(tracer, args, result, error)
    return traced


# -- what each wrapper counts ----------------------------------------------------

def _after_run_stationary(tracer, args, result, error):
    if result is not None:
        report = result[1]
    else:
        report = getattr(error, "report", None)
    sweeps = report.iterations if report is not None else 0
    converged = report is not None and report.converged and error is None
    tracer.add("splitting.sweeps", sweeps)
    tracer.add("splitting.converged", int(converged))
    if not converged:
        tracer.add("splitting.wasted_sweeps", sweeps)


def _after_factor(tracer, args, result, error):
    tracer.digest("linalg.factor", args[1])


def _after_krylov(tracer, args, result, error):
    if result is not None:
        tracer.add("linalg.krylov_iters", result[1])
    else:
        tracer.add("linalg.krylov_iters", getattr(error, "iterations", 0))


def _after_io(tracer, args, result, error):
    path = args[0]
    if os.path.exists(path):
        tracer.add("linalg.io_bytes", os.path.getsize(path))


def _after_shift(tracer, args, result, error):
    tracer.digest("spectral.shift", args[0])


def _after_lift(tracer, args, result, error):
    if result is not None:
        parts = (result.w_lift, result.t_lift, getattr(result, "g_lift", None))
        tracer.add("matrixeq.lift_nnz", sum(p.nnz for p in parts if p is not None))


def _after_newton(tracer, args, result, error):
    if result is not None:
        tracer.add("matrixeq.newton_steps", result.outer_iterations)
        tracer.add("matrixeq.inner_sweeps", result.inner_iteration_total)
    else:
        tracer.add("matrixeq.inner_sweeps", getattr(error, "iterations", 0))


# (module, attribute, span name, counter hook); span names carry the layer
# before the first dot.
FUNCTIONS = (
    ("bench", "run_grid", "bench.run_grid", None),
    ("splitting", "run_stationary", "splitting.run_stationary", _after_run_stationary),
    ("splitting", "default_alpha", "splitting.default_alpha", None),
    ("linalg", "cg_hpd", "linalg.krylov", _after_krylov),
    ("linalg", "cocg_sym", "linalg.krylov", _after_krylov),
    ("linalg", "save_matrix_coo", "linalg.io", _after_io),
    ("linalg", "load_matrix_coo", "linalg.io", _after_io),
    ("linalg", "save_vector", "linalg.io", _after_io),
    ("linalg", "load_vector", "linalg.io", _after_io),
    ("linalg", "save_dense_block", "linalg.io", _after_io),
    ("linalg", "load_dense_block", "linalg.io", _after_io),
    ("spectral", "eig_extremes_spd", "spectral.shift", _after_shift),
    ("matrixeq", "lift_lyapunov", "matrixeq.lift", _after_lift),
    ("matrixeq", "build_newton_lift", "matrixeq.lift", _after_lift),
    ("matrixeq", "solve_lyapunov_gadi", "matrixeq.solve_lyapunov", None),
    ("matrixeq", "solve_lyapunov_hss", "matrixeq.solve_lyapunov", None),
    ("matrixeq", "newton_gadi_riccati", "matrixeq.newton", _after_newton),
    ("matrixeq", "newton_initial_guess", "matrixeq.initial_guess", None),
    ("matrixeq", "lyapunov_residual", "matrixeq.residual", None),
    ("matrixeq", "riccati_residual", "matrixeq.residual", None),
    ("problems", "gen_ex241", "problems.build", None),
    ("problems", "gen_ex242", "problems.build", None),
    ("problems", "gen_ex31", "problems.build", None),
    ("problems", "gen_ex421", "problems.build", None),
)

METHODS = (
    ("splitting", "ComplexSymSystem", "matvec", "splitting.matvec", None),
    ("linalg", "DirectSolver", "__init__", "linalg.factor", _after_factor),
    ("linalg", "DirectSolver", "solve", "linalg.trisolve", None),
)


def install(tracer):
    """Wrap every traced function under all the names it is bound to."""
    modules = [importlib.import_module(m) for m in MODULES]
    for home, attr, name, after in FUNCTIONS:
        original = getattr(importlib.import_module(f"gadisolve.{home}"), attr)
        wrapper = _wrap(tracer, name, original, after)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    for home, cls_name, attr, name, after in METHODS:
        cls = getattr(importlib.import_module(f"gadisolve.{home}"), cls_name)
        setattr(cls, attr, _wrap(tracer, name, getattr(cls, attr), after))


def write_spans(spans, path):
    """One JSON line per span: name, start and end (s from the first span), parent."""
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        for name, start, end, parent in spans:
            fh.write(f'["{name}", {start - t0:.7f}, {end - t0:.7f}, {parent}]\n')


# -- reduction -------------------------------------------------------------------

def span_totals(spans):
    """Per span name: (calls, total seconds, self seconds).

    Spans nest strictly (one thread, stack discipline), so the children of a
    span are disjoint and its self time is its duration minus theirs.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (name, start, end, _), covered in zip(spans, child):
        calls, total, self_s = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + (end - start), self_s + (end - start - covered))
    return out


def _ratio(num, den):
    # a ratio whose base is zero reads 0: the layer did no work
    return num / den if den else 0.0


def layer_metrics(tracer):
    """The per-layer metrics of BENCHMARK.json from the recorded spans."""
    tot = span_totals(tracer.spans)
    c = tracer.counts

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def self_of(layer):
        return sum(v[2] for k, v in tot.items() if k.split(".")[0] == layer)

    def distinct(key, n):
        return _ratio(len(tracer.digests.get(key, ())), n)

    solves = calls("splitting.run_stationary")
    return {
        "problems.build_s": (secs("problems.build"), "s"),
        "bench.instances": (calls("bench.run_grid"), "count"),
        "bench.self_s": (self_of("bench"), "s"),
        "splitting.solves": (solves, "count"),
        "splitting.sweeps": (c.get("splitting.sweeps", 0), "count"),
        "splitting.wasted_sweeps": (c.get("splitting.wasted_sweeps", 0), "count"),
        "splitting.converged_ratio": (_ratio(c.get("splitting.converged", 0), solves), "ratio"),
        "splitting.matvecs": (calls("splitting.matvec"), "count"),
        "splitting.matvec_s": (secs("splitting.matvec"), "s"),
        "splitting.self_s": (self_of("splitting"), "s"),
        "linalg.factor_calls": (calls("linalg.factor"), "count"),
        "linalg.factor_s": (secs("linalg.factor"), "s"),
        "linalg.factor_distinct_ratio": (distinct("linalg.factor", calls("linalg.factor")), "ratio"),
        "linalg.trisolve_calls": (calls("linalg.trisolve"), "count"),
        "linalg.trisolve_s": (secs("linalg.trisolve"), "s"),
        "linalg.krylov_calls": (calls("linalg.krylov"), "count"),
        "linalg.krylov_iters": (c.get("linalg.krylov_iters", 0), "count"),
        "linalg.krylov_s": (secs("linalg.krylov"), "s"),
        "linalg.io_bytes": (c.get("linalg.io_bytes", 0), "bytes"),
        "linalg.io_s": (secs("linalg.io"), "s"),
        "spectral.shift_calls": (calls("spectral.shift"), "count"),
        "spectral.shift_distinct_ratio": (distinct("spectral.shift", calls("spectral.shift")), "ratio"),
        "spectral.shift_s": (secs("spectral.shift"), "s"),
        "matrixeq.lift_calls": (calls("matrixeq.lift"), "count"),
        "matrixeq.lift_nnz": (c.get("matrixeq.lift_nnz", 0), "count"),
        "matrixeq.lift_s": (secs("matrixeq.lift"), "s"),
        "matrixeq.newton_steps": (c.get("matrixeq.newton_steps", 0), "count"),
        "matrixeq.inner_sweeps": (c.get("matrixeq.inner_sweeps", 0), "count"),
        "matrixeq.initial_guess_s": (secs("matrixeq.initial_guess"), "s"),
        "matrixeq.self_s": (self_of("matrixeq"), "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
