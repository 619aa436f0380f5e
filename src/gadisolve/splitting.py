"""Stationary splitting iterations for complex symmetric systems (W + iT)x = b.

Six methods share one two-half-step sweep: GADI, HSS, MHSS, PMHSS, CRI and
TSCSP. Each method is one row of a table giving its two half-step
coefficients and right-hand sides. Algebraically equal methods share a row:
HSS is the GADI row at omega = 0 (:attr:`SplitParams.relaxation`, which
is omega for GADI and 0 for every other method). PMHSS runs with the
preconditioner V = W, and MHSS is the PMHSS row with V = I.
:func:`step` runs one sweep and :func:`run_stationary` sweeps to a
tolerance. Each sweep solves two shifted subsystems; in "exact" inner mode
the coefficients are factorized once per shift and kept on the system, in
"iterative" mode they are solved by CG (Hermitian positive definite
coefficients) or COCG (complex symmetric coefficients) to 1e-2 times the
current residual. One sweep loop, :func:`_sweep`, drives every method and the
Lyapunov and Newton sweeps of :mod:`gadisolve.matrixeq`.
"""
import functools
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .linalg import DirectSolver, InnerSolverError, _dense, _eye_like, cg_hpd, cocg_sym
from .spectral import eig_extremes_spd, optimal_alpha

__all__ = [
    "METHODS", "DEFAULT_OMEGA", "ComplexSymSystem", "SplitParams", "SolveConfig",
    "SolveReport", "step", "run_stationary", "default_alpha",
]

# exact-mode factorization is the default up to this dimension
EXACT_INNER_LIMIT = 4096
DEFAULT_OMEGA = 0.01  # the GADI relaxation when none is given


def _is_exactly_symmetric(M):
    if sp.issparse(M):
        D = (M - M.T).tocoo()
        return D.nnz == 0 or np.abs(D.data).max() == 0.0
    M = np.asarray(M)
    return np.array_equal(M, M.T)


def _check_data(W, T, **hermitian):
    """Reject malformed problem data with a one-line ValueError: W, T and the
    named Hermitian matrices must be finite and n x n, W and T exactly symmetric."""
    n = W.shape[0]
    mats = {"W": W, "T": T, **hermitian}
    for name, M in mats.items():
        if M.shape != (n, n):
            raise ValueError(f"{name} must be {n}x{n}, got {M.shape}")
        if not np.isfinite(M.data if sp.issparse(M) else M).all():
            raise ValueError(f"{name} has non-finite entries")
    for name in ("W", "T"):
        if not _is_exactly_symmetric(mats[name]):
            raise ValueError(f"{name} is not symmetric")
    for name, M in hermitian.items():
        if np.linalg.norm(M - M.conj().T) > 1e-13 * np.linalg.norm(M):
            raise ValueError(f"{name} is not Hermitian")


@dataclass(frozen=True)
class ComplexSymSystem:
    """The triple (W, T, b) defining (W + iT) x = b.

    W and T are real symmetric (stored sparse or dense) and, like b, finite;
    W is assumed positive definite and T positive semi-definite, which is not
    enforced at construction because the Kronecker-lifted systems used for
    matrix equations have indefinite T.

    The system is frozen, so what it keeps cannot go stale: the bound shift of
    W (:attr:`bound_shift`, one eigensolve per system), and in exact inner
    mode the factorized half-step pair of the last (method-table row builder,
    alpha) it was solved at. That is one slot, replaced when the key changes,
    so one shift's factors are alive at a time and a sweep over omega at one
    shift factorizes once.
    """
    W: object
    T: object
    b: np.ndarray
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_data(self.W, self.T)
        object.__setattr__(self, "b", np.asarray(self.b, dtype=complex))
        if self.b.shape != (self.n,):
            raise ValueError(f"b has shape {self.b.shape}, expected ({self.n},)")
        if not np.isfinite(self.b).all():
            raise ValueError("b has non-finite entries")

    @property
    def n(self):
        return self.W.shape[0]

    @functools.cached_property
    def bound_shift(self):
        """sqrt(gamma_min * gamma_max) of W, the minimizer of the contraction bound."""
        return optimal_alpha(eig_extremes_spd(self.W))

    def matvec(self, x):
        """A x = W x + i T x."""
        return self.W @ x + 1j * (self.T @ x)

    def dense_matrix(self):
        return _dense(self.W) + 1j * _dense(self.T)

    def _factorized(self, key, M1, M2):
        """DirectSolvers of the half-step coefficients M1, M2 built for ``key``.

        Factorizes only when ``key`` differs from the slot's; the old pair is
        dropped first, so two pairs are never alive together.
        """
        if key not in self._factors:
            self._factors.clear()
            self._factors[key] = (DirectSolver(M1), DirectSolver(M2))
        return self._factors[key]


@dataclass
class SplitParams:
    """Iteration parameters: method tag, shift alpha and relaxation omega.

    Only GADI relaxes: :attr:`relaxation` is the omega a sweep runs with,
    and the omega a benchmark row records.
    """
    method: str
    alpha: float
    omega: float = DEFAULT_OMEGA

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not np.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if not 0 <= self.omega < 2:
            raise ValueError(f"omega must lie in [0, 2), got {self.omega}")

    @property
    def relaxation(self):
        """omega for GADI, 0 for every other method: HSS is GADI at omega = 0."""
        return self.omega if self.method == "gadi" else 0.0


@dataclass
class SolveConfig:
    """Driver configuration: outer tolerance, sweep budget and inner-solve mode.

    inner: "exact" (direct factorization), "iterative" (CG/COCG), or "auto"
    (exact up to n = 4096). In iterative mode both half-step solves run to
    the relative tolerance 1e-2 * (current outer residual), floored at 1e-14.
    """
    tol: float = 1e-6
    max_outer: int = 1000
    inner: str = "auto"

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not np.isfinite(self.tol):
            raise ValueError(f"tol must be finite, got {self.tol}")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")
        if self.inner not in ("auto", "exact", "iterative"):
            raise ValueError(f"inner must be 'auto', 'exact' or 'iterative', got {self.inner!r}")

    def resolved_inner(self, n):
        if self.inner == "auto":
            return "exact" if n <= EXACT_INNER_LIMIT else "iterative"
        return self.inner


@dataclass
class SolveReport:
    """Outcome of one stationary solve.

    residual_history holds (iteration, RES) pairs including iteration 0, so
    its length is iterations + 1. inner_iteration_total counts Krylov steps
    and is 0 in exact inner mode.
    """
    converged: bool
    iterations: int
    final_res: float
    residual_history: list
    wall_time: float
    inner_iteration_total: int = 0


# -- the methods as data ------------------------------------------------------
#
# Each row gives a method's default shift, as a function of the system, and its
# half-step data: a map from (W, T, b, I, a, w) to (M1, kind1, M2, kind2,
# rhs1, rhs2). A sweep solves M1 x_half = rhs1(x), then
# M2 x_next = rhs2(x, x_half); a kind is "hpd" (CG in iterative mode) or
# "csym" (COCG). The rows:
#
#   gadi   (aI+W) x_half = (aI-iT) x + b,
#          (aI+iT) x_next = (iT-(1-w)aI) x + (2-w)a x_half
#   hss    the gadi row at w = 0, whose second right-hand side then equals
#          (aI-W) x_half + b, HSS's own form, up to rounding
#   mhss   (aI+W) x_half = (aI-iT) x + b,  (aI+T) x_next = (aI+iW) x_half - i b
#   pmhss  (aV+W) x_half = (aV-iT) x + b,  (aV+T) x_next = (aV+iW) x_half - i b,
#          with V = W
#   cri    (aT+W) x_half = (a-i) T x + b,  (aW+T) x_next = (a+i) W x_half - i b
#   tscsp  (aW+T) x_half = i(W-aT) x + (a-i) b,
#          (aT+W) x_next = i(aW-T) x_half + (1-ia) b

def _bound_shift(system):
    return system.bound_shift


def _gadi(W, T, b, I, a, om):
    return (a * I + W, "hpd", (a * I).astype(complex) + 1j * T, "csym",
            lambda x: a * x - 1j * (T @ x) + b,
            lambda x, xh: 1j * (T @ x) - (1 - om) * a * x + (2 - om) * a * xh)


def _pmhss(W, T, b, V, a):
    return (a * V + W, "hpd", a * V + T, "hpd",
            lambda x: a * (V @ x) - 1j * (T @ x) + b,
            lambda x, xh: a * (V @ xh) + 1j * (W @ xh) - 1j * b)


_METHODS = {
    "gadi": (_bound_shift, _gadi),
    # HSS is GADI at w = 0, which _make_step passes as SplitParams.relaxation
    "hss": (_bound_shift, _gadi),
    # MHSS is PMHSS with V = I
    "mhss": (_bound_shift, lambda W, T, b, I, a, om: _pmhss(W, T, b, I, a)),
    "pmhss": (lambda system: 1.0, lambda W, T, b, I, a, om: _pmhss(W, T, b, W, a)),
    "cri": (lambda system: 1.0, lambda W, T, b, I, a, om: (
        a * T + W, "hpd", a * W + T, "hpd",
        lambda x: (a - 1j) * (T @ x) + b,
        lambda x, xh: (a + 1j) * (W @ xh) - 1j * b)),
    "tscsp": (lambda system: 1.0, lambda W, T, b, I, a, om: (
        a * W + T, "hpd", a * T + W, "hpd",
        lambda x: 1j * (W @ x - a * (T @ x)) + (a - 1j) * b,
        lambda x, xh: 1j * (a * (W @ xh) - T @ xh) + (1 - 1j * a) * b)),
}
METHODS = tuple(_METHODS)


def _inner_tol(res):
    """Relative tolerance of both iterative half-step solves at outer residual ``res``."""
    return max(1e-2 * res, 1e-14)


def _make_step(system, params, config):
    """The sweep of ``params.method`` on ``system`` as ``step(x, res) -> (x_next, inner)``.

    In exact inner mode the two half-step solvers come from the system's
    factor slot, keyed by the method-table row builder and alpha: the
    coefficients depend on nothing else, so consecutive solves at one shift
    share one factorization whatever their omega (gadi and hss share the
    ``_gadi`` builder, hence the slot). In iterative mode CG/COCG solve the
    half-steps to :func:`_inner_tol` of the current residual ``res``, in at
    most 4 n + 100 Krylov steps each. An InnerSolverError is tagged with the
    half-step it came from. ``inner`` counts Krylov steps.
    """
    W, n = system.W, system.n
    mode = config.resolved_inner(n)
    builder = _METHODS[params.method][1]
    M1, k1, M2, k2, rhs1, rhs2 = builder(
        W, system.T, system.b, _eye_like(W, n), params.alpha, params.relaxation)

    def half_step(M, kind, which):
        krylov = cg_hpd if kind == "hpd" else cocg_sym

        def solve(rhs, tol):
            try:
                return krylov(M, rhs, rel_tol=tol, max_it=4 * n + 100)
            except InnerSolverError as err:
                err.half_step = which
                raise
        return solve

    if mode == "exact":
        direct1, direct2 = system._factorized((builder, params.alpha), M1, M2)
        half1 = lambda rhs, tol: (direct1.solve(rhs), 0)
        half2 = lambda rhs, tol: (direct2.solve(rhs), 0)
    else:
        half1 = half_step(M1, k1, "first half-step")
        half2 = half_step(M2, k2, "second half-step")

    def step(x, res):
        tol = _inner_tol(res)
        xh, n1 = half1(rhs1(x), tol)
        xn, n2 = half2(rhs2(x, xh), tol)
        return xn, n1 + n2
    return step


class _Diverged(Exception):
    """The guarded sweep loop's residual kept growing; args[0] is its report."""


def _sweep(make_step, residual, x, tol, max_sweeps, guard=False):
    """The sweep loop every solver in the package runs.

    Sweeps ``x, inner = step(x, res)`` while ``res = residual(x)`` exceeds
    ``tol``, for at most ``max_sweeps`` sweeps. ``make_step()`` builds the
    step, factorizing its coefficients, before the first sweep, so a start
    that already meets ``tol`` costs no factorization. Returns
    ``(x, SolveReport)``. An InnerSolverError from a step leaves with the
    partial report as ``err.report``. With ``guard``, a residual that grew six
    sweeps running to above twice its start raises _Diverged.
    """
    t0 = time.perf_counter()
    res = residual(x)
    history = [(0, res)]
    inner_total = it = grow = 0
    step = None

    def report():
        return SolveReport(res <= tol, it, res, history, time.perf_counter() - t0, inner_total)

    while res > tol and it < max_sweeps:
        step = step or make_step()
        try:
            x, inner = step(x, res)
        except InnerSolverError as err:
            err.report = report()
            raise
        inner_total += inner
        it += 1
        new = residual(x)
        grow = grow + 1 if new > res else 0
        res = new
        history.append((it, res))
        if guard and grow >= 6 and res > 2.0 * history[0][1]:
            raise _Diverged(report())
    return x, report()


def step(system, params, x, config=None):
    """One sweep of ``params.method`` from ``x``; returns ``x_next``.

    In iterative inner mode the half-step tolerances follow the residual of
    ``x``; in exact mode no residual is computed.
    """
    config = config or SolveConfig()
    x = np.asarray(x, dtype=complex)
    res = 0.0
    if config.resolved_inner(system.n) == "iterative":
        nb = np.linalg.norm(system.b)
        res = np.linalg.norm(system.b - system.matvec(x)) / nb if nb > 0 else 1.0
    return _make_step(system, params, config)(x, res)[0]


def run_stationary(system, params, config=None):
    """Iterate one splitting method until RES = ||b - A x||/||b|| <= tol.

    Starts from x = 0 and returns ``(x, SolveReport)``.
    Reaching max_outer is reported via ``converged=False``, not an exception;
    an inner-solver failure raises InnerSolverError with the partial report
    attached as ``err.report``.
    """
    config = config or SolveConfig()
    b = system.b
    nb = np.linalg.norm(b)
    if nb == 0.0:
        raise ValueError("b = 0: relative residual is undefined")
    return _sweep(lambda: _make_step(system, params, config),
                  lambda x: float(np.linalg.norm(b - system.matvec(x)) / nb),
                  np.zeros(system.n, complex), config.tol, config.max_outer)


def default_alpha(system, method):
    """Default shift of a method in METHODS, from its row of the method table.

    GADI, HSS and MHSS use the bound-minimizing sqrt(gamma_min*gamma_max) of
    W, which each system computes once (:attr:`ComplexSymSystem.bound_shift`);
    PMHSS, CRI and TSCSP use the scale-free choice alpha = 1. Any other
    name raises ValueError.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    return _METHODS[method][0](system)
