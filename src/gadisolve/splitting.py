"""Stationary splitting iterations for complex symmetric systems (W + iT)x = b.

Six methods share one two-half-step sweep: GADI, HSS, MHSS, PMHSS, CRI and
TSCSP. Each method is one row of a table giving its two half-step
coefficients and right-hand sides. Algebraically equal methods share a row:
HSS is the GADI row at omega = 0 (:attr:`SplitParams.relaxation`, which
is omega for GADI and 0 for every other method). PMHSS runs with the
preconditioner V = W, and MHSS is the PMHSS row with V = I.
:func:`step` runs one sweep and :func:`run_stationary` sweeps to a
tolerance. Each sweep solves two shifted subsystems; in "exact" inner mode
the coefficients are factorized once per solve, in "iterative" mode they are
solved by CG (Hermitian positive definite coefficients) or COCG (complex
symmetric coefficients) to 1e-2 times the current residual, each warm-started
from its previous solution.

A system whose W and T the orthonormal 2-D DST-I S diagonalizes (the ex241
and ex242 families; :attr:`ComplexSymSystem.joint_eigenbasis`) solves in
closed form (:class:`_ModalSweep`) in "exact" and "auto" inner mode at
every n; only "iterative" mode runs CG/COCG on it. There every method's
sweep is one factor g_j per mode, so from x = 0 the residual after k sweeps
is g^k * S b. The sweep loop runs on its squared modulus, with no
factorization and no matvec, and x is formed once at the end. The Lyapunov
solves of :mod:`gadisolve.matrixeq` run the same modal sweep on their lift
when the 1-D DST-I diagonalizes their n x n W and T.

One sweep loop, :func:`_sweep`, drives every method, the modal solves and
the Lyapunov sweeps and the Newton inner and outer steps of
:mod:`gadisolve.matrixeq`.
"""
import functools
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import DirectSolver, InnerSolverError, _dense, _eye_like, cg_hpd, cocg_sym
from .spectral import SpectrumSummary, _require_positive, eig_extremes_spd, optimal_alpha

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
    named Hermitian matrices must be finite and n x n with n >= 1, W and T
    exactly symmetric."""
    n = W.shape[0]
    if n == 0:
        raise ValueError("W is empty: n must be at least 1")
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


def _sine_transform(S1, v):
    """S v for the 2-D DST-I S = S1 (x) S1: two dense m x m products."""
    m = S1.shape[0]
    return (S1 @ v.reshape(m, m) @ S1).ravel()


def _joint_eigenbasis(W, T, dims=2):
    """``(lam, mu, S1)`` when the sine basis S diagonalizes both W and T, else None.

    S1[j, k] = sqrt(2/(m+1)) sin(pi (j+1)(k+1) / (m+1)) is the orthonormal
    DST-I of size m, and S is S1 itself for ``dims=1`` (n = m) or the 2-D
    DST-I S1 (x) S1 for ``dims=2`` (n = m^2). If S W S is diagonal, its
    diagonal is lam = S W S 1, and likewise mu for T. Each is kept only if
    one fixed-seed probe v passes
    ``||S W S v - lam * v|| <= 1e-12 max|lam| ||v||``; a W or T that S does
    not diagonalize fails it by orders of magnitude.
    """
    n = W.shape[0]
    m = n if dims == 1 else math.isqrt(n)
    if m ** dims != n:
        return None
    k = np.arange(1, m + 1)
    S1 = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(k, k) / (m + 1))
    S = S1.__matmul__ if dims == 1 else functools.partial(_sine_transform, S1)
    ones = S(np.ones(n))
    v = np.random.default_rng(0).standard_normal(n)
    Sv = S(v)
    diagonals = []
    for M in (W, T):
        d = S(M @ ones)
        if np.linalg.norm(S(M @ Sv) - d * v) > 1e-12 * np.abs(d).max() * np.linalg.norm(v):
            return None
        diagonals.append(d)
    return (*diagonals, S1)


class _Diagonal:
    """A diagonal operator held as its diagonal ``d``.

    ``@`` multiplies elementwise and :meth:`solve` divides, so it stands in
    for W, T and I in the method table and for its own factorization.
    """
    __array_ufunc__ = None  # a numpy scalar times a _Diagonal defers to __rmul__

    def __init__(self, d):
        self.d = d

    def __matmul__(self, x):
        return self.d * x

    def __mul__(self, c):
        return _Diagonal(c * self.d)

    __rmul__ = __mul__

    def __add__(self, other):
        return _Diagonal(self.d + other.d)

    def astype(self, dtype):
        return _Diagonal(self.d.astype(dtype))

    def solve(self, rhs):
        return rhs / self.d


@dataclass(frozen=True)
class ComplexSymSystem:
    """The triple (W, T, b) defining (W + iT) x = b.

    W and T are real symmetric (stored sparse or dense) and, like b, finite;
    W is assumed positive definite and T positive semi-definite, which is not
    enforced at construction because the Kronecker-lifted systems used for
    matrix equations have indefinite T.

    The system is frozen, so what it caches cannot go stale: its joint sine
    eigenbasis (:attr:`joint_eigenbasis`, a few matvecs and m x m products)
    with S b in it, and the bound shift of W (:attr:`bound_shift`, read off
    that eigenbasis or one eigensolve). It keeps no factors; a solve's
    factorizations live as long as the solve.
    """
    W: object
    T: object
    b: np.ndarray

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
    def joint_eigenbasis(self):
        """``(lam, mu, S1)`` with S W S = diag(lam) and S T S = diag(mu) for the
        2-D DST-I S = S1 (x) S1, detected on a probe; None when S does not
        diagonalize both (see :func:`_joint_eigenbasis`)."""
        return _joint_eigenbasis(self.W, self.T)

    @functools.cached_property
    def _modal_b(self):
        """S b in the joint eigenbasis, where every exact solve of the system starts."""
        return _sine_transform(self.joint_eigenbasis[2], self.b)

    @functools.cached_property
    def bound_shift(self):
        """sqrt(gamma_min * gamma_max) of W, the minimizer of the contraction bound.

        The extremes of lam when the system has a joint eigenbasis, at any n;
        otherwise those of an eigensolve. A W that is not positive definite
        raises NotPositiveDefiniteError.
        """
        basis = self.joint_eigenbasis
        if basis is None:
            return optimal_alpha(eig_extremes_spd(self.W))
        lam = basis[0]
        return optimal_alpha(_require_positive(
            SpectrumSummary(float(lam.min()), float(lam.max()), "joint-eigenbasis")))

    def matvec(self, x):
        """A x = W x + i T x."""
        return self.W @ x + 1j * (self.T @ x)

    def dense_matrix(self):
        return _dense(self.W) + 1j * _dense(self.T)


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
    (exact up to n = 4096). A system with a joint eigenbasis takes the
    closed-form modal solve, which factorizes nothing, under "exact" and
    "auto" at every n; only "iterative" keeps CG/COCG for it. In iterative
    mode both half-step solves run to the relative tolerance
    1e-2 * (current outer residual), floored at 1e-14.
    From a solve's second sweep on, each half-step is warm-started from its
    previous solution; its Krylov tolerance is rescaled so that the absolute
    target, tol * ||rhs||, is that of a solve started from zero.
    """
    tol: float = 1e-6
    max_outer: int = 1000
    inner: str = "auto"

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
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


def _make_step(W, T, b, params, mode):
    """The sweep of ``params.method`` on (W, T, b) as ``step(x, res) -> (x_next, inner)``.

    In exact inner ``mode`` the two half-step coefficients are factorized
    here, once for every sweep of the step; a :class:`_Diagonal` coefficient
    is its own factorization. In iterative mode CG/COCG solve the
    half-steps to :func:`_inner_tol` of the current residual ``res``, in at
    most 4 n + 100 Krylov steps each. From the second sweep on, each half-step
    is warm-started from its own previous solution x_prev: it solves the
    correction M d = rhs - M x_prev to the relative tolerance that keeps the
    cold solve's absolute target ``tol * ||rhs||``, and returns x_prev + d.
    A real coefficient is cast to complex once here, so no product upcasts it
    again. An InnerSolverError carries the half-step iterate x_prev + d and is
    tagged with the half-step it came from. ``inner`` counts Krylov steps.
    """
    n = b.shape[0]
    I = _Diagonal(np.ones(n)) if isinstance(W, _Diagonal) else _eye_like(W, n)
    M1, k1, M2, k2, rhs1, rhs2 = _METHODS[params.method][1](
        W, T, b, I, params.alpha, params.relaxation)

    def half_step(M, kind, which):
        krylov = cg_hpd if kind == "hpd" else cocg_sym
        M = M.astype(complex, copy=False)
        x_prev = None  # this half-step's last solution; the first solve is cold

        def solve(rhs, tol):
            nonlocal x_prev
            r = rhs
            if x_prev is not None:
                r = rhs - M @ x_prev
                nr = np.linalg.norm(r)
                if nr == 0.0:  # a new object: x_prev may be the sweep's input
                    return x_prev.copy(), 0
                tol *= np.linalg.norm(rhs) / nr  # keeps the cold target tol * ||rhs||
            try:
                d, steps = krylov(M, r, rel_tol=tol, max_it=4 * n + 100)
            except InnerSolverError as err:
                if x_prev is not None:
                    err.x = x_prev + err.x
                err.half_step = which
                raise
            x_prev = d if x_prev is None else x_prev + d
            return x_prev, steps
        return solve

    if mode == "exact":
        direct1, direct2 = (M if isinstance(M, _Diagonal) else DirectSolver(M) for M in (M1, M2))
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
    that already meets ``tol`` costs no factorization. A step that returns
    ``x`` itself marks a fixed point: the loop records that sweep at the same
    residual and stops, so every other step must return a new object. Returns
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
            x_next, inner = step(x, res)
        except InnerSolverError as err:
            err.report = report()
            raise
        inner_total += inner
        it += 1
        if x_next is x:  # a fixed point
            history.append((it, res))
            break
        x = x_next
        new = residual(x)
        grow = grow + 1 if new > res else 0
        res = new
        history.append((it, res))
        if guard and grow >= 6 and res > 2.0 * history[0][1]:
            raise _Diverged(report())
    return x, report()


class _ModalSweep:
    """The sweeps of the system diag(lam) + i diag(mu) that the 2-D DST-I
    S = S1 (x) S1 makes of (W, T), from x = 0, with Sb = S b.

    There every method's sweep is one factor g_j per mode: g is the method's
    own row, swept once on (diag(lam), diag(mu)) with b = 0 from the ones
    vector. From x = 0 the residual after k sweeps is g^k * S b exactly, so
    a sweep maps the squared modulus w = |g^k * S b|^2 to |g|^2 w alone, and
    :attr:`sweeps` counts the sweeps taken. :meth:`x` forms their iterate.
    """

    def __init__(self, lam, mu, S1, Sb, params):
        self.lam, self.mu, self.S1, self.Sb, self.params = lam, mu, S1, Sb, params
        self.g = 0.0  # no sweep taken: g^0 = 1 and x = 0
        self.sweeps = 0
        self._x = (None, None)

    def make_step(self):
        n = self.lam.shape[0]
        self.g = _make_step(_Diagonal(self.lam), _Diagonal(self.mu), np.zeros(n), self.params,
                            "exact")(np.ones(n, complex), 0.0)[0]
        g2 = np.abs(self.g) ** 2

        def step(w, res):
            self.sweeps += 1
            return g2 * w, 0
        return step

    def x(self):
        """x = S((1 - g^k) * S b / (lam + i mu)) after the k sweeps taken,
        formed once for each k."""
        k = self.sweeps
        if self._x[0] != k:
            self._x = (k, _sine_transform(
                self.S1, (1 - self.g ** k) * self.Sb / (self.lam + 1j * self.mu)))
        return self._x[1]

    def solve(self, residual, tol, max_sweeps):
        """:func:`_sweep` on w from x = 0, with ``residual(w)`` the RES of the
        current state; returns ``(x, SolveReport)``."""
        report = _sweep(self.make_step, residual, np.abs(self.Sb) ** 2, tol, max_sweeps)[1]
        return self.x(), report


def step(system, params, x, config=None):
    """One sweep of ``params.method`` from ``x``; returns ``x_next``.

    In iterative inner mode the half-step tolerances follow the residual of
    ``x``; in exact mode no residual is computed.
    """
    config = config or SolveConfig()
    x = np.asarray(x, dtype=complex)
    res = 0.0
    mode = config.resolved_inner(system.n)
    if mode == "iterative":
        nb = np.linalg.norm(system.b)
        res = np.linalg.norm(system.b - system.matvec(x)) / nb if nb > 0 else 1.0
    return _make_step(system.W, system.T, system.b, params, mode)(x, res)[0]


def run_stationary(system, params, config=None):
    """Iterate one splitting method until RES = ||b - A x||/||b|| <= tol.

    Starts from x = 0 and returns ``(x, SolveReport)``.
    Reaching max_outer is reported via ``converged=False``, not an exception;
    an inner-solver failure raises InnerSolverError with the partial report
    attached as ``err.report``. Unless the inner mode is "iterative", a
    system with a joint eigenbasis sweeps its modal residual alone at every
    n (see :class:`_ModalSweep`): the closed form factorizes nothing, so the
    "auto" size limit does not apply to it.
    """
    config = config or SolveConfig()
    nb = float(np.linalg.norm(system.b))
    if nb == 0.0:
        raise ValueError("b = 0: relative residual is undefined")
    if config.inner != "iterative" and system.joint_eigenbasis is not None:
        modal = _ModalSweep(*system.joint_eigenbasis, system._modal_b, params)
        return modal.solve(lambda w: math.sqrt(w.sum()) / nb, config.tol, config.max_outer)
    mode = config.resolved_inner(system.n)
    return _sweep(lambda: _make_step(system.W, system.T, system.b, params, mode),
                  lambda x: float(np.linalg.norm(system.b - system.matvec(x)) / nb),
                  np.zeros(system.n, complex), config.tol, config.max_outer)


def default_alpha(system, method):
    """Default shift of a method in METHODS, from its row of the method table.

    GADI, HSS and MHSS use the bound-minimizing sqrt(gamma_min*gamma_max) of
    W, which each system computes once (:attr:`ComplexSymSystem.bound_shift`,
    with no eigensolve when the system has a joint eigenbasis);
    PMHSS, CRI and TSCSP use the scale-free choice alpha = 1. Any other
    name raises ValueError.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    return _METHODS[method][0](system)
