"""Lyapunov and Riccati solvers: GADI on the Kronecker lift, run in n x n form.

Under column-stacking vec, A* X + X A = Q with A = W + iT is the system
(W~ + iT~) x = q of size n^2, with W~ = W (x) I + I (x) W and
T~ = T (x) I - I (x) T. Its GADI sweeps, and HSS as GADI at omega = 0, run
on n x n iterates: the half-steps aX + WX + XW = R and aX + i(XT - TX) = R
are diagonal in the eigenbasis of W and of T. Newton steps
A_k* X + X A_k = Q_k (A_k = A - G X_k) of the Riccati equation
A* X + X A + Q - X G X = 0 run the same sweep; their second half-step
(aI - iT - S) X + X (iT - S^H) = R, S = X_k G, is solved by Bartels-Stewart
(one complex Schur form per Newton step, LAPACK trsyl per sweep). The sparse
lifts are built only as reference operators.
"""
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import ztrsyl

from .linalg import (InnerSolverError, NotPositiveDefiniteError, _dense, _eye_like, kron,
                     load_dense_block, load_matrix_coo, save_dense_block,
                     save_matrix_coo, vec)
from .splitting import (DEFAULT_OMEGA, ComplexSymSystem, SolveConfig, SplitParams,
                        _check_data, _Diverged, _sweep)

__all__ = [
    "LyapunovProblem", "RiccatiProblem", "LyapunovLift", "NewtonLift",
    "NewtonState", "RiccatiResult",
    "lift_lyapunov", "solve_lyapunov_gadi", "solve_lyapunov_hss",
    "lyapunov_residual", "newton_initial_guess", "build_newton_lift",
    "newton_gadi_riccati", "riccati_residual",
    "save_lyapunov_problem", "load_lyapunov_problem",
    "save_riccati_problem", "load_riccati_problem",
]

LIFT_LIMIT = 128  # the explicit lifts have n^2 rows
NEWTON_MAX_INNER = 500  # inner GADI sweeps per Newton step


class _EquationData:
    """A = W + iT of a matrix equation."""

    @property
    def n(self):
        return self.W.shape[0]

    def dense_A(self):
        return _dense(self.W) + 1j * _dense(self.T)


@dataclass
class LyapunovProblem(_EquationData):
    """Data (W, T, Q) of A* X + X A = Q with A = W + iT and Hermitian Q."""
    W: object
    T: object
    Q: np.ndarray

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=complex)
        _check_data(self.W, self.T, Q=self.Q)


@dataclass
class RiccatiProblem(_EquationData):
    """Data (W, T, G, Q) of A* X + X A + Q - X G X = 0 with Hermitian G, Q."""
    W: object
    T: object
    G: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        self.G = np.asarray(self.G, dtype=complex)
        self.Q = np.asarray(self.Q, dtype=complex)
        _check_data(self.W, self.T, G=self.G, Q=self.Q)


@dataclass
class LyapunovLift:
    """Vectorized Lyapunov operator (w_lift + i t_lift) x = q."""
    w_lift: object
    t_lift: object
    q: np.ndarray

    def as_system(self):
        return ComplexSymSystem(self.w_lift, self.t_lift, self.q)


@dataclass
class NewtonLift:
    """Vectorized Newton-step operator (w_lift + i t_lift - g_lift) x = q."""
    w_lift: object
    t_lift: object
    g_lift: object
    q: np.ndarray

    def matrix(self):
        return sp.csr_array((self.w_lift + 1j * self.t_lift).astype(complex) - self.g_lift)

    def matvec(self, x):
        return self.w_lift @ x + 1j * (self.t_lift @ x) - self.g_lift @ x


@dataclass
class NewtonState:
    """One outer Newton iterate and the data of its step equation."""
    k: int
    X: np.ndarray
    A_k: np.ndarray
    Q_k: np.ndarray
    inner_iterations: int = 0
    inner_residual: float = np.inf
    res: float = np.inf


@dataclass
class RiccatiResult:
    """Outcome of the Newton iteration with per-step inner records."""
    X: np.ndarray
    converged: bool
    outer_iterations: int
    inner_iteration_total: int
    res_history: list
    states: list = field(default_factory=list)
    wall_time: float = 0.0
    restarted: bool = False
    final_res: float = np.inf


def _lift_parts(problem):
    n = problem.n
    if n > LIFT_LIMIT:
        raise ValueError(f"lift limited to n <= {LIFT_LIMIT}, got n = {n}")
    W, T = problem.W, problem.T
    I = _eye_like(W, n)
    return kron(W, I) + kron(I, W), kron(T, I) - kron(I, T)


def lift_lyapunov(problem):
    """Vectorize A* X + X A = Q into (w_lift + i t_lift) x = q (n <= 128).

    As vec(AXB) = (B^T (x) A) vec X, w_lift = W (x) I + I (x) W and
    t_lift = T (x) I - I (x) T. A reference operator; the solvers never build it.
    """
    w_lift, t_lift = _lift_parts(problem)
    return LyapunovLift(w_lift, t_lift, vec(problem.Q))


def build_newton_lift(state, problem):
    """Vectorize the Newton step equation A_k* X + X A_k = Q_k (n <= 128).

    A_k = A - G X_k adds -g_lift = -(I (x) S + conj(S) (x) I), the lift of
    -(SX + XS^H) with S = X_k G, to the lift of :func:`lift_lyapunov`.
    """
    w_lift, t_lift = _lift_parts(problem)
    S = sp.csr_array(np.asarray(state.X) @ problem.G)
    I = sp.eye_array(problem.n, format="csr")
    g_lift = kron(I, S) + kron(S.conj(), I)
    return NewtonLift(w_lift, t_lift, g_lift, vec(state.Q_k))


# -- the lifted sweeps in n x n form ---------------------------------------------

def _eigh(M):
    """Ascending eigenvalues and orthonormal eigenvectors of a real symmetric matrix."""
    return sla.eigh(_dense(M))


def _lift_shift(lam):
    """sqrt(gamma_min*gamma_max) of W (x) I + I (x) W, whose eigenvalues are the
    sums lam_i + lam_j of those of W: 2 sqrt(lam_min lam_max)."""
    if lam[0] <= 0:
        raise NotPositiveDefiniteError(
            f"W is not positive definite: minimum eigenvalue {lam[0]:.6e}")
    return 2.0 * float(np.sqrt(lam[0] * lam[-1]))


def _diagonal_solver(eig, coeff):
    """Solver of a lifted half-step that the eigenbasis (lam, U) of a symmetric
    matrix diagonalizes: entry (i, j) of U^T X U has coefficient coeff(lam_i, lam_j)."""
    lam, U = eig
    d = coeff(lam[:, None], lam[None, :])
    return lambda R: U @ ((U.T @ R @ U) / d) @ U.T


def _first_half(eig_W, a):
    """Solver of (aI + W~) x = r: aX + WX + XW = R."""
    return _diagonal_solver(eig_W, lambda li, lj: a + li + lj)


def _second_half(T, a):
    """Solver of (aI + iT~) x = r: aX + i(XT - TX) = R."""
    return _diagonal_solver(_eigh(T), lambda li, lj: a + 1j * (lj - li))


def _second_part(T, S, X):
    """i(XT - TX), less SX + XS^H for a Newton step: the second half-step's part."""
    iTX = 1j * (X @ T - T @ X)
    return iTX if S is None else iTX - (S @ X + X @ S.conj().T)


def _lifted(problem, S, X):
    """The whole lifted operator in n x n form: WX + XW plus the second part."""
    return problem.W @ X + X @ problem.W + _second_part(problem.T, S, X)


def _gadi_step(problem, S, Q, half1, half2, params):
    """The GADI sweep of a lifted system, on n x n iterates (HSS at omega = 0)."""
    a, om = params.alpha, params.relaxation

    def step(X, res):
        SX = _second_part(problem.T, S, X)
        Xh = half1(a * X - SX + Q)
        return half2(SX - (1 - om) * a * X + (2 - om) * a * Xh), 0
    return step


def _solve_lyapunov(problem, method, params, config):
    config = config or SolveConfig(tol=1e-6, max_outer=500)
    nq = np.linalg.norm(problem.Q, "fro")
    if nq == 0.0:
        raise ValueError("Q = 0: relative residual is undefined")
    eig_W = _eigh(problem.W)
    if params is None:
        params = SplitParams(method, alpha=_lift_shift(eig_W[0]))
    if params.method not in ("gadi", "hss"):
        raise ValueError(f"Lyapunov sweeps are 'gadi' or 'hss', got {params.method!r}")
    n = problem.n
    Q, a = problem.Q, params.alpha
    return _sweep(lambda: _gadi_step(problem, None, Q, _first_half(eig_W, a),
                                     _second_half(problem.T, a), params),
                  lambda X: float(np.linalg.norm(Q - _lifted(problem, None, X)) / nq),
                  np.zeros((n, n), dtype=complex), config.tol, config.max_outer)


def solve_lyapunov_gadi(problem, params=None, config=None):
    """Solve A* X + X A = Q by GADI sweeps on the lifted system.

    Returns ``(X, SolveReport)``; the report's residuals are the lifted
    relative residuals, which coincide with ||Q - A*X - XA||_F / ||Q||_F.
    With ``params=None`` the shift is sqrt(gamma_min*gamma_max) of the lifted
    real part and omega is DEFAULT_OMEGA. The sweeps start at X = 0, and of
    ``config`` only ``tol`` and ``max_outer`` apply.
    """
    return _solve_lyapunov(problem, "gadi", params, config)


def solve_lyapunov_hss(problem, params=None, config=None):
    """Same lifted system as :func:`solve_lyapunov_gadi`, stepped with HSS sweeps."""
    return _solve_lyapunov(problem, "hss", params, config)


def lyapunov_residual(problem, X):
    """Relative residual ||Q - A* X - X A||_F / ||Q||_F."""
    nq = np.linalg.norm(problem.Q, "fro")
    if nq == 0.0:
        raise ValueError("Q = 0: relative residual is undefined")
    A = problem.dense_A()
    X = np.asarray(X)
    return float(np.linalg.norm(problem.Q - A.conj().T @ X - X @ A, "fro") / nq)


def newton_initial_guess(problem):
    """Starting matrix for the Newton iteration.

    Solves the shifted Lyapunov equation B* X + X B = 2Q with
    B = A + (1 + ||A||_inf) I, whose strongly dominant real part makes the
    lifted GADI iteration converge in a handful of sweeps; it is solved to
    RES 1e-12 in at most 500 sweeps.
    """
    beta = 1.0 + np.linalg.norm(problem.dense_A(), np.inf)
    n = problem.n
    I = _eye_like(problem.W, n)
    shifted = LyapunovProblem(problem.W + beta * I, problem.T, 2.0 * problem.Q)
    X0, report = solve_lyapunov_gadi(shifted, config=SolveConfig(tol=1e-12, max_outer=500))
    if not report.converged:
        raise InnerSolverError(
            f"initial shifted Lyapunov solve did not converge (RES={report.final_res:.3e})",
            x=vec(X0), iterations=report.iterations, residual=report.final_res)
    return X0


def riccati_residual(problem, X):
    """Relative residual ||A* X + X A + Q - X G X||_2 / ||Q||_2 (spectral norm)."""
    nq = np.linalg.norm(problem.Q, 2)
    if nq == 0.0:
        raise ValueError("Q = 0: relative residual is undefined")
    A = problem.dense_A()
    X = np.asarray(X)
    R = A.conj().T @ X + X @ A + problem.Q - X @ problem.G @ X
    return float(np.linalg.norm(R, 2) / nq)


# problem files: coordinate format for the sparse real parts, dense blocks
# for the Hermitian data; one file per matrix under a common stem

def _real_csr(M):
    return sp.csr_array(M.real)


def save_lyapunov_problem(stem, problem):
    save_matrix_coo(f"{stem}.W.coo", problem.W)
    save_matrix_coo(f"{stem}.T.coo", problem.T)
    save_dense_block(f"{stem}.Q.dense", problem.Q)


def load_lyapunov_problem(stem):
    return LyapunovProblem(_real_csr(load_matrix_coo(f"{stem}.W.coo")),
                           _real_csr(load_matrix_coo(f"{stem}.T.coo")),
                           load_dense_block(f"{stem}.Q.dense"))


def save_riccati_problem(stem, problem):
    save_matrix_coo(f"{stem}.W.coo", problem.W)
    save_matrix_coo(f"{stem}.T.coo", problem.T)
    save_dense_block(f"{stem}.G.dense", problem.G)
    save_dense_block(f"{stem}.Q.dense", problem.Q)


def load_riccati_problem(stem):
    return RiccatiProblem(_real_csr(load_matrix_coo(f"{stem}.W.coo")),
                          _real_csr(load_matrix_coo(f"{stem}.T.coo")),
                          load_dense_block(f"{stem}.G.dense"),
                          load_dense_block(f"{stem}.Q.dense"))


def _ensure_invertible_start(problem, X0, max_tries=60):
    """Inflate X0 by c*I while the first Newton step equation is numerically singular.

    The step operator of A_0 = A - G X_0 is singular exactly when two
    eigenvalues of A_0 satisfy lam_i + conj(lam_j) = 0; the shifted-Lyapunov
    start can land there (the scalar problem does, exactly). Identity
    inflation preserves Hermitian structure and leaves well-posed starts
    untouched.
    """
    A = problem.dense_A()
    n = problem.n
    c = 0.0
    for _ in range(max_tries):
        lam = sla.eigvals(A - problem.G @ (X0 + c * np.eye(n)))
        gap = np.abs(lam[:, None] + lam[None, :].conj()).min()
        if gap > 1e-8 * max(1.0, float(np.abs(lam).max())):
            break
        c = 1.0 if c == 0.0 else 2.0 * c
    else:
        raise RuntimeError("could not regularize the initial Newton step")
    if c:
        X0 = X0 + c * np.eye(n)
    return X0, c


def _sylvester_solver(T, S, a):
    """Solver of (aI + iT~ - g_lift) x = r: (aI - iT - S) X + X (iT - S^H) = R.

    The right coefficient is the left one's adjoint less aI, so with the Schur
    form Z U Z^H of the left one, Y = Z^H X Z solves U Y + Y (U - aI)^H = Z^H R Z.
    """
    I = np.eye(S.shape[0])
    U, Z = sla.schur(a * I - 1j * _dense(T) - S, output="complex")
    B = U - a * I

    def solve(R):
        Y, scale, info = ztrsyl(U, B, Z.conj().T @ R @ Z, tranb="C")
        if info != 0:
            raise RuntimeError(f"Newton step equation is numerically singular (trsyl info {info})")
        return Z @ (Y / scale) @ Z.conj().T
    return solve


def newton_gadi_riccati(problem, outer_tol=1e-6, max_outer=30, inner_forcing=(0.1, 0.1),
                        alpha=None, omega=DEFAULT_OMEGA, x0=None):
    """Newton outer iteration with GADI inner sweeps for the Riccati equation.

    Each Newton step solves A_k* X + X A_k = Q_k (A_k = A - G X_k,
    Q_k = -X_k G X_k - Q) by GADI sweeps on its Kronecker lift, run in n x n
    form and warm-started at X_k, until the absolute lifted residual drops
    below min(eta_max, eta_fac * Res_k) ||Q_k||_F, with the finite, positive
    ``inner_forcing=(eta_max, eta_fac)``, or for ``NEWTON_MAX_INNER`` sweeps.
    A forcing term of the order of the residual keeps Newton's local
    quadratic convergence (Dembo, Eisenstat & Steihaug 1982). The outer loop
    stops when Res(X) = ||A* X + X A + Q - X G X||_2 / ||Q||_2 < outer_tol,
    or after ``max_outer`` steps; both are checked as by SolveConfig. The
    default shift ``alpha`` is that of the lifted real part, as for
    :func:`solve_lyapunov_gadi`.

    Two safeguards keep the iteration well posed: a start whose first step
    operator is numerically singular is inflated by a multiple of the
    identity, and if the first step's inner sweeps diverge (the lifted
    operator can be expansive at a positive-semidefinite start) the iteration
    restarts once from X = 0, whose steps are provably contractive here. All
    executed sweeps count toward ``inner_iteration_total``.

    Returns a :class:`RiccatiResult`; reaching max_outer yields
    ``converged=False``. Bad arguments raise a one-line ValueError.
    """
    t0 = time.perf_counter()
    SolveConfig(tol=outer_tol, max_outer=max_outer)  # the checks of a sweep's tol and budget
    eta_max, eta_fac = inner_forcing
    if not all(np.isfinite(f) and f > 0 for f in (eta_max, eta_fac)):
        raise ValueError(f"inner_forcing entries must be finite and positive, got {inner_forcing}")
    n = problem.n
    X = newton_initial_guess(problem) if x0 is None else np.asarray(x0, dtype=complex).copy()
    X, _ = _ensure_invertible_start(problem, X)
    A = problem.dense_A()
    G = problem.G
    eig_W = _eigh(problem.W)
    params = SplitParams("gadi", _lift_shift(eig_W[0]) if alpha is None else float(alpha), omega)
    half1 = _first_half(eig_W, params.alpha)

    total_inner = 0
    restarted = False
    states = []
    history = []
    k = 0
    stagnant = 0
    prev_res = np.inf
    while True:
        res = riccati_residual(problem, X)
        history.append((k, res))
        if res < outer_tol or k >= max_outer or stagnant >= 3:
            return RiccatiResult(
                X=X, converged=res < outer_tol, outer_iterations=k,
                inner_iteration_total=total_inner, res_history=history,
                states=states, wall_time=time.perf_counter() - t0,
                restarted=restarted, final_res=res)
        Q_k = -X @ G @ X - problem.Q
        state = NewtonState(k=k, X=X, A_k=A - G @ X, Q_k=Q_k)
        S = X @ G
        eps_abs = min(eta_max, eta_fac * res) * np.linalg.norm(Q_k)
        # the inner sweeps stop on the absolute residual, once it is below
        # eps_abs, and a residual that keeps growing means the lifted term
        # g_lift pushed the contraction factor above one
        try:
            Xn, inner = _sweep(
                lambda: _gadi_step(problem, S, Q_k, half1,
                                   _sylvester_solver(problem.T, S, params.alpha), params),
                lambda Y: np.linalg.norm(_lifted(problem, S, Y) - Q_k), X,
                np.nextafter(eps_abs, -np.inf), NEWTON_MAX_INNER, guard=True)
        except _Diverged as div:
            total_inner += div.args[0].iterations
            if restarted or k > 0:
                err = InnerSolverError(
                    f"inner GADI sweeps diverge at outer step {k}", x=vec(X),
                    iterations=total_inner, residual=res)
                err.half_step = f"outer step {k}"
                raise err from None
            restarted = True
            X = np.zeros((n, n), dtype=complex)
            states.clear()
            history.clear()
            continue
        l = inner.iterations
        total_inner += l
        state.inner_iterations = l
        state.inner_residual = float(inner.final_res)
        X = 0.5 * (Xn + Xn.conj().T)  # inner tolerance allows a Hermitian drift
        k += 1
        state.res = res
        states.append(state)
        stagnant = stagnant + 1 if (l == 0 and res >= prev_res * (1 - 1e-12)) else 0
        prev_res = res
