"""Lyapunov and Riccati solvers built on the Kronecker-lifted GADI iteration.

The Lyapunov equation A* X + X A = Q with A = W + iT is vectorized into an
n^2-dimensional complex symmetric system (W~ + i T~) x = q and handed to the
stationary driver. The Riccati equation A* X + X A + Q - X G X = 0 is solved
by an outer Newton linearization whose step equations are Lyapunov equations
with an extra lifted term, each solved by an inner GADI sweep loop.

Column-stacking vectorization fixes the Kronecker orientation; both
orientations are constructed and the one satisfying the residual identity
||A~ vec(X) - q|| = ||A* X + X A - Q||_F on random probes is kept.
"""
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .linalg import (DirectSolver, InnerSolverError, kron, load_dense_block,
                     load_matrix_coo, save_dense_block, save_matrix_coo,
                     unvec, vec)
from .splitting import (ComplexSymSystem, SolveConfig, SplitParams, _Diverged, _sweep,
                        run_stationary)

__all__ = [
    "LyapunovProblem", "RiccatiProblem", "LyapunovLift", "NewtonLift",
    "NewtonState", "RiccatiResult",
    "lift_lyapunov", "solve_lyapunov_gadi", "solve_lyapunov_hss",
    "lyapunov_residual", "newton_initial_guess", "build_newton_lift",
    "newton_gadi_riccati", "riccati_residual",
    "save_lyapunov_problem", "load_lyapunov_problem",
    "save_riccati_problem", "load_riccati_problem",
]

LIFT_LIMIT = 128
NEWTON_LIFT_LIMIT = 64
_PROBE_SEED = 0x1A57


def _dense(M):
    return M.toarray() if sp.issparse(M) else np.asarray(M)


def _hermitian_gap(M):
    M = np.asarray(M)
    nrm = np.linalg.norm(M, "fro")
    if nrm == 0:
        return 0.0
    return float(np.linalg.norm(M - M.conj().T, "fro") / nrm)


@dataclass
class LyapunovProblem:
    """Data (W, T, Q) of A* X + X A = Q with A = W + iT and Hermitian Q."""
    W: object
    T: object
    Q: np.ndarray

    def __post_init__(self):
        n = self.W.shape[0]
        self.Q = np.asarray(self.Q, dtype=complex)
        if self.W.shape != (n, n) or self.T.shape != (n, n) or self.Q.shape != (n, n):
            raise ValueError("W, T and Q must be square matrices of equal size")
        if _hermitian_gap(self.Q) > 1e-13:
            raise ValueError("Q is not Hermitian")

    @property
    def n(self):
        return self.W.shape[0]

    def dense_A(self):
        return _dense(self.W) + 1j * _dense(self.T)


@dataclass
class RiccatiProblem:
    """Data (W, T, G, Q) of A* X + X A + Q - X G X = 0 with Hermitian G, Q."""
    W: object
    T: object
    G: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        n = self.W.shape[0]
        self.G = np.asarray(self.G, dtype=complex)
        self.Q = np.asarray(self.Q, dtype=complex)
        for name, M in (("G", self.G), ("Q", self.Q)):
            if M.shape != (n, n):
                raise ValueError(f"{name} must be {n}x{n}")
            if _hermitian_gap(M) > 1e-13:
                raise ValueError(f"{name} is not Hermitian")

    @property
    def n(self):
        return self.W.shape[0]

    def dense_A(self):
        return _dense(self.W) + 1j * _dense(self.T)


@dataclass
class LyapunovLift:
    """Vectorized Lyapunov operator: (w_lift + i t_lift) x = q.

    `orientation` records which Kronecker ordering passed the residual
    identity under column-stacking vec.
    """
    w_lift: object
    t_lift: object
    q: np.ndarray
    orientation: str

    def as_system(self):
        return ComplexSymSystem(self.w_lift, self.t_lift, self.q)


@dataclass
class NewtonLift:
    """Vectorized Newton-step operator (w_lift + i t_lift - g_lift) x = q."""
    w_lift: object
    t_lift: object
    g_lift: object
    q: np.ndarray
    orientation: str

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


def _lift_candidates(W, T):
    n = W.shape[0]
    I = sp.eye_array(n, format="csr") if sp.issparse(W) else np.eye(n)
    w_lift = kron(W, I) + kron(I, W)
    t_col = kron(T, I) - kron(I, T)
    return w_lift, [("column", t_col), ("row", -t_col)]


def _probe_matrices(n, count=3):
    rng = np.random.default_rng(_PROBE_SEED + n)
    return [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(count)]


def lift_lyapunov(problem):
    """Vectorize A* X + X A = Q into (w_lift + i t_lift) x = q.

    The real part of the lift is W (x) I + I (x) W; the sign of the imaginary
    part depends on the vectorization convention, so both orientations are
    built and validated against the residual identity on random probes.
    """
    n = problem.n
    if n > LIFT_LIMIT:
        raise ValueError(f"lift limited to n <= {LIFT_LIMIT}, got n = {n}")
    A = problem.dense_A()
    q = vec(problem.Q)
    w_lift, candidates = _lift_candidates(problem.W, problem.T)
    for orientation, t_lift in candidates:
        ok = True
        for X in _probe_matrices(n):
            lifted = w_lift @ vec(X) + 1j * (t_lift @ vec(X)) - q
            matrix = A.conj().T @ X + X @ A - problem.Q
            scale = max(np.linalg.norm(matrix, "fro"), 1e-300)
            if abs(np.linalg.norm(lifted) - np.linalg.norm(matrix, "fro")) > 1e-10 * scale:
                ok = False
                break
        if ok:
            return LyapunovLift(w_lift, t_lift, q, orientation)
    raise RuntimeError("no Kronecker orientation satisfies the lift residual identity")


def _lift_params(lift, method, params):
    if params is not None:
        return params
    from .spectral import eig_extremes_spd, optimal_alpha
    alpha = optimal_alpha(eig_extremes_spd(lift.w_lift))
    return SplitParams(method, alpha=alpha, omega=0.01)


def _solve_lyapunov(problem, method, params, config):
    lift = lift_lyapunov(problem)
    params = _lift_params(lift, method, params)
    config = config or SolveConfig(tol=1e-6, max_outer=500)
    x, report = run_stationary(lift.as_system(), params, config)
    return unvec(x, problem.n, problem.n), report


def solve_lyapunov_gadi(problem, params=None, config=None):
    """Solve A* X + X A = Q by GADI sweeps on the lifted system.

    Returns ``(X, SolveReport)``; the report's residuals are the lifted
    relative residuals, which coincide with ||Q - A*X - XA||_F / ||Q||_F.
    With ``params=None`` the shift is sqrt(gamma_min*gamma_max) of the lifted
    real part and omega = 0.01.
    """
    return _solve_lyapunov(problem, "gadi", params, config)


def solve_lyapunov_hss(problem, params=None, config=None):
    """Same lift as :func:`solve_lyapunov_gadi`, stepped with HSS sweeps."""
    return _solve_lyapunov(problem, "hss", params, config)


def lyapunov_residual(problem, X):
    """Relative residual ||Q - A* X - X A||_F / ||Q||_F."""
    nq = np.linalg.norm(problem.Q, "fro")
    if nq == 0.0:
        raise ValueError("Q = 0: relative residual is undefined")
    A = problem.dense_A()
    X = np.asarray(X)
    return float(np.linalg.norm(problem.Q - A.conj().T @ X - X @ A, "fro") / nq)


def _inf_norm(A):
    if sp.issparse(A):
        return float(abs(A).sum(axis=1).max())
    return float(np.linalg.norm(np.asarray(A), np.inf))


def newton_initial_guess(problem, config=None):
    """Starting matrix for the Newton iteration.

    Solves the shifted Lyapunov equation B* X + X B = 2Q with
    B = A + (1 + ||A||_inf) I, whose strongly dominant real part makes the
    lifted GADI iteration converge in a handful of sweeps.
    """
    beta = 1.0 + _inf_norm(problem.dense_A())
    n = problem.n
    I = sp.eye_array(n, format="csr") if sp.issparse(problem.W) else np.eye(n)
    shifted = LyapunovProblem(problem.W + beta * I, problem.T, 2.0 * problem.Q)
    config = config or SolveConfig(tol=1e-12, max_outer=500)
    X0, report = solve_lyapunov_gadi(shifted, config=config)
    if not report.converged:
        raise InnerSolverError(
            f"initial shifted Lyapunov solve did not converge (RES={report.final_res:.3e})",
            x=vec(X0), iterations=report.iterations, residual=report.final_res)
    return X0


def build_newton_lift(state, problem):
    """Vectorize the Newton step equation A_k* X + X A_k = Q_k.

    A_k = A - G X_k contributes the extra lifted term g_lift built from
    S = X_k G; as in :func:`lift_lyapunov` both orientations are constructed
    and the one passing the residual identity on random probes is kept.
    """
    n = problem.n
    if n > NEWTON_LIFT_LIMIT:
        raise ValueError(f"Newton lift limited to n <= {NEWTON_LIFT_LIMIT}, got n = {n}")
    S = np.asarray(state.X) @ problem.G
    q = vec(state.Q_k)
    A_k = problem.dense_A() - problem.G @ np.asarray(state.X)
    w_lift, t_candidates = _lift_candidates(problem.W, problem.T)
    Ssp = sp.csr_array(S)
    I = sp.eye_array(n, format="csr")
    g_by_orientation = {
        "column": kron(I, Ssp) + kron(Ssp.conj(), I),
        "row": kron(Ssp, I) + kron(I, Ssp.conj()),
    }
    for orientation, t_lift in t_candidates:
        g_lift = g_by_orientation[orientation]
        lift = NewtonLift(w_lift, t_lift, g_lift, q, orientation)
        ok = True
        for X in _probe_matrices(n):
            lifted = lift.matvec(vec(X)) - q
            matrix = A_k.conj().T @ X + X @ A_k - state.Q_k
            scale = max(np.linalg.norm(matrix, "fro"), 1e-300)
            if abs(np.linalg.norm(lifted) - np.linalg.norm(matrix, "fro")) > 1e-10 * scale:
                ok = False
                break
        if ok:
            return lift
    raise RuntimeError("no Kronecker orientation satisfies the Newton lift residual identity")


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
    """Inflate X0 by c*I while the first Newton lift is numerically singular.

    The lift of A_0 = A - G X_0 is singular exactly when two eigenvalues of
    A_0 satisfy lam_i + conj(lam_j) = 0; the shifted-Lyapunov start can land
    there (the scalar problem does, exactly). Identity inflation preserves
    Hermitian structure and leaves well-posed starts untouched.
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


def _newton_sweep(lift, a, om, m1):
    """The GADI sweep on a Newton lift, whose second coefficient carries -g_lift."""
    S = lambda v: 1j * (lift.t_lift @ v) - lift.g_lift @ v
    m2 = DirectSolver((a * sp.eye_array(lift.w_lift.shape[0], format="csr")).astype(complex)
                      + 1j * lift.t_lift - lift.g_lift)

    def step(x, res):
        xh = m1.solve(a * x - S(x) + lift.q)
        return m2.solve(S(x) - (1 - om) * a * x + (2 - om) * a * xh), 0
    return step


def newton_gadi_riccati(problem, outer_tol=1e-6, max_outer=30, inner_tol=1e-8,
                        inner_forcing=None, max_inner=500, alpha=None, omega=0.01,
                        x0=None):
    """Newton outer iteration with GADI inner sweeps for the Riccati equation.

    Each Newton step solves A_k* X + X A_k = Q_k (A_k = A - G X_k,
    Q_k = -X_k G X_k - Q) through its Kronecker lift, warm-started at x_k, and
    stops when the absolute lifted residual drops below ``inner_tol * ||q_k||``
    or after ``max_inner`` sweeps. ``inner_forcing=(eta_max, eta_fac)``
    switches to the adaptive rule min(eta_max, eta_fac * Res_k) * ||q_k||,
    which spends far fewer inner sweeps when only a modest outer tolerance is
    needed. The outer loop stops when
    Res(X) = ||A* X + X A + Q - X G X||_2 / ||Q||_2 < outer_tol.

    Two safeguards keep the iteration well posed: a start whose first lifted
    operator is numerically singular is inflated by a multiple of the
    identity, and if the first step's inner sweeps diverge (the lifted
    operator can be expansive at a positive-semidefinite start) the iteration
    restarts once from X = 0, whose steps are provably contractive here. All
    executed sweeps count toward ``inner_iteration_total``.

    Returns a :class:`RiccatiResult`; reaching max_outer yields
    ``converged=False``.
    """
    t0 = time.perf_counter()
    n = problem.n
    if n > NEWTON_LIFT_LIMIT:
        raise ValueError(f"Newton-GADI limited to n <= {NEWTON_LIFT_LIMIT}, got n = {n}")
    X = newton_initial_guess(problem) if x0 is None else np.asarray(x0, dtype=complex).copy()
    X, _ = _ensure_invertible_start(problem, X)
    A = problem.dense_A()
    nq2 = np.linalg.norm(problem.Q, 2)
    if nq2 == 0.0:
        raise ValueError("Q = 0: the outer residual is undefined")

    from .spectral import eig_extremes_spd, optimal_alpha
    w_lift, _ = _lift_candidates(problem.W, problem.T)
    alpha_k = optimal_alpha(eig_extremes_spd(w_lift)) if alpha is None else float(alpha)
    m1 = DirectSolver(alpha_k * sp.eye_array(n * n, format="csr") + sp.csr_array(w_lift))

    total_inner = 0
    restarted = False
    states = []
    history = []
    x = vec(X)
    k = 0
    stagnant = 0
    prev_res = np.inf
    while True:
        res = riccati_residual(problem, X)
        history.append((k, res))
        if res < outer_tol or k >= max_outer or stagnant >= 3:
            result = RiccatiResult(
                X=X, converged=res < outer_tol, outer_iterations=k,
                inner_iteration_total=total_inner, res_history=history,
                states=states, wall_time=time.perf_counter() - t0,
                restarted=restarted, final_res=res)
            return result
        Q_k = -X @ problem.G @ X - problem.Q
        state = NewtonState(k=k, X=X, A_k=A - problem.G @ X, Q_k=Q_k)
        lift = build_newton_lift(state, problem)
        if inner_forcing is not None:
            eta_max, eta_fac = inner_forcing
            eps_abs = min(eta_max, eta_fac * res) * np.linalg.norm(lift.q)
        else:
            eps_abs = inner_tol * np.linalg.norm(lift.q)
        # the inner sweeps stop on the absolute residual, once it is below
        # eps_abs, and a residual that keeps growing means the lifted term
        # g_lift pushed the contraction factor above one
        try:
            x, inner = _sweep(
                lambda: _newton_sweep(lift, alpha_k, omega, m1),
                lambda v: np.linalg.norm(lift.matvec(v) - lift.q), x,
                np.nextafter(eps_abs, -np.inf), max_inner, guard=True)
        except _Diverged as div:
            total_inner += div.args[0].iterations
            if restarted or k > 0:
                err = InnerSolverError(
                    f"inner GADI sweeps diverge at outer step {k}", x=x,
                    iterations=total_inner, residual=res)
                err.half_step = f"outer step {k}"
                raise err from None
            restarted = True
            X = np.zeros((n, n), dtype=complex)
            x = vec(X)
            states.clear()
            history.clear()
            continue
        l = inner.iterations
        total_inner += l
        state.inner_iterations = l
        state.inner_residual = float(inner.final_res)
        X = unvec(x, n, n)
        X = 0.5 * (X + X.conj().T)  # inner tolerance allows a Hermitian drift
        x = vec(X)
        k += 1
        state.res = res
        states.append(state)
        stagnant = stagnant + 1 if (l == 0 and res >= prev_res * (1 - 1e-12)) else 0
        prev_res = res
