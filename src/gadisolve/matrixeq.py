"""Lyapunov and Riccati solvers: GADI on the Kronecker lift, run in n x n form.

Under column-stacking vec, A* X + X A = Q with A = W + iT is the system
(W~ + iT~) x = q of size n^2, with W~ = W (x) I + I (x) W and
T~ = T (x) I - I (x) T. Its GADI sweeps, and HSS as GADI at omega = 0, run
on n x n iterates held in two bases (:class:`_EigenSweep`): the half-steps
aX + WX + XW = R and aX + i(XT - TX) = R are diagonal in the eigenbasis of
W and of T. When the 1-D DST-I S1 diagonalizes both W and T
(``splitting._joint_eigenbasis`` at dims=1, as for tridiagonal Toeplitz W
and T), the lift is diagonal in S1 (x) S1 and a solve is the closed-form
``splitting._ModalSweep``, with no eigensolve. Newton steps
A_k* X + X A_k = Q_k (A_k = A - G X_k) of the Riccati equation
A* X + X A + Q - X G X = 0 run the eigen sweep with the second half-step
(aI - iT - S) X + X (iT - S^H) = R, S = X_k G, held in the eigenbasis V of
C = aI - iT - S: one eigensolve and inverse per Newton step and a division
per sweep. When cond(V) exceeds ``NEWTON_EIG_COND`` the step holds it in
the Schur basis of C instead: Bartels-Stewart, one complex Schur form per
step and a LAPACK trsyl per sweep. A Lyapunov solve and a Newton step drive
either sweep the same way, through its ``start``, ``make_step``, ``res`` and
``x`` in one ``splitting._sweep`` call; the Newton outer steps run in that
loop too.
The sparse lifts are built only as reference operators.
"""
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import ztrsyl

from .linalg import (InnerSolverError, _dense, _eye_like, _require_count, _require_real, kron,
                     load_dense_block, load_matrix_coo, save_dense_block, save_matrix_coo, vec)
from .spectral import optimal_alpha
from .splitting import (DEFAULT_OMEGA, ComplexSymSystem, SolveConfig, SolveReport,
                        SplitParams, _check_data, _Diverged, _joint_eigenbasis, _ModalSweep,
                        _sine_transform, _sweep)

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
NEWTON_MAX_INFLATIONS = 60  # identity inflations tried on a singular Newton start
NEWTON_EIG_COND = 1e3  # the largest ||V||_1 ||V^-1||_1 of a Newton half-step's eigenbasis


class _EquationData:
    """A = W + iT of a matrix equation."""

    @property
    def n(self):
        return self.W.shape[0]

    @property
    def bound_shift(self):
        """Bound shift of the lifted real part W (x) I + I (x) W: 2 sqrt(lam_min
        lam_max) of W, from one eigensolve; ``default_alpha(problem, "gadi")``.
        A W that is not positive definite raises NotPositiveDefiniteError."""
        return _lift_shift(_eigh(self.W)[0])

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
class RiccatiResult(SolveReport):
    """The outer Newton loop's SolveReport, with X, each step's NewtonState and
    whether it restarted from X = 0; ``outer_iterations`` and ``res_history``
    are read-only aliases of ``iterations`` and ``residual_history``."""
    X: np.ndarray = None
    states: list = field(default_factory=list)
    restarted: bool = False

    outer_iterations = property(lambda self: self.iterations)
    res_history = property(lambda self: self.residual_history)


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
    sums lam_i + lam_j of those lam of W: twice the bound shift of W."""
    return 2.0 * optimal_alpha(lam)


def _square(X, n, name="X"):
    """``X`` as an array, or a one-line ValueError if it is not n x n."""
    X = np.asarray(X)
    if X.shape != (n, n):
        raise ValueError(f"{name} must be {n} x {n}, got shape {X.shape}")
    return X


def _q_norm(Q, ord):
    nq = np.linalg.norm(Q, ord)
    if nq == 0.0:
        raise ValueError("Q = 0: relative residual is undefined")
    return nq


def _left(M, Z):
    """M @ Z for a real M and a complex Z: one real product on the interleaved
    real and imaginary parts of Z, so M is never converted to complex."""
    return (M @ np.ascontiguousarray(Z).view(np.float64)).view(np.complex128)


def _congruence(M, Z):
    """M^H Z M for a complex Z; for a real M, two real products as
    (M^T (M^T Z)^T)^T."""
    if np.isrealobj(M):
        return _left(M.T, _left(M.T, Z).T).T
    return M.conj().T @ Z @ M


class _EigenSweep:
    """The lifted GADI sweep (HSS at omega = 0) of WX + XW + K(X) = Q from X0
    (zero when None), held in the eigenbasis W = U diag(lam) U^T and a basis
    Z of the second part K.

    With Lw_ij = lam_i + lam_j, WX + XW is Lw * X_U in U coordinates
    (X_U = U^T X U), so the first half-step is a division. The second is data,
    ``second = (Z, Z_inv, K, solve)``: K(Y) in Z coordinates Y = Z^-1 X Z^-H,
    and the solver of aY + K(Y) = R; ``Z_inv`` is None for a unitary Z, whose
    inverse is Z^H. A state is (Y, X_U, r_U, K(Y)), with r_U = U^T R U for the
    residual R = Q - WX - XW - K(X); it goes to U coordinates through
    P = U^T Z and back through Pi = Z^-1 U, six products of P or Pi with an
    n x n matrix per sweep, and :meth:`res` is ||r_U||_F = ||R||_F.
    """

    def __init__(self, eig_W, Q, params, second, X0=None):
        lam, U = eig_W
        self.Z, Z_inv, self.K, self.solve = second
        self.P = U.T @ self.Z
        self.PH = self.P.conj().T
        # M -> Pi M Pi^H is _congruence(self.PiH, M); Pi = P^H for a unitary Z
        self.PiH = self.P if Z_inv is None else (Z_inv @ U).conj().T
        self.Lw = lam[:, None] + lam[None, :]
        a, om = params.alpha, params.relaxation
        self.D1, self.c, self.b = a + self.Lw, (1 - om) * a, (2 - om) * a
        self.Q_U = _congruence(U, Q)
        self.start = self.state(np.zeros(self.Lw.shape, dtype=complex) if X0 is None
                                else _congruence(self.Z if Z_inv is None else Z_inv.conj().T, X0))

    def state(self, Y):
        """The state of the iterate Z Y Z^H, with X_U = P Y P^H and
        K(X)_U = P K(Y) P^H."""
        KY = self.K(Y)
        X_U = _congruence(self.PH, Y)
        return Y, X_U, self.Q_U - self.Lw * X_U - _congruence(self.PH, KY), KY

    def res(self, state):
        return np.linalg.norm(state[2])

    def x(self, state):
        return _congruence(self.Z.conj().T, state[0])

    def first(self, state):
        """Z^-1 Xh Z^-H for the first half-step's (aI + W~) xh = a x - K~ x + q,
        which is r_U / D1 + X_U in U coordinates."""
        _, X_U, r_U, _ = state
        return _congruence(self.PiH, r_U / self.D1 + X_U)

    def second(self, state, Xh_Z):
        """The state after the second half-step
        (aI + K~) x' = (K~ - (1 - w) aI) x + (2 - w) a xh."""
        Y, _, _, KY = state
        return self.state(self.solve(KY - self.c * Y + self.b * Xh_Z))

    def step(self, state, res):
        return self.second(state, self.first(state)), 0

    def make_step(self):
        return self.step


def _lyapunov_part(T, params):
    """The second half-step of a Lyapunov sweep, K(X) = i(XT - TX), in the
    eigenbasis T = V diag(mu) V^T: K(Y) = E * Y with E_ij = i(mu_j - mu_i),
    and the solve is a division by a + E."""
    mu, V = _eigh(T)
    E = 1j * (mu[None, :] - mu[:, None])
    D2 = params.alpha + E
    return V, None, lambda Y: E * Y, lambda R: R / D2


def _newton_part(T, S, params):
    """The second half-step of a Newton step, K(X) = i(XT - TX) - (SX + XS^H)
    with S = X_k G, in the eigenbasis of C = aI - iT - S.

    aX + K(X) = C X + X (C - aI)^H. With C = V diag(d) V^-1 and Y the
    coordinates X = V Y V^H, K(Y) = E * Y with E_ij = (d_i - a) + conj(d_j - a),
    and the solve is a division by a + E, as in :func:`_lyapunov_part`. Its
    accuracy goes with cond(V) (Simoncini, SIAM Review 58, 2016), so when
    ||V||_1 ||V^-1||_1 exceeds ``NEWTON_EIG_COND``, or V is singular, the
    half-step is held in the basis of the complex Schur form C = Z U Z^H
    instead (Bartels-Stewart): K(Y) = N Y + Y N^H with N = U - aI, and the
    solve of U Y + Y N^H = R is one LAPACK trsyl. A divisor a + E_ij at or
    below trsyl's smallness bound raises the RuntimeError that trsyl's
    singular flag raises.
    """
    a = params.alpha
    I = np.eye(S.shape[0])
    C = a * I - 1j * T - S
    d, V = sla.eig(C)
    try:
        V_inv = np.linalg.inv(V)
    except np.linalg.LinAlgError:  # a defective C
        V_inv = None
    if V_inv is not None and (np.linalg.norm(V, 1) * np.linalg.norm(V_inv, 1)
                              <= NEWTON_EIG_COND):
        E = (d - a)[:, None] + (d - a).conj()[None, :]
        D2 = a + E
        # trsyl's bound on |Re| + |Im| of its divisors U_ii + conj(N_jj), with
        # the eigenvalues d and d - a for the entries of U and N
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        smin = max(tiny * D2.size / eps, eps * np.abs(d).max(), eps * np.abs(d - a).max())
        if (np.abs(D2.real) + np.abs(D2.imag) <= smin).any():
            raise RuntimeError("Newton step equation is numerically singular"
                               " (an eigenbasis divisor vanishes)")
        return V, V_inv, lambda Y: E * Y, lambda R: R / D2
    U, Z = sla.schur(C, output="complex")
    N = U - a * I
    NH = N.conj().T

    def solve(R):
        Y, scale, info = ztrsyl(U, N, R, tranb="C")
        if info != 0:
            raise RuntimeError(f"Newton step equation is numerically singular (trsyl info {info})")
        return Y / scale
    return Z, None, lambda Y: N @ Y + Y @ NH, solve


def _solve_lyapunov(problem, method, params, config):
    if params is not None and params.method != method:
        raise ValueError(f"solve_lyapunov_{method} takes {method!r} params, got {params.method!r}")
    config = config or SolveConfig(tol=1e-6, max_outer=500)
    nq = _q_norm(problem.Q, "fro")
    n, tol = problem.n, config.tol
    basis = _joint_eigenbasis(problem.W, problem.T, dims=1)
    eig_W = _eigh(problem.W) if basis is None else None
    if params is None:
        params = SplitParams(method, alpha=_lift_shift((basis or eig_W)[0]))
    if basis is None:
        sweep = _EigenSweep(eig_W, problem.Q, params, _lyapunov_part(problem.T, params))
    else:
        # the lift is diag(lam_i + lam_j) + i diag(mu_j - mu_i) in S1 (x) S1,
        # which takes vec X to S1 X S1
        lam, mu, S1 = basis
        sweep = _ModalSweep((lam[:, None] + lam).ravel(), (mu - mu[:, None]).ravel(), S1,
                            _sine_transform(S1, problem.Q), params.method, params.alpha,
                            params.relaxation)

    # the residual in the sweep's basis decides while it is above tol; at or
    # below tol the residual of X decides and is reported, and X = 0 has RES 1
    def residual(s):
        if s is sweep.start:
            return 1.0
        res = float(sweep.res(s) / nq)
        return lyapunov_residual(problem, sweep.x(s).reshape(n, n)) if res <= tol else res

    state, report = _sweep(sweep.make_step, residual, sweep.start, tol, config.max_outer)
    X = sweep.x(state).reshape(n, n)
    if not report.converged:  # its last RES was taken in the sweep's basis
        report.final_res = lyapunov_residual(problem, X)
        report.residual_history[-1] = (report.iterations, report.final_res)
    return X, report


def solve_lyapunov_gadi(problem, params=None, config=None):
    """Solve A* X + X A = Q by GADI sweeps on the lifted system.

    Returns ``(X, SolveReport)``; the report's residuals are the lifted
    relative residuals, which coincide with ||Q - A*X - XA||_F / ||Q||_F.
    The sweeps hold the iterate in the eigenbases of W and T or, when a
    probe finds that the 1-D DST-I S1 diagonalizes both
    (S1 W S1 = diag(lam), S1 T S1 = diag(mu)), in closed form: the lift is
    then diagonal in S1 (x) S1, each mode has one factor g from the method's
    row on diag(lam_i + lam_j) and diag(mu_j - mu_i), and the sweeps map
    w = |S1 Q S1|^2 to |g|^2 w. Either way the residual is taken in the
    sweep's basis; once it is at or below tol, and after the last sweep, the
    residual of the iterate's X decides and is reported. X = 0 has RES
    exactly 1.
    With ``params=None`` omega is DEFAULT_OMEGA and the shift the lifted
    real part's bound shift 2 sqrt(lam_min lam_max), of the eigenvalues lam
    of W the sweeps use; the detected ones in closed form can move it from
    ``default_alpha(problem, "gadi")`` in the last bits. Given ``params``
    must be GADI's, and any other method's raise ValueError. The sweeps
    start at X = 0, and of ``config`` only ``tol`` and ``max_outer`` apply.
    """
    return _solve_lyapunov(problem, "gadi", params, config)


def solve_lyapunov_hss(problem, params=None, config=None):
    """Same lifted system as :func:`solve_lyapunov_gadi`, stepped with HSS sweeps;
    ``params`` of any other method raise ValueError."""
    return _solve_lyapunov(problem, "hss", params, config)


def lyapunov_residual(problem, X):
    """Relative residual ||Q - A* X - X A||_F / ||Q||_F."""
    nq = _q_norm(problem.Q, "fro")
    A = problem.dense_A()
    X = _square(X, problem.n)
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
    """Relative residual ||A* X + X A + Q - X G X||_2 / ||Q||_2 (spectral norm);
    NaN when the residual matrix is not finite, as for a non-finite X."""
    nq = _q_norm(problem.Q, 2)
    return _riccati_res(problem.dense_A(), problem.G, problem.Q, nq, _square(X, problem.n))


def _riccati_res(A, G, Q, nq, X):
    R = A.conj().T @ X + X @ A + Q - X @ G @ X
    if not np.isfinite(R).all():  # the SVD of the spectral norm would not converge
        return np.nan
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


def _ensure_invertible_start(problem, A, X0):
    """Inflate X0 by c*I while the first Newton step equation is numerically singular.

    The step operator of A_0 = A - G X_0 is singular exactly when two
    eigenvalues of A_0 satisfy lam_i + conj(lam_j) = 0; the shifted-Lyapunov
    start can land there (the scalar problem does, exactly). Identity
    inflation preserves Hermitian structure and leaves well-posed starts
    untouched.
    """
    n = problem.n
    c = 0.0
    for _ in range(NEWTON_MAX_INFLATIONS):
        lam = sla.eigvals(A - problem.G @ (X0 + c * np.eye(n)))
        gap = np.abs(lam[:, None] + lam[None, :].conj()).min()
        if gap > 1e-8 * max(1.0, float(np.abs(lam).max())):
            break
        c = 1.0 if c == 0.0 else 2.0 * c
    else:
        raise RuntimeError("could not regularize the initial Newton step")
    return X0 + c * np.eye(n) if c else X0


def newton_gadi_riccati(problem, outer_tol=1e-6, max_outer=30, inner_forcing=(0.1, 0.1),
                        alpha=None, omega=DEFAULT_OMEGA, x0=None):
    """Newton outer iteration with GADI inner sweeps for the Riccati equation.

    Each Newton step solves A_k* X + X A_k = Q_k (A_k = A - G X_k,
    Q_k = -X_k G X_k - Q) by GADI sweeps on its Kronecker lift, run in n x n
    form and warm-started at X_k, until the absolute lifted residual drops
    below min(eta_max, eta_fac * Res_k) ||Q_k||_F, with the finite, positive
    ``inner_forcing=(eta_max, eta_fac)``, or for ``NEWTON_MAX_INNER`` sweeps.
    The sweeps hold the iterate in the eigenbasis of W and, for the second
    half-step (aI - iT - S) X + X (iT - S^H) = R with S = X_k G, in the
    eigenbasis V of C = aI - iT - S, where that half-step is a division; a
    step whose ||V||_1 ||V^-1||_1 exceeds ``NEWTON_EIG_COND`` holds it in the
    Schur basis of C instead, as one trsyl (Bartels-Stewart). A step
    equation that is singular to rounding raises RuntimeError. ``x0``, if
    given, is a finite n x n start.
    A forcing term of the order of the residual keeps Newton's local
    quadratic convergence (Dembo, Eisenstat & Steihaug 1982). The outer steps
    run in the sweep loop of :mod:`gadisolve.splitting`, which stops when
    Res(X) = ||A* X + X A + Q - X G X||_2 / ||Q||_2 < outer_tol, after
    ``max_outer`` steps, or at a fixed point: a step whose start X_k already
    meets its inner tolerance (its residual taken of X_k itself) returns X_k
    and builds no basis, and every later step would repeat it.
    outer_tol must be finite and positive, and max_outer at least 1. The
    default shift ``alpha`` is ``default_alpha(problem, "gadi")``, taken of
    the eigenvalues of W that the sweeps use. Of the equation's Hermitian
    solutions, ``x0 = 0`` (the Kleinman start) converges to the anti-stable
    one, min Re eig(A - G X) > 0, as a rule; the default start may not: on
    W = 1, T = 0, G = 1, Q = 3 it returns x = 3, where A - G x = -2.

    Two safeguards keep the iteration well posed: a start whose first step
    operator is numerically singular is inflated by a multiple of the
    identity, and if the first step's inner sweeps diverge (the lifted
    operator can be expansive at a positive-semidefinite start) the iteration
    restarts once from X = 0. All executed sweeps count toward
    ``inner_iteration_total``. Inner sweeps that diverge at a later step, or
    after the restart, raise InnerSolverError; its ``iterations`` count every
    inner sweep taken, and its ``report`` is the outer loop's partial
    SolveReport, whose history holds the Res of each step reached and whose
    ``inner_iteration_total`` equals those ``iterations``.

    Returns a :class:`RiccatiResult`, the outer loop's report, its
    ``wall_time`` that of the whole call; reaching max_outer yields
    ``converged=False``. Bad arguments raise a one-line ValueError.
    """
    t0 = time.perf_counter()
    _require_real("outer_tol", outer_tol)
    _require_count("max_outer", max_outer)
    try:
        eta_max, eta_fac = inner_forcing
    except (TypeError, ValueError):
        raise ValueError("inner_forcing must be a pair (eta_max, eta_fac)") from None
    for f in (eta_max, eta_fac):
        _require_real("inner_forcing entry", f)
    n = problem.n
    if x0 is not None and not np.isfinite(_square(x0, n, "x0")).all():
        raise ValueError("x0 must be finite")
    eig_W = _eigh(problem.W)
    params = SplitParams("gadi", _lift_shift(eig_W[0]) if alpha is None else alpha, omega)
    X = newton_initial_guess(problem) if x0 is None else np.asarray(x0, dtype=complex).copy()
    A, G = problem.dense_A(), problem.G
    X = _ensure_invertible_start(problem, A, X)
    T = _dense(problem.T)
    nq = _q_norm(problem.Q, 2)

    states = []
    spent = 0  # the inner sweeps of a diverged first start

    def newton_step(X, res):
        # the inner sweeps stop on the absolute residual, once it is below
        # eps_abs; that of the start is taken of X_k itself, as in eigen
        # coordinates its rounding can exceed eps_abs at a solution. A residual
        # that keeps growing means g_lift pushed the contraction factor above one
        k = len(states)
        Q_k = -X @ G @ X - problem.Q
        A_k = A - G @ X
        eps_abs = min(eta_max, eta_fac * res) * np.linalg.norm(Q_k)
        direct = float(np.linalg.norm(Q_k - A_k.conj().T @ X - X @ A_k))
        if direct < eps_abs:  # X_k is a fixed point of the outer sweep
            states.append(NewtonState(k, X, A_k, Q_k, 0, direct, res))
            return X, 0
        sweep = _EigenSweep(eig_W, Q_k, params, _newton_part(T, X @ G, params), X)
        try:
            end, inner = _sweep(
                sweep.make_step, lambda s: direct if s is sweep.start else sweep.res(s),
                sweep.start, np.nextafter(eps_abs, -np.inf), NEWTON_MAX_INNER, guard=True)
        except _Diverged as div:
            if not (spent or k):
                raise  # the first step from the first start: restart from X = 0
            raise InnerSolverError(
                f"inner GADI sweeps diverge at outer step {k}", x=vec(X),
                iterations=spent + sum(s.inner_iterations for s in states)
                + div.args[0].iterations, residual=res) from None
        l = inner.iterations
        states.append(NewtonState(k, X, A_k, Q_k, l, float(inner.final_res), res))
        Xn = sweep.x(end)
        return 0.5 * (Xn + Xn.conj().T), l  # inner tolerance allows a Hermitian drift

    def newton(X):
        try:
            return _sweep(lambda: newton_step, lambda X: _riccati_res(A, G, problem.Q, nq, X),
                          X, float(np.nextafter(outer_tol, -np.inf)), max_outer)
        except InnerSolverError as err:  # a later step's inner sweeps diverged
            err.half_step = f"outer step {err.report.iterations}"
            err.report.inner_iteration_total = err.iterations  # every inner sweep
            raise
    try:
        X, report = newton(X)
    except _Diverged as div:
        spent = div.args[0].iterations
        X, report = newton(np.zeros((n, n), dtype=complex))
    report.inner_iteration_total += spent
    report.wall_time = time.perf_counter() - t0
    return RiccatiResult(**vars(report), X=X, states=states, restarted=spent > 0)
