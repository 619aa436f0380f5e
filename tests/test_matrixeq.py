import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_continuous_are

from gadisolve import (ComplexSymSystem, LyapunovProblem, NewtonState,
                       NotPositiveDefiniteError, RiccatiProblem,
                       SolveConfig, SplitParams, build_newton_lift, gen_ex31,
                       gen_ex421, lift_lyapunov, lyapunov_residual, newton_gadi_riccati,
                       newton_initial_guess, riccati_residual,
                       solve_lyapunov_gadi, solve_lyapunov_hss, unvec, vec)
from helpers import match_multisets, random_psd, random_spd, symmetrize, without_joint_eigenbasis


def scalar_lyapunov(w=2.0, t=1.0, q=4.0):
    return LyapunovProblem(np.array([[w]]), np.array([[t]]), np.array([[q]], dtype=complex))


def random_lyapunov(rng, n):
    W = random_spd(rng, n)
    T = symmetrize(rng.standard_normal((n, n)))
    C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q = C + C.conj().T
    return LyapunovProblem(W, T, Q)


def small_riccati(rng, n, g_scale=0.05, q_scale=0.1):
    W = random_spd(rng, n, 1.0, 4.0)
    T = random_psd(rng, n, 0.0, 1.0)
    Cg = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    G = g_scale * (Cg @ Cg.conj().T) / n
    Cq = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q = q_scale * (Cq @ Cq.conj().T) / n
    return RiccatiProblem(sp.csr_array(W), sp.csr_array(T), G, Q)


def dense_lift_solve(problem):
    """Direct reference solution of the Lyapunov equation via its dense lift."""
    A = problem.dense_A()
    n = problem.n
    I = np.eye(n)
    lifted = np.kron(I, A.conj().T) + np.kron(A.T, I)
    return unvec(np.linalg.solve(lifted, vec(problem.Q)), n, n)


# -- lifting --------------------------------------------------------------------

def test_lift_scalar():
    p = scalar_lyapunov(w=1.5, t=0.7, q=3.0)
    lift = lift_lyapunov(p)
    assert np.allclose(np.asarray(lift.w_lift.todense() if sp.issparse(lift.w_lift)
                                  else lift.w_lift), [[3.0]])
    assert abs(np.asarray(lift.t_lift.todense() if sp.issparse(lift.t_lift)
                          else lift.t_lift))[0, 0] <= 1e-15
    assert lift.q[0] == 3.0


def test_lift_residual_identity_random():
    rng = np.random.default_rng(51)
    p = random_lyapunov(rng, 2)
    lift = lift_lyapunov(p)
    A = p.dense_A()
    for _ in range(10):
        X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lifted = np.linalg.norm(lift.w_lift @ vec(X) + 1j * (lift.t_lift @ vec(X)) - lift.q)
        matrix = np.linalg.norm(A.conj().T @ X + X @ A - p.Q, "fro")
        assert abs(lifted - matrix) <= 1e-12 * max(matrix, 1.0)


def test_lifted_imaginary_part_spectrum_is_symmetric():
    p = gen_ex31(4, 0.01)
    lift = lift_lyapunov(p)
    lam = np.linalg.eigvalsh(lift.t_lift.toarray())
    assert abs(lam.max() + lam.min()) <= 1e-10


def test_kron_difference_spectrum():
    # eigenvalues of I (x) A - B^T (x) I are all pairwise differences
    rng = np.random.default_rng(52)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    M = np.kron(np.eye(3), A) - np.kron(B.T, np.eye(3))
    lam = np.linalg.eigvals(M)
    la, lb = np.linalg.eigvals(A), np.linalg.eigvals(B)
    diffs = (la[:, None] - lb[None, :]).ravel()
    assert match_multisets(lam, diffs) <= 1e-8


def test_lifted_real_part_minimum_eigenvalue_doubles():
    rng = np.random.default_rng(53)
    for n in (3, 6, 8):
        p = random_lyapunov(rng, n)
        lift = lift_lyapunov(p)
        gmin_W = np.linalg.eigvalsh(np.asarray(p.W))[0]
        gmin_lift = np.linalg.eigvalsh(lift.w_lift.toarray()
                                       if sp.issparse(lift.w_lift) else lift.w_lift)[0]
        assert abs(gmin_lift - 2 * gmin_W) <= 1e-10


def test_lift_dimension_cap():
    n = 129
    p = LyapunovProblem(sp.eye_array(n, format="csr"), sp.eye_array(n, format="csr") * 0.0,
                        np.eye(n, dtype=complex))
    with pytest.raises(ValueError):
        lift_lyapunov(p)


# -- Lyapunov solvers --------------------------------------------------------------

def test_lyapunov_gadi_scalar():
    X, report = solve_lyapunov_gadi(scalar_lyapunov(), config=SolveConfig(tol=1e-12, max_outer=200))
    assert report.converged
    assert abs(X[0, 0] - 1.0) <= 1e-10


def test_lyapunov_gadi_reference_row():
    # reference row: (alpha, omega) = (2.6198, 0.01) converges in 19 sweeps
    p = gen_ex31(16, 0.01)
    params = SplitParams("gadi", alpha=2.6198, omega=0.01)
    X, report = solve_lyapunov_gadi(p, params, SolveConfig(tol=1e-5, max_outer=200))
    assert report.converged
    assert report.iterations <= 25


def test_lyapunov_gadi_random_vs_dense_lift():
    rng = np.random.default_rng(54)
    p = random_lyapunov(rng, 4)
    Xd = dense_lift_solve(p)
    X, report = solve_lyapunov_gadi(p, config=SolveConfig(tol=1e-12, max_outer=2000))
    assert report.converged
    assert np.linalg.norm(X - Xd, "fro") <= 1e-8 * np.linalg.norm(Xd, "fro")


def test_lyapunov_report_residual_matches_matrix_residual():
    p = gen_ex31(8, 0.1)
    X, report = solve_lyapunov_gadi(p, config=SolveConfig(tol=1e-6, max_outer=500))
    mat = lyapunov_residual(p, X)
    assert abs(report.final_res - mat) <= 1e-10 * max(mat, 1e-30)


@pytest.mark.parametrize("solver", [solve_lyapunov_hss, solve_lyapunov_gadi])
@pytest.mark.parametrize("t", [0.01, 0.1])
@pytest.mark.parametrize("n", [16, 32, 64])
def test_lyapunov_report_residual_is_that_of_the_returned_X(n, t, solver):
    # the sweeps take RES in the eigenbases; the stopping RES is that of X,
    # and that of the start X = 0 is exactly 1
    p = gen_ex31(n, t)
    X, report = solver(p, config=SolveConfig(tol=1e-6, max_outer=500))
    assert report.converged and report.residual_history[0] == (0, 1.0)
    mat = lyapunov_residual(p, X)
    assert abs(report.final_res - mat) <= 1e-10 * mat
    X, report = solver(p, config=SolveConfig(tol=1e-6, max_outer=5))
    assert not report.converged
    assert report.residual_history[-1] == (5, report.final_res)
    assert report.final_res == lyapunov_residual(p, X)


@pytest.mark.parametrize("tol", [1.0, 2.0])
@pytest.mark.parametrize("solver", [solve_lyapunov_hss, solve_lyapunov_gadi])
def test_lyapunov_tol_of_one_or_more_makes_no_sweep(solver, tol):
    # at n = 16 the norm of Q in the eigenbasis of W rounds to above ||Q||
    X, report = solver(gen_ex31(16, 0.1), config=SolveConfig(tol=tol, max_outer=500))
    assert report.converged and report.iterations == 0
    assert report.final_res == 1.0 and report.residual_history == [(0, 1.0)]
    assert X.shape == (16, 16) and not X.any()


def test_lyapunov_hss_scalar_two_sweeps():
    X, report = solve_lyapunov_hss(scalar_lyapunov(), config=SolveConfig(tol=1e-10, max_outer=50))
    assert report.converged
    assert report.iterations <= 2
    assert abs(X[0, 0] - 1.0) <= 1e-9


def test_lyapunov_hss_reference_row():
    # reference row reports 13 sweeps for this instance
    p = gen_ex31(8, 0.01)
    X, report = solve_lyapunov_hss(p, config=SolveConfig(tol=1e-5, max_outer=200))
    assert report.converged
    assert report.iterations <= 20


def test_lyapunov_hss_random_vs_dense_lift():
    rng = np.random.default_rng(55)
    p = random_lyapunov(rng, 4)
    Xd = dense_lift_solve(p)
    X, report = solve_lyapunov_hss(p, config=SolveConfig(tol=1e-12, max_outer=2000))
    assert report.converged
    assert np.linalg.norm(X - Xd, "fro") <= 1e-8 * np.linalg.norm(Xd, "fro")


def test_lyapunov_iterates_stay_hermitian():
    p = gen_ex31(8, 0.01)
    X, report = solve_lyapunov_gadi(p, config=SolveConfig(tol=1e-5, max_outer=500))
    assert np.linalg.norm(X - X.conj().T, "fro") <= 1e-9 * np.linalg.norm(X, "fro")


# -- residuals ----------------------------------------------------------------------

def test_lyapunov_residual_cases():
    rng = np.random.default_rng(56)
    p = random_lyapunov(rng, 5)
    Xd = dense_lift_solve(p)
    assert lyapunov_residual(p, Xd) <= 1e-13
    assert lyapunov_residual(p, np.zeros((5, 5))) == 1.0
    X = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    A = p.dense_A()
    want = np.linalg.norm(p.Q - A.conj().T @ X - X @ A, "fro") / np.linalg.norm(p.Q, "fro")
    assert abs(lyapunov_residual(p, X) - want) <= 1e-14
    bad = LyapunovProblem(p.W, p.T, np.zeros((5, 5), dtype=complex))
    with pytest.raises(ValueError):
        lyapunov_residual(bad, X)


def _refine_care(p, X, steps=2):
    """Sharpen a Riccati solution by direct-solve Newton steps."""
    A = p.dense_A()
    n = p.n
    I = np.eye(n)
    for _ in range(steps):
        A_k = A - p.G @ X
        Q_k = -X @ p.G @ X - p.Q
        lifted = np.kron(I, A_k.conj().T) + np.kron(A_k.T, I)
        X = unvec(np.linalg.solve(lifted, vec(Q_k)), n, n)
        X = 0.5 * (X + X.conj().T)
    return X


def test_riccati_residual_cases():
    p = gen_ex421(4)
    A = p.dense_A()
    Xs = solve_continuous_are(A, np.eye(4, dtype=complex), p.Q, np.linalg.inv(p.G))
    Xs = _refine_care(p, Xs)
    assert riccati_residual(p, Xs) <= 1e-12
    assert riccati_residual(p, np.zeros((4, 4))) == 1.0
    rng = np.random.default_rng(57)
    X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    want = np.linalg.norm(A.conj().T @ X + X @ A + p.Q - X @ p.G @ X, 2) / np.linalg.norm(p.Q, 2)
    assert abs(riccati_residual(p, X) - want) <= 1e-13


@pytest.mark.parametrize("shape", [(4,), (3, 3), (4, 1)], ids=["vector", "3x3", "4x1"])
@pytest.mark.parametrize("residual, problem", [(lyapunov_residual, gen_ex31(4, 0.1)),
                                               (riccati_residual, gen_ex421(4))],
                         ids=["lyapunov", "riccati"])
def test_residuals_reject_an_x_that_is_not_n_by_n(residual, problem, shape):
    # a length-n vector used to broadcast to a meaningless number
    with pytest.raises(ValueError) as info:
        residual(problem, np.ones(shape))
    assert str(info.value) == f"X must be 4 x 4, got shape {shape}"


def test_lyapunov_residual_of_a_non_finite_x_is_nan():
    # only the shape is checked: a diverged solve still reports its NaN RES
    assert np.isnan(lyapunov_residual(gen_ex31(4, 0.1), np.full((4, 4), np.nan)))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_riccati_residual_of_a_non_finite_x_is_nan(value):
    # the SVD behind the spectral norm raised LinAlgError on a non-finite
    # residual matrix; inf X makes inf - inf entries, hence the errstate
    with np.errstate(invalid="ignore"):
        assert np.isnan(riccati_residual(gen_ex421(4), np.full((4, 4), value)))


# -- Newton initialization ------------------------------------------------------------

def test_initial_guess_scalar():
    p = RiccatiProblem(np.array([[1.0]]), np.array([[0.0]]),
                       np.eye(1, dtype=complex), np.eye(1, dtype=complex))
    X0 = newton_initial_guess(p)
    assert abs(X0[0, 0] - 1.0 / 3.0) <= 1e-10


def test_initial_guess_residual_and_symmetry():
    rng = np.random.default_rng(58)
    p = small_riccati(rng, 4)
    X0 = newton_initial_guess(p)
    A = p.dense_A()
    beta = 1.0 + np.abs(A).sum(axis=1).max()
    B = A + beta * np.eye(4)
    shift_res = np.linalg.norm(B.conj().T @ X0 + X0 @ B - 2 * p.Q, "fro")
    assert shift_res <= 1e-8 * np.linalg.norm(2 * p.Q, "fro")
    assert np.linalg.norm(X0 - X0.conj().T, "fro") <= 1e-10 * max(np.linalg.norm(X0, "fro"), 1e-30)


# -- Newton-step lifts -----------------------------------------------------------------

def test_newton_lift_reduces_to_lyapunov_at_zero_state():
    p = gen_ex421(3)
    state = NewtonState(k=0, X=np.zeros((3, 3), dtype=complex),
                        A_k=p.dense_A(), Q_k=-p.Q)
    lift = build_newton_lift(state, p)
    plain = lift_lyapunov(LyapunovProblem(p.W, p.T, -p.Q))
    assert np.array_equal(lift.q, plain.q)
    assert abs(lift.g_lift).max() == 0.0
    assert np.abs((lift.w_lift - plain.w_lift).toarray()).max() == 0.0
    assert np.abs((lift.t_lift - plain.t_lift).toarray()).max() == 0.0


def test_newton_lift_residual_identity():
    rng = np.random.default_rng(59)
    p = small_riccati(rng, 2)
    Xk = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    Xk = 0.5 * (Xk + Xk.conj().T)
    state = NewtonState(k=0, X=Xk, A_k=p.dense_A() - p.G @ Xk,
                        Q_k=-Xk @ p.G @ Xk - p.Q)
    lift = build_newton_lift(state, p)
    A_k = state.A_k
    for _ in range(10):
        X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lifted = np.linalg.norm(lift.matvec(vec(X)) - lift.q)
        matrix = np.linalg.norm(A_k.conj().T @ X + X @ A_k - state.Q_k, "fro")
        assert abs(lifted - matrix) <= 1e-12 * max(matrix, 1.0)


def test_newton_lift_scalar_real_value():
    w, g, xk = 1.0, 0.7, 0.4
    p = RiccatiProblem(np.array([[w]]), np.array([[0.0]]),
                       g * np.eye(1, dtype=complex), np.eye(1, dtype=complex))
    X = np.array([[xk]], dtype=complex)
    state = NewtonState(k=0, X=X, A_k=p.dense_A() - p.G @ X, Q_k=-X @ p.G @ X - p.Q)
    lift = build_newton_lift(state, p)
    val = lift.matrix().toarray()[0, 0]
    assert abs(val - 2 * (w - g * xk)) <= 1e-14


# -- Newton-GADI driver ----------------------------------------------------------------

def test_scalar_care_recovers_positive_root():
    p = RiccatiProblem(np.array([[1.0]]), np.array([[0.0]]),
                       np.eye(1, dtype=complex), 3.0 * np.eye(1, dtype=complex))
    result = newton_gadi_riccati(p, outer_tol=1e-9, max_outer=25)
    assert result.converged
    assert abs(result.X[0, 0] - 3.0) <= 1e-8
    # the branch with A - G X = -2, not the anti-stable one that
    # perfbench/checks.check_riccati accepts
    assert abs(closed_loop_min(p, result.X) + 2.0) <= 1e-8


def test_reference_riccati_row_n8():
    # reference row: 33 cumulative sweeps at residual 7.485e-06
    p = gen_ex421(8)
    result = newton_gadi_riccati(p, outer_tol=1e-5, inner_forcing=(0.1, 0.1))
    assert result.converged
    assert result.final_res <= 1e-5
    assert result.inner_iteration_total <= 50


def closed_loop_min(p, X):
    """min Re eig(A - G X): positive on the anti-stable solution."""
    return float(np.linalg.eigvals(p.dense_A() - p.G @ X).real.min())


# min Re eig(A - G X) of the table5 answers, which equal CARE's anti-stable
# solution -solve_continuous_are(-A, I, Q, inv(G))
TABLE5_CLOSED_LOOP_MIN = {8: 0.46791, 16: 0.13506, 24: 0.062834, 32: 0.036143}

# the inner sweeps of each Newton step of the table5 instances, after their
# restart from X = 0; the table5 pin checks only their totals with the sweeps
# of the diverged first start
TABLE5_STEP_SWEEPS = {
    8: [7, 3, 2, 1, 2, 3, 4],
    16: [12, 10, 9, 7, 4, 2, 2, 2, 3, 6, 7, 7],
    24: [18, 16, 16, 14, 12, 10, 7, 4, 4, 4, 5, 10, 10],
    32: [23, 22, 21, 20, 18, 16, 13, 7, 4, 5, 6, 14, 14],
}


@pytest.mark.parametrize("n", sorted(TABLE5_STEP_SWEEPS))
def test_table5_step_sweeps_are_pinned(n):
    from gadisolve.bench import build_preset
    (cfg,) = build_preset("table5")
    (alpha, omega), = cfg.policy.points
    assert alpha is None  # the solver's default shift, as in the preset
    p = gen_ex421(n)
    result = newton_gadi_riccati(p, outer_tol=cfg.tol, max_outer=cfg.max_outer, omega=omega)
    assert result.converged
    assert result.restarted
    assert [s.inner_iterations for s in result.states] == TABLE5_STEP_SWEEPS[n]
    assert len(result.res_history) == result.outer_iterations + 1
    assert result.res_history[-1] == (result.outer_iterations, result.final_res)
    # the anti-stable branch: that of CARE's solution, to 1e-6 relative
    got = closed_loop_min(p, result.X)
    X_care = -solve_continuous_are(-p.dense_A(), np.eye(n), p.Q, np.linalg.inv(p.G))
    assert got > 0
    assert got == pytest.approx(closed_loop_min(p, X_care), rel=1e-6)
    assert got == pytest.approx(TABLE5_CLOSED_LOOP_MIN[n], rel=1e-4)


def test_newton_agrees_with_direct_newton_oracle():
    rng = np.random.default_rng(60)
    p = small_riccati(rng, 4)
    X0 = newton_initial_guess(p)
    # independent Newton iteration with direct dense lifted solves
    A = p.dense_A()
    I = np.eye(4)
    X = X0.copy()
    for _ in range(50):
        if riccati_residual(p, X) < 1e-10:
            break
        A_k = A - p.G @ X
        Q_k = -X @ p.G @ X - p.Q
        lifted = np.kron(I, A_k.conj().T) + np.kron(A_k.T, I)
        X = unvec(np.linalg.solve(lifted, vec(Q_k)), 4, 4)
        X = 0.5 * (X + X.conj().T)
    X_oracle = X
    result = newton_gadi_riccati(p, outer_tol=1e-8, max_outer=50, x0=X0)
    assert result.converged
    assert result.final_res <= 1e-8
    assert np.linalg.norm(result.X - result.X.conj().T, "fro") <= 1e-8
    assert np.linalg.norm(result.X - X_oracle, "fro") <= 1e-6 * np.linalg.norm(X_oracle, "fro")


def test_newton_stationary_at_exact_solution():
    p = gen_ex421(4)
    A = p.dense_A()
    Xs = solve_continuous_are(A, np.eye(4, dtype=complex), p.Q, np.linalg.inv(p.G))
    Xs = _refine_care(p, Xs)
    result = newton_gadi_riccati(p, outer_tol=1e-14, max_outer=6, x0=Xs)
    # tolerance below attainable accuracy: the iteration must stay put
    assert np.linalg.norm(result.X - Xs, "fro") <= 1e-10 * np.linalg.norm(Xs, "fro")


def test_newton_keeps_an_exact_solution_bit_for_bit(monkeypatch):
    # at a solution the start residual of the first step is below its inner
    # tolerance: the step returns X_k itself before it builds an eigenbasis or
    # a Schur form, a fixed point that ends the outer sweep after that one step
    from gadisolve import matrixeq
    calls = []
    for name in ("eig", "schur"):
        f = getattr(matrixeq.sla, name)
        monkeypatch.setattr(matrixeq.sla, name,
                            lambda *a, f=f, name=name, **k: calls.append(name) or f(*a, **k))
    p = gen_ex421(4)
    A = p.dense_A()
    Xs = solve_continuous_are(A, np.eye(4, dtype=complex), p.Q, np.linalg.inv(p.G))
    Xs = _refine_care(p, Xs)
    result = newton_gadi_riccati(p, outer_tol=1e-14, max_outer=6, x0=Xs)
    assert result.outer_iterations == len(result.states) == 1
    assert not result.converged
    assert calls == []
    assert np.array_equal(result.X, Xs)
    (state,) = result.states
    assert state.inner_iterations == 0 and np.array_equal(state.X, Xs)
    A_k, Q_k = A - p.G @ Xs, -Xs @ p.G @ Xs - p.Q
    assert state.inner_residual == float(np.linalg.norm(Q_k - A_k.conj().T @ Xs - Xs @ A_k))
    res = riccati_residual(p, Xs)
    assert result.res_history == [(0, res), (1, res)] and state.res == res


@pytest.mark.parametrize("bound, why", [(None, "an eigenbasis divisor vanishes"),
                                        (0.0, "trsyl info 1")], ids=["eigenbasis", "schur"])
def test_a_singular_newton_half_step_raises(monkeypatch, bound, why):
    # S = diag(a/2, 0.3): C = aI - S has the eigenvalue d = a/2, whose divisor
    # d + conj(d) - a of the second half-step is exactly zero; a bound of 0
    # sends every step to the Schur form and trsyl
    from gadisolve import matrixeq
    if bound is not None:
        monkeypatch.setattr(matrixeq, "NEWTON_EIG_COND", bound)
    a = 2.0
    S = np.diag([a / 2, 0.3]).astype(complex)
    with pytest.raises(RuntimeError) as err:
        solve = matrixeq._newton_part(np.zeros((2, 2)), S, SplitParams("gadi", a, 0.5))[3]
        solve(np.ones((2, 2), dtype=complex))
    assert str(err.value) == f"Newton step equation is numerically singular ({why})"


def test_newton_early_exit_at_exact_solution():
    p = gen_ex421(4)
    A = p.dense_A()
    Xs = solve_continuous_are(A, np.eye(4, dtype=complex), p.Q, np.linalg.inv(p.G))
    result = newton_gadi_riccati(p, outer_tol=1e-6, max_outer=10, x0=Xs)
    assert result.converged
    assert result.outer_iterations == 0
    assert np.array_equal(result.X, Xs)


@pytest.mark.parametrize("kwargs", [
    {"outer_tol": np.inf}, {"outer_tol": 0.0}, {"max_outer": -2},
    {"inner_forcing": (-1.0, 0.1)}, {"inner_forcing": (np.nan, 0.1)},
    {"inner_forcing": (0.1, 0.0)}, {"inner_forcing": (0.1, np.inf)},
    {"x0": np.zeros((3, 3))}, {"x0": np.full((8, 8), np.nan)},
    {"outer_tol": True}, {"max_outer": 2.5}, {"max_outer": True}, {"alpha": True},
    {"alpha": -1.0}, {"omega": True}, {"inner_forcing": (True, 0.1)},
    {"inner_forcing": ("x", 0.1)}, {"inner_forcing": (0.1,)},
    {"inner_forcing": (0.1, 0.1, 0.1)}, {"inner_forcing": 0.1},
], ids=["outer_tol=inf", "outer_tol=0", "max_outer=-2", "eta_max=-1", "eta_max=nan",
        "eta_fac=0", "eta_fac=inf", "x0=3x3", "x0=nan", "outer_tol=True", "max_outer=2.5",
        "max_outer=True", "alpha=True", "alpha=-1", "omega=True", "eta_max=True", "eta_max=x",
        "inner_forcing=1-tuple", "inner_forcing=3-tuple", "inner_forcing=scalar"])
def test_newton_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError) as info:
        newton_gadi_riccati(gen_ex421(8), **kwargs)
    assert "\n" not in str(info.value)
    (name,) = kwargs
    assert str(info.value).startswith(f"{name} ")  # the message names the argument


def test_newton_takes_inner_forcing_as_any_pair_of_reals():
    p = gen_ex421(4)
    want = newton_gadi_riccati(p, inner_forcing=(0.1, 0.1))
    for pair in ([0.1, 0.1], np.array([0.1, 0.1])):
        got = newton_gadi_riccati(p, inner_forcing=pair)
        assert got.converged and np.array_equal(got.X, want.X)


def test_newton_divergence_after_the_restart_counts_every_inner_sweep():
    # at n = 40 the first start diverges at step 0, and the restart from
    # X = 0 diverges at step 2; the error counts the sweeps of the first
    # start, of the two completed steps and of the diverging one
    from gadisolve import InnerSolverError
    with pytest.raises(InnerSolverError, match="^inner GADI sweeps diverge at outer step 2$") as info:
        newton_gadi_riccati(gen_ex421(40), outer_tol=1e-5)
    err = info.value
    assert err.iterations == 80
    assert err.residual == pytest.approx(4759.2515937790, rel=1e-12)
    assert err.half_step == "outer step 2"
    assert err.report.iterations == 2 and not err.report.converged
    assert err.report.residual_history[-1] == (2, err.residual)


def test_newton_partial_report_counts_every_inner_sweep():
    # the error's report, like its iterations, counts the inner sweeps of
    # the diverged first start and of the diverging step, not only those of
    # the completed steps
    from gadisolve import InnerSolverError
    with pytest.raises(InnerSolverError) as info:
        newton_gadi_riccati(gen_ex421(40), outer_tol=1e-5)
    assert info.value.report.inner_iteration_total == info.value.iterations == 80


def test_a_diverged_newton_solve_leaves_no_reference_cycle():
    # a cycle through the error's traceback would hold the solve's frames,
    # and with them every NewtonState, until the next garbage collection
    import gc
    from gadisolve import InnerSolverError
    gc.collect()
    gc.disable()
    try:
        try:
            newton_gadi_riccati(gen_ex421(40), outer_tol=1e-5)
        except InnerSolverError:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_riccati_result_is_the_outer_loops_solve_report():
    from gadisolve import SolveReport
    result = newton_gadi_riccati(gen_ex421(8))
    assert isinstance(result, SolveReport)
    assert result.outer_iterations == result.iterations
    assert result.res_history is result.residual_history
    assert len(result.residual_history) == result.iterations + 1
    assert result.residual_history[-1] == (result.iterations, result.final_res)
    # the inner total includes the diverged first start's sweeps
    assert result.restarted
    assert result.inner_iteration_total > sum(s.inner_iterations for s in result.states)
    with pytest.raises(AttributeError):
        result.outer_iterations = 0


def test_newton_restart_guard_on_expansive_start():
    p = gen_ex421(8)
    result = newton_gadi_riccati(p, outer_tol=1e-5, inner_forcing=(0.1, 0.1))
    assert result.restarted  # the shifted-Lyapunov start is expansive here
    assert result.converged


def test_newton_states_hermitian_and_radius_below_one():
    from gadisolve.matrixeq import build_newton_lift
    p = gen_ex421(6)
    result = newton_gadi_riccati(p, outer_tol=1e-5, inner_forcing=(0.1, 0.1))
    assert result.converged
    assert result.states
    alpha = None
    for state in result.states:
        nX = max(np.linalg.norm(state.X, "fro"), 1e-30)
        assert np.linalg.norm(state.X - state.X.conj().T, "fro") <= 1e-9 * nX
        lift = build_newton_lift(state, p)
        if alpha is None:
            from gadisolve import eig_extremes_spd, optimal_alpha
            alpha = optimal_alpha(eig_extremes_spd(lift.w_lift))
        N2 = lift.w_lift.shape[0]
        I2 = np.eye(N2)
        Wd = lift.w_lift.toarray()
        Sd = 1j * lift.t_lift.toarray() - lift.g_lift.toarray()
        Tk = np.linalg.solve(alpha * I2 + Sd,
                             (alpha * I2 - Wd) @ np.linalg.solve(alpha * I2 + Wd,
                                                                 alpha * I2 - Sd))
        Mk = 0.5 * ((2 - 0.01) * Tk + 0.01 * I2)
        assert np.abs(np.linalg.eigvals(Mk)).max() < 1.0


def test_problem_file_round_trips(tmp_path):
    from gadisolve import (load_lyapunov_problem, load_riccati_problem,
                           save_lyapunov_problem, save_riccati_problem)
    p = gen_ex31(5, 0.1)
    save_lyapunov_problem(tmp_path / "lyap", p)
    q = load_lyapunov_problem(tmp_path / "lyap")
    assert np.array_equal(q.W.toarray(), p.W.toarray())
    assert np.array_equal(q.T.toarray(), p.T.toarray())
    assert np.array_equal(q.Q, p.Q)
    r = gen_ex421(4)
    save_riccati_problem(tmp_path / "ric", r)
    s = load_riccati_problem(tmp_path / "ric")
    assert np.array_equal(s.W.toarray(), r.W.toarray())
    assert np.array_equal(s.G, r.G)
    assert np.array_equal(s.Q, r.Q)


def test_lyapunov_gadi_beyond_lift_cap():
    # the sweeps run in n x n form, so n = 128 (a lift of 16384 rows) is cheap
    p = gen_ex31(128, 0.01)
    X, report = solve_lyapunov_gadi(p, config=SolveConfig(tol=1e-5, max_outer=500))
    assert report.converged
    assert lyapunov_residual(p, X) <= 1e-5


def test_newton_accepts_n_beyond_old_lift_cap():
    # the Newton sweeps no longer build the lift, which limited them to n <= 64
    n = 65
    p = RiccatiProblem(sp.eye_array(n, format="csr"), sp.eye_array(n, format="csr") * 0.0,
                       np.eye(n, dtype=complex), np.eye(n, dtype=complex))
    result = newton_gadi_riccati(p, outer_tol=1e-8)
    assert result.converged
    assert riccati_residual(p, result.X) < 1e-8


@pytest.mark.parametrize("n", [8, 16, 32])
def test_closed_form_shift_is_the_lift_shift(n):
    # the default shift of the presets: bench takes default_alpha under the
    # method's alias, bit for bit the solvers' lift shift
    from gadisolve import default_alpha, eig_extremes_spd, optimal_alpha
    from gadisolve.bench import METHOD_ALIASES
    from gadisolve.matrixeq import _eigh, _lift_shift
    p = gen_ex31(n, 0.01)
    alpha = _lift_shift(_eigh(p.W)[0])
    assert abs(alpha - optimal_alpha(eig_extremes_spd(lift_lyapunov(p).w_lift))) <= 1e-10
    assert default_alpha(p, "gadi") == default_alpha(p, "hss") == alpha
    r = gen_ex421(n)
    alpha = _lift_shift(_eigh(r.W)[0])
    assert default_alpha(r, METHOD_ALIASES["newton-gadi"]) == default_alpha(r, "gadi") == alpha


def test_default_shift_rejects_indefinite_W():
    p = LyapunovProblem(np.diag([1.0, -1.0]), np.zeros((2, 2)), np.eye(2, dtype=complex))
    with pytest.raises(NotPositiveDefiniteError):
        solve_lyapunov_gadi(p)


@pytest.mark.parametrize("solve, other", [(solve_lyapunov_gadi, "hss"),
                                          (solve_lyapunov_hss, "gadi"),
                                          (solve_lyapunov_gadi, "mhss")])
def test_a_lyapunov_solver_rejects_the_other_methods_params(solve, other):
    own = solve.__name__.rsplit("_", 1)[1]
    with pytest.raises(ValueError, match=f"^{solve.__name__} takes '{own}' params, got '{other}'$"):
        solve(gen_ex31(8, 0.01), SplitParams(other, 2.0, 0.5))


# -- the modal solve of a problem with a joint sine eigenbasis ---------------------

def toeplitz3(n, diag, off):
    """The symmetric tridiagonal Toeplitz matrix tridiag(off, diag, off), sparse."""
    return sp.diags_array([np.full(n - 1, off), np.full(n, diag), np.full(n - 1, off)],
                          offsets=[-1, 0, 1], format="csr")


def solve_both_ways(problem, solver, params, config):
    """``(X, report)`` of the detected modal path and of the eigen-coordinate
    sweep, which detection turned off by a monkeypatch leaves."""
    detected = solver(problem, params, config)
    with pytest.MonkeyPatch.context() as patch:
        without_joint_eigenbasis(patch)
        return detected, solver(problem, params, config)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
       w=st.floats(0.5, 5.0), w_off=st.floats(-0.49, 0.49),
       t=st.floats(-3.0, 3.0), t_off=st.floats(-2.0, 2.0),
       solver=st.sampled_from([solve_lyapunov_gadi, solve_lyapunov_hss]),
       shift=st.sampled_from([None, 0.2, 0.5, 1.0, 2.0, 5.0]),
       omega=st.sampled_from([0.0, 0.01, 0.5, 1.0, 1.5]))
def test_modal_lyapunov_solve_matches_the_eigen_sweep(n, seed, w, w_off, t, t_off, solver,
                                                      shift, omega):
    # W = tridiag(w_off w, w, w_off w) is positive definite, as |2 w_off| < 1;
    # T is any tridiagonal Toeplitz matrix, and Q any Hermitian one. A shift
    # scales the default one; None takes the default on either path
    from gadisolve.matrixeq import _eigh, _joint_eigenbasis, _lift_shift
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    p = LyapunovProblem(toeplitz3(n, w, w_off * w), toeplitz3(n, t, t_off), C + C.conj().T)
    assert _joint_eigenbasis(p.W, p.T, dims=1) is not None
    params = None
    if shift is not None:
        method = "gadi" if solver is solve_lyapunov_gadi else "hss"
        params = SplitParams(method, shift * _lift_shift(_eigh(p.W)[0]), omega)
    config = SolveConfig(tol=1e-6, max_outer=300)
    (X, modal), (X_eig, eig) = solve_both_ways(p, solver, params, config)
    assert (modal.iterations, modal.converged) == (eig.iterations, eig.converged)
    assert np.linalg.norm(X - X_eig) <= 1e-9 * np.linalg.norm(X_eig)
    for Y, report in ((X, modal), (X_eig, eig)):
        # the start has RES exactly 1, and the RES reported is that of X
        assert report.residual_history[0] == (0, 1.0)
        assert report.residual_history[-1] == (report.iterations, report.final_res)
        mat = lyapunov_residual(p, Y)
        assert abs(report.final_res - mat) <= 1e-10 * mat


def test_joint_sine_eigenbasis_rejects_a_perturbed_w_and_a_foreign_t(monkeypatch):
    # one symmetric off-diagonal pair of W off by 1e-6, or a diagonal T that is
    # not a multiple of I: the probe rejects either, and the solve sweeps in
    # the eigenbases of W and T
    from gadisolve import matrixeq
    base = gen_ex31(16, 0.01)
    W = base.W.tolil()
    W[3, 4] += 1e-6
    W[4, 3] += 1e-6
    T = sp.diags_array(np.random.default_rng(3).uniform(0.5, 1.5, 16), format="csr")
    made = []

    class Counted(matrixeq._EigenSweep):
        def __init__(self, *args):
            made.append(1)
            super().__init__(*args)
    monkeypatch.setattr(matrixeq, "_EigenSweep", Counted)
    assert matrixeq._joint_eigenbasis(base.W, base.T, dims=1) is not None
    for p in (LyapunovProblem(sp.csr_array(W), base.T, base.Q),
              LyapunovProblem(base.W, T, base.Q)):
        assert matrixeq._joint_eigenbasis(p.W, p.T, dims=1) is None
        made.clear()
        X, report = solve_lyapunov_gadi(p, config=SolveConfig(tol=1e-6, max_outer=500))
        assert made == [1] and report.converged
        assert lyapunov_residual(p, X) == report.final_res


@pytest.mark.parametrize("detect", [True, False], ids=["detected", "detection-off"])
def test_detected_lyapunov_solve_makes_no_eigensolve_and_no_eigen_sweep(monkeypatch, detect):
    from gadisolve import matrixeq
    calls = {"eigh": 0, "sweep": 0}
    eigh = matrixeq.sla.eigh

    def counted_eigh(*args, **kwargs):
        calls["eigh"] += 1
        return eigh(*args, **kwargs)

    class Counted(matrixeq._EigenSweep):
        def __init__(self, *args):
            calls["sweep"] += 1
            super().__init__(*args)
    monkeypatch.setattr(matrixeq.sla, "eigh", counted_eigh)
    monkeypatch.setattr(matrixeq, "_EigenSweep", Counted)
    if not detect:
        without_joint_eigenbasis(monkeypatch)
    p = gen_ex31(32, 0.1)
    for solver in (solve_lyapunov_gadi, solve_lyapunov_hss):
        X, report = solver(p, config=SolveConfig(tol=1e-6, max_outer=500))
        assert report.converged and lyapunov_residual(p, X) == report.final_res
    newton_initial_guess(gen_ex421(8))  # the shifted W + beta I is Toeplitz too
    # the eigen sweep makes two eigensolves per solve, of W and of T
    assert calls == ({"eigh": 0, "sweep": 0} if detect else {"eigh": 6, "sweep": 3})


# -- input validation ----------------------------------------------------------------

def _bad_data(which, kind):
    """ex421 data at n = 4 with one matrix made non-symmetric, or with the
    mirrored entries (1, 2) and (2, 1) both set to ``kind``."""
    p = gen_ex421(4)
    data = {"W": p.W.toarray(), "T": p.T.toarray(), "G": p.G, "Q": p.Q}
    M = data[which].copy()
    if kind == "nonsymmetric":
        M[0, 1] += 0.5
    else:
        M[1, 2] = M[2, 1] = kind
    data[which] = M
    return data


@pytest.mark.parametrize("which, kind, message", [
    ("W", "nonsymmetric", "W is not symmetric"),
    ("T", "nonsymmetric", "T is not symmetric"),
    ("W", np.inf, "W has non-finite entries"),
    ("T", np.nan, "T has non-finite entries"),
    ("G", np.nan, "G has non-finite entries"),
    ("Q", np.inf, "Q has non-finite entries"),
    # G and Q must be Hermitian: an entry off its mirror, or 0.5j on both
    ("G", "nonsymmetric", "G is not Hermitian"),
    ("Q", "nonsymmetric", "Q is not Hermitian"),
    ("G", 0.5j, "G is not Hermitian"),
    ("Q", 0.5j, "Q is not Hermitian"),
])
def test_problems_reject_bad_data(which, kind, message):
    data = _bad_data(which, kind)
    with pytest.raises(ValueError, match=f"^{message}$"):
        RiccatiProblem(data["W"], data["T"], data["G"], data["Q"])
    if which != "G":
        with pytest.raises(ValueError, match=f"^{message}$"):
            LyapunovProblem(data["W"], data["T"], data["Q"])
    if which in ("W", "T"):  # sparse storage is checked too
        with pytest.raises(ValueError, match=f"^{message}$"):
            LyapunovProblem(sp.csr_array(data["W"]), sp.csr_array(data["T"]), data["Q"])


def _each_problem(W, T):
    """Makers of a ComplexSymSystem, LyapunovProblem and RiccatiProblem on (W, T), n = 6."""
    I = np.eye(6)
    return (lambda: ComplexSymSystem(W, T, np.ones(6)), lambda: LyapunovProblem(W, T, I),
            lambda: RiccatiProblem(W, T, I, I))


@pytest.mark.parametrize("storage", [np.asarray, sp.csr_array], ids=["dense", "sparse"])
@pytest.mark.parametrize("which", ["W", "T"])
def test_problems_reject_a_w_or_t_with_an_imaginary_part(which, storage):
    # W and T are the real and imaginary parts of A = W + iT, and the
    # eigensolves of the shift and of the Lyapunov sweeps take them as real
    real, I = np.diag(np.arange(1.0, 7.0)) + 0.5 * np.ones((6, 6)), np.eye(6)
    for bad in (real + 0.5j * np.ones((6, 6)), real + 1e-300j * I):
        W, T = (bad, I) if which == "W" else (real, bad)
        for make in _each_problem(storage(W), storage(T)):
            with pytest.raises(ValueError, match=f"^{which} has a nonzero imaginary part$"):
                make()
    # a complex dtype with zero imaginary part is real data
    for make in _each_problem(storage(real.astype(complex)), storage(I.astype(complex))):
        make()


def test_problems_reject_empty_data():
    # n = 0 has no default shift and no residual norm: the data are refused
    empty = np.zeros((0, 0))
    for make in (lambda: ComplexSymSystem(empty, empty, np.zeros(0)),
                 lambda: LyapunovProblem(empty, empty, empty),
                 lambda: RiccatiProblem(empty, empty, empty, empty),
                 lambda: LyapunovProblem(sp.csr_array(empty), sp.csr_array(empty), empty)):
        with pytest.raises(ValueError, match="^W is empty: n must be at least 1$"):
            make()
