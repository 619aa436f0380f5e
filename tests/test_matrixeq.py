import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solve_continuous_are

from gadisolve import (LyapunovProblem, NewtonState, NotPositiveDefiniteError,
                       ProblemSpec, RiccatiProblem, SolveConfig, SplitParams,
                       build_newton_lift, gen_ex31, gen_ex421, lift_lyapunov,
                       lyapunov_residual, newton_gadi_riccati,
                       newton_initial_guess, riccati_residual,
                       solve_lyapunov_gadi, solve_lyapunov_hss, unvec, vec)
from helpers import match_multisets, random_psd, random_spd, symmetrize


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


def test_reference_riccati_row_n8():
    # reference row: 33 cumulative sweeps at residual 7.485e-06
    p = gen_ex421(8)
    result = newton_gadi_riccati(p, outer_tol=1e-5, inner_forcing=(0.1, 0.1))
    assert result.converged
    assert result.final_res <= 1e-5
    assert result.inner_iteration_total <= 50


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


def test_newton_early_exit_at_exact_solution():
    p = gen_ex421(4)
    A = p.dense_A()
    Xs = solve_continuous_are(A, np.eye(4, dtype=complex), p.Q, np.linalg.inv(p.G))
    result = newton_gadi_riccati(p, outer_tol=1e-6, max_outer=10, x0=Xs)
    assert result.converged
    assert result.outer_iterations == 0
    assert np.array_equal(result.X, Xs)


@pytest.mark.parametrize("kwargs", [
    {"outer_tol": np.inf}, {"max_outer": -2},
    {"inner_forcing": (-1.0, 0.1)}, {"inner_forcing": (np.nan, 0.1)},
    {"inner_forcing": (0.1, 0.0)}, {"inner_forcing": (0.1, np.inf)},
], ids=["outer_tol=inf", "max_outer=-2", "eta_max=-1", "eta_max=nan", "eta_fac=0",
        "eta_fac=inf"])
def test_newton_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError) as info:
        newton_gadi_riccati(gen_ex421(8), **kwargs)
    assert "\n" not in str(info.value)


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
    from gadisolve import bench, eig_extremes_spd, optimal_alpha
    from gadisolve.matrixeq import _eigh, _lift_shift
    p = gen_ex31(n, 0.01)
    alpha = _lift_shift(_eigh(p.W)[0])
    assert abs(alpha - optimal_alpha(eig_extremes_spd(lift_lyapunov(p).w_lift))) <= 1e-10
    assert bench._auto_alpha(ProblemSpec("ex31", n=n, t=0.01), p, "gadi") == alpha


def test_default_shift_rejects_indefinite_W():
    p = LyapunovProblem(np.diag([1.0, -1.0]), np.zeros((2, 2)), np.eye(2, dtype=complex))
    with pytest.raises(NotPositiveDefiniteError):
        solve_lyapunov_gadi(p)


# -- input validation ----------------------------------------------------------------

def _bad_data(which, kind):
    """ex421 data at n = 4 with one matrix made non-symmetric or non-finite."""
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
