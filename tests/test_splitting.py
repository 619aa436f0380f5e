from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadisolve import (METHODS, ComplexSymSystem, SolveConfig, SplitParams,
                       build_iteration_matrices, default_alpha, gen_ex31,
                       gen_ex241, gen_ex242, run_stationary, solve_lyapunov_gadi,
                       solve_lyapunov_hss, step)
from helpers import dense_solution, random_system


def scalar_system():
    return ComplexSymSystem(np.array([[2.0]]), np.array([[1.0]]), np.array([1.0 + 0j]))


# -- hand-checked one-step values on the scalar system ------------------------

def test_step_gadi_scalar():
    sys1 = scalar_system()
    p = SplitParams("gadi", alpha=1.0, omega=1.0)
    x1 = step(sys1, p, np.zeros(1, dtype=complex))
    assert abs(x1[0] - (1 - 1j) / 6) <= 1e-15


def test_step_hss_scalar():
    x1 = step(scalar_system(), SplitParams("hss", 1.0), np.zeros(1, dtype=complex))
    assert abs(x1[0] - (1 - 1j) / 3) <= 1e-15


def test_step_mhss_scalar():
    x1 = step(scalar_system(), SplitParams("mhss", 1.0), np.zeros(1, dtype=complex))
    assert abs(x1[0] - (1 - 1j) / 6) <= 1e-15


def test_step_pmhss_scalar_v_equals_w():
    sys1 = scalar_system()
    p = SplitParams("pmhss", 1.0)
    x1 = step(sys1, p, np.zeros(1, dtype=complex))
    assert abs(x1[0] - (1 - 1j) / 6) <= 1e-15


def test_step_cri_scalar():
    x1 = step(scalar_system(), SplitParams("cri", 1.0), np.zeros(1, dtype=complex))
    assert abs(x1[0] - (2 - 1j) / 9) <= 1e-15


def test_step_tscsp_scalar():
    x1 = step(scalar_system(), SplitParams("tscsp", 1.0), np.zeros(1, dtype=complex))
    assert abs(x1[0] - (4 - 2j) / 9) <= 1e-15


def test_hss_is_gadi_at_zero_relaxation():
    # bit for bit, in the sweep, the linear solve and the Lyapunov solve
    rng = np.random.default_rng(12)
    system = random_system(rng, 6)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    hss, gadi = SplitParams("hss", 1.7), SplitParams("gadi", 1.7, 0.0)
    assert np.array_equal(step(system, hss, x), step(system, gadi, x))
    config = SolveConfig(tol=1e-10)
    assert (run_stationary(system, hss, config)[1].residual_history
            == run_stationary(system, gadi, config)[1].residual_history)
    problem = gen_ex31(8, 0.01)
    hss, gadi = SplitParams("hss", 0.5), SplitParams("gadi", 0.5, 0.0)
    assert (solve_lyapunov_hss(problem, hss)[1].residual_history
            == solve_lyapunov_gadi(problem, gadi)[1].residual_history)


# -- fixed points and one-step linearity --------------------------------------

@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("n", [2, 8, 32])
def test_exact_solution_is_fixed_point(method, n):
    rng = np.random.default_rng(100 + n)
    system = random_system(rng, n)
    xstar = dense_solution(system)
    params = SplitParams(method, alpha=1.9, omega=0.7)
    out = step(system, params, xstar)
    assert np.linalg.norm(out - xstar) <= 1e-11 * np.linalg.norm(xstar)


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
       alpha=st.floats(0.1, 10.0), omega=st.floats(0.0, 1.9))
def test_step_fixed_point_and_iterative_inner_mode(n, seed, alpha, omega):
    # every method, in exact mode from the dense solution and in iterative
    # (CG/COCG) mode against exact mode from a random start
    rng = np.random.default_rng(seed)
    system = random_system(rng, n)
    xstar = dense_solution(system)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    exact = SolveConfig(inner="exact")
    iterative = SolveConfig(inner="iterative")
    for method in METHODS:
        params = SplitParams(method, alpha, omega)
        out = step(system, params, xstar, exact)
        assert np.linalg.norm(out - xstar) <= 1e-10 * np.linalg.norm(xstar), method
        want = step(system, params, x, exact)
        # both half-steps solved to 1e-13, whatever the residual of x
        with mock.patch("gadisolve.splitting._inner_tol", lambda res: 1e-13):
            got = step(system, params, x, iterative)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want), method


def _affine_map(system, params):
    """Extract the dense iteration matrix and constant of one sweep."""
    n = system.n
    c = step(system, params, np.zeros(n, dtype=complex))
    M = np.empty((n, n), dtype=complex)
    for j in range(n):
        e = np.zeros(n, dtype=complex)
        e[j] = 1.0
        M[:, j] = step(system, params, e) - c
    return M, c


def test_gadi_matches_closed_form_iteration_matrix():
    rng = np.random.default_rng(21)
    system = random_system(rng, 6)
    params = SplitParams("gadi", alpha=2.3, omega=0.6)
    M, _ = _affine_map(system, params)
    pair = build_iteration_matrices(system, 2.3, 0.6)
    assert np.linalg.norm(M - pair.M_alpha_omega, "fro") <= 1e-11


def test_hss_matches_closed_form_iteration_matrix():
    rng = np.random.default_rng(22)
    system = random_system(rng, 6)
    params = SplitParams("hss", alpha=1.4)
    M, _ = _affine_map(system, params)
    pair = build_iteration_matrices(system, 1.4, 0.0)
    assert np.linalg.norm(M - pair.T_alpha, "fro") <= 1e-11


@pytest.mark.parametrize("method", ["mhss", "pmhss", "cri", "tscsp"])
def test_two_step_methods_match_dense_composition(method):
    rng = np.random.default_rng(23)
    n = 5
    system = random_system(rng, n)
    W = system.W if isinstance(system.W, np.ndarray) else system.W.toarray()
    T = system.T if isinstance(system.T, np.ndarray) else system.T.toarray()
    a = 1.6
    I = np.eye(n)
    if method == "mhss":
        L = np.linalg.solve(a * I + T, (a * I + 1j * W) @ np.linalg.solve(a * I + W, a * I - 1j * T))
    elif method == "pmhss":  # V = W default
        L = np.linalg.solve(a * W + T, (a * W + 1j * W) @ np.linalg.solve(a * W + W, a * W - 1j * T))
    elif method == "cri":
        L = np.linalg.solve(a * W + T, (a + 1j) * W @ np.linalg.solve(a * T + W, (a - 1j) * T))
    else:  # tscsp
        L = np.linalg.solve(a * T + W, 1j * (a * W - T) @ np.linalg.solve(a * W + T, 1j * (W - a * T)))
    params = SplitParams(method, alpha=a)
    M, _ = _affine_map(system, params)
    assert np.linalg.norm(M - L, "fro") <= 1e-12 * max(1.0, np.linalg.norm(L, "fro"))


# -- driver --------------------------------------------------------------------

def test_sweep_starts_at_solution_without_factorizing(monkeypatch):
    # the sweep loop every solver runs: a start that already meets tol
    from gadisolve import splitting
    made = []

    class Counted(splitting.DirectSolver):
        def __init__(self, M):
            made.append(M.shape)
            super().__init__(M)
    monkeypatch.setattr(splitting, "DirectSolver", Counted)
    rng = np.random.default_rng(41)
    system = random_system(rng, 10)
    xstar = dense_solution(system)
    p = SplitParams("gadi", alpha=2.0, omega=0.5)
    nb = np.linalg.norm(system.b)
    x, report = splitting._sweep(
        lambda: splitting._make_step(system, p, SolveConfig(inner="exact")),
        lambda x: float(np.linalg.norm(system.b - system.matvec(x)) / nb),
        xstar, 1e-6, 1000)
    assert report.iterations == 0
    assert report.final_res <= 1e-12
    assert report.converged
    assert made == []


def test_residual_history_invariants():
    rng = np.random.default_rng(42)
    system = random_system(rng, 8)
    p = SplitParams("gadi", alpha=default_alpha(system, "gadi"), omega=0.01)
    x, report = run_stationary(system, p, SolveConfig(tol=1e-8, max_outer=500))
    assert report.converged
    assert len(report.residual_history) == report.iterations + 1
    assert report.residual_history[0][0] == 0
    assert report.residual_history[0][1] == 1.0  # zero initial guess
    assert report.residual_history[-1][1] == report.final_res


def test_max_outer_reached_is_not_an_error():
    rng = np.random.default_rng(43)
    system = random_system(rng, 8)
    p = SplitParams("mhss", alpha=default_alpha(system, "mhss"))
    x, report = run_stationary(system, p, SolveConfig(tol=1e-14, max_outer=2))
    assert not report.converged
    assert report.iterations == 2


def test_zero_rhs_rejected():
    system = ComplexSymSystem(np.eye(2), np.zeros((2, 2)), np.zeros(2, dtype=complex))
    with pytest.raises(ValueError):
        run_stationary(system, SplitParams("gadi", 1.0), SolveConfig())


def _bad_system_data(which, value):
    """ex241 data at m = 3 with one entry of W, T or b set to `value`."""
    system = gen_ex241(3, "h")
    data = {"W": system.W.toarray(), "T": system.T.toarray(), "b": system.b.copy()}
    if which == "b":
        data["b"][4] = value
    else:
        data[which][1, 2] = data[which][2, 1] = value
    return data


@pytest.mark.parametrize("which, value", [("W", np.inf), ("W", np.nan), ("T", np.nan),
                                          ("T", -np.inf), ("b", np.nan), ("b", np.inf),
                                          ("b", complex(1.0, np.nan))])
def test_system_rejects_non_finite_data(which, value):
    import scipy.sparse as sp
    data = _bad_system_data(which, value)
    message = f"^{which} has non-finite entries$"
    with pytest.raises(ValueError, match=message):
        ComplexSymSystem(data["W"], data["T"], data["b"])
    with pytest.raises(ValueError, match=message):  # sparse storage is checked too
        ComplexSymSystem(sp.csr_array(data["W"]), sp.csr_array(data["T"]), data["b"])


def test_system_rejects_bad_shapes_and_asymmetry():
    data = _bad_system_data("W", 0.5)
    W, T, b = data["W"], data["T"], data["b"]
    with pytest.raises(ValueError, match="^T must be 9x9, got \\(8, 8\\)$"):
        ComplexSymSystem(W, T[:8, :8], b)
    with pytest.raises(ValueError, match="^W must be 9x9, got \\(9, 8\\)$"):
        ComplexSymSystem(W[:, :8], T, b)
    with pytest.raises(ValueError, match="^b has shape"):
        ComplexSymSystem(W, T, b[:8])
    W[0, 1] += 0.25
    with pytest.raises(ValueError, match="^W is not symmetric$"):
        ComplexSymSystem(W, T, b)


def test_parabolic_grid_m8_tuned_gadi_under_10_iterations():
    # reference iteration count for this row is 5
    system = gen_ex241(8, "h", stencil="unit")
    alpha = default_alpha(system, "gadi")
    p = SplitParams("gadi", alpha=alpha, omega=0.01)
    x, report = run_stationary(system, p, SolveConfig(tol=1e-5, max_outer=100))
    assert report.converged
    assert report.iterations <= 10


def test_helmholtz_n64_gadi_under_8_iterations():
    # reference iteration count for this row is 4
    system = gen_ex242(8, stencil="unit")
    alpha = default_alpha(system, "gadi")
    p = SplitParams("gadi", alpha=alpha, omega=0.01)
    x, report = run_stationary(system, p, SolveConfig(tol=1e-5, max_outer=100))
    assert report.converged
    assert report.iterations <= 8


def test_gadi_converges_for_random_parameters():
    # relaxed-parameter convergence guarantee: any alpha > 0, omega in [0, 2).
    # As omega -> 2 the contraction factor tends to 1, so the iteration budget
    # is derived from the certified spectral radius (with a 20 n floor).
    from gadisolve import spectral_radius
    rng = np.random.default_rng(45)
    for trial in range(20):
        n = int(rng.integers(2, 17))
        system = random_system(rng, n, t_zero=bool(rng.integers(0, 2)))
        alpha = float(rng.uniform(1e-3, 10.0))
        omega = float(rng.uniform(0.0, 2.0))
        rho = spectral_radius(build_iteration_matrices(system, alpha, omega).M_alpha_omega)
        assert rho < 1.0, (trial, n, alpha, omega, rho)
        budget = max(20 * n, int(np.ceil(np.log(1e-8) / np.log(rho))) + 20)
        p = SplitParams("gadi", alpha=alpha, omega=omega)
        x, report = run_stationary(system, p, SolveConfig(tol=1e-8, max_outer=budget))
        assert report.converged, (trial, n, alpha, omega, rho, report.final_res)


def test_iterative_inner_mode_matches_exact():
    rng = np.random.default_rng(46)
    system = random_system(rng, 12)
    p = SplitParams("gadi", alpha=default_alpha(system, "gadi"), omega=0.01)
    x_exact, rep_exact = run_stationary(system, p, SolveConfig(tol=1e-8, inner="exact"))
    x_iter, rep_iter = run_stationary(system, p, SolveConfig(tol=1e-8, inner="iterative"))
    assert rep_iter.converged
    assert rep_iter.inner_iteration_total > 0
    assert rep_exact.inner_iteration_total == 0
    assert np.linalg.norm(x_iter - x_exact) <= 1e-6 * np.linalg.norm(x_exact)


def test_inner_failure_carries_partial_history(monkeypatch):
    from gadisolve import InnerSolverError, splitting

    def fail(M, b, rel_tol, max_it):
        raise InnerSolverError("no convergence", iterations=max_it)
    monkeypatch.setattr(splitting, "cg_hpd", fail)
    monkeypatch.setattr(splitting, "cocg_sym", fail)
    rng = np.random.default_rng(47)
    system = random_system(rng, 16)
    p = SplitParams("gadi", alpha=default_alpha(system, "gadi"), omega=0.01)
    cfg = SolveConfig(tol=1e-10, inner="iterative")
    with pytest.raises(InnerSolverError) as info:
        run_stationary(system, p, cfg)
    err = info.value
    assert err.half_step in ("first half-step", "second half-step")
    assert err.report is not None
    assert len(err.report.residual_history) >= 1
    assert err.report.residual_history[0] == (0, 1.0)  # zero initial guess


def test_default_alpha_rules():
    rng = np.random.default_rng(49)
    system = random_system(rng, 6)
    bound = default_alpha(system, "gadi")
    assert default_alpha(system, "hss") == default_alpha(system, "mhss") == bound
    assert default_alpha(system, "pmhss") == default_alpha(system, "cri") == 1.0
    with pytest.raises(ValueError):
        default_alpha(system, "nope")


def test_default_alpha_eigensolves_each_system_once(monkeypatch):
    from gadisolve import splitting
    calls = []
    original = splitting.eig_extremes_spd

    def counted(W, *args, **kwargs):
        calls.append(W.shape)
        return original(W, *args, **kwargs)
    monkeypatch.setattr(splitting, "eig_extremes_spd", counted)
    system = gen_ex241(m=4, tau_mode="h")
    assert len({default_alpha(system, method) for method in ("gadi", "hss", "mhss")}) == 1
    assert len(calls) == 1


def test_exact_solves_at_one_shift_share_one_factor_pair(monkeypatch):
    import gc
    import weakref

    from gadisolve import linalg, splitting
    made, alive = [], weakref.WeakSet()

    class Tracked(linalg.DirectSolver):
        def __init__(self, M):
            super().__init__(M)
            made.append(M.shape)
            alive.add(self)
    monkeypatch.setattr(splitting, "DirectSolver", Tracked)
    config = SolveConfig(tol=1e-8, inner="exact")
    system = gen_ex241(m=4, tau_mode="h")
    alpha = default_alpha(system, "gadi")
    run_stationary(system, SplitParams("gadi", alpha, 0.01), config)
    x, report = run_stationary(system, SplitParams("gadi", alpha, 0.1), config)
    run_stationary(system, SplitParams("hss", alpha), config)  # gadi's builder at w = 0
    assert len(made) == 2
    fresh_x, fresh = run_stationary(gen_ex241(m=4, tau_mode="h"),
                                    SplitParams("gadi", alpha, 0.1), config)
    assert np.array_equal(x, fresh_x)
    assert report.residual_history == fresh.residual_history
    run_stationary(system, SplitParams("gadi", 2 * alpha, 0.1), config)
    gc.collect()
    assert len(made) == 6 and len(alive) == 2  # the slot holds the new shift's pair only


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        SplitParams("gadi", alpha=-1.0)
    with pytest.raises(ValueError):
        SplitParams("gadi", alpha=1.0, omega=2.0)
    with pytest.raises(ValueError):
        SplitParams("nope", alpha=1.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="alpha must be"):
            SplitParams("gadi", alpha=bad)
        with pytest.raises(ValueError, match="tol must be"):
            SolveConfig(tol=bad)


def test_relaxation_is_omega_for_gadi_only():
    assert SplitParams("gadi", 1.0, 0.5).relaxation == 0.5
    for method in METHODS:
        if method != "gadi":
            assert SplitParams(method, 1.0, 0.5).relaxation == 0.0
