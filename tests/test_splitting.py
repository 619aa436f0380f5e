from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gadisolve import (METHODS, ComplexSymSystem, SolveConfig, SplitParams,
                       build_iteration_matrices, default_alpha, gen_ex31,
                       gen_ex241, gen_ex242, run_stationary, solve_lyapunov_gadi,
                       solve_lyapunov_hss, step)
from helpers import dense_solution, random_system, without_joint_eigenbasis


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


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       alpha=st.floats(0.1, 10.0), omega=st.floats(0.0, 1.99))
def test_a_sweep_is_the_affine_map_of_its_dense_iteration_matrix(n, seed, alpha, omega):
    # GADI's sweep x -> M x + c has M = M(alpha, omega) = ((2 - w) T(alpha) + w I) / 2,
    # HSS's has M = T(alpha), and both fix the solution x*
    system = random_system(np.random.default_rng(seed), n)
    pair = build_iteration_matrices(system, alpha, omega)
    M, c = _affine_map(system, SplitParams("gadi", alpha, omega))
    H, d = _affine_map(system, SplitParams("hss", alpha))
    relaxed = 0.5 * ((2 - omega) * pair.T_alpha + omega * np.eye(n))
    for got, want in ((M, pair.M_alpha_omega), (M, relaxed), (H, pair.T_alpha)):
        assert np.linalg.norm(got - want) <= 1e-10
    xstar = dense_solution(system)
    for got, const in ((M, c), (H, d)):
        assert np.linalg.norm(got @ xstar + const - xstar) <= 1e-10 * np.linalg.norm(xstar)


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
        lambda: splitting._make_step(system.W, system.T, system.b, p, "exact"),
        lambda x: float(np.linalg.norm(system.b - system.matvec(x)) / nb),
        xstar, 1e-6, 1000)
    assert report.iterations == 0
    assert report.final_res <= 1e-12
    assert report.converged
    assert made == []


def test_sweep_stops_at_a_step_that_returns_its_input():
    # a step that hands back its own input is at a fixed point: the loop
    # records that sweep at the same residual and stops short of max_sweeps
    from gadisolve import splitting
    calls = []

    def step(x, res):
        calls.append(res)
        return (x if len(calls) == 3 else x + 1.0), 1
    x0 = np.zeros(1)
    x, report = splitting._sweep(lambda: step, lambda x: 1.0 / (1.0 + x[0]), x0, 1e-6, 10)
    assert len(calls) == 3
    assert report.iterations == 3 and report.inner_iteration_total == 3
    assert report.residual_history == [(0, 1.0), (1, 0.5), (2, 1 / 3), (3, 1 / 3)]
    assert report.final_res == 1 / 3
    assert not report.converged
    assert x[0] == 2.0 and x is not x0


def test_a_zero_warm_start_correction_returns_a_new_object():
    # the second half-step's previous solution is the sweep's input, so
    # handing it back would read as a fixed point to the sweep loop
    from gadisolve import splitting
    rng = np.random.default_rng(43)
    system = random_system(rng, 6)
    step_ = splitting._make_step(system.W, system.T, np.zeros(6, complex),
                                 SplitParams("gadi", 1.0), "iterative")
    x1, _ = step_(np.zeros(6, complex), 1.0)
    x2, inner = step_(x1, 1.0)  # both corrections are exactly zero
    assert inner == 0 and not x2.any()
    assert x2 is not x1


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


SPARSE_FORMATS = [getattr(sp, f"{name}_{kind}") for kind in ("array", "matrix")
                  for name in ("csr", "csc", "coo", "dia", "lil", "dok", "bsr")]


def _noncanonical_csr(n, entries):
    """A CSR array holding ``entries`` (i, j, v) as given: within a row in
    their drawn order, duplicates and explicit zeros kept."""
    entries = sorted(entries, key=lambda e: e[0])  # stable: each row keeps its order
    indptr = np.searchsorted([i for i, _, _ in entries], np.arange(n + 1))
    return sp.csr_array((np.array([v for *_, v in entries], float),
                         np.array([j for _, j, _ in entries], np.int32), indptr), shape=(n, n))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data(), n=st.integers(1, 5), mirror=st.booleans(),
       fmt=st.sampled_from(SPARSE_FORMATS))
def test_the_sparse_symmetry_check_is_the_dense_one(data, n, mirror, fmt):
    from gadisolve.splitting import _is_exactly_symmetric
    value = st.one_of(st.sampled_from((0.0, 1.0, -1.0, 1e-300, -1e-300)), st.floats(-1e3, 1e3))
    entry = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), value)
    entries = data.draw(st.lists(entry, max_size=12))
    if mirror:
        entries += [(j, i, v) for i, j, v in entries]
    entries += data.draw(st.lists(entry, max_size=1))  # perhaps one more, off its mirror
    entries = data.draw(st.permutations(entries))
    M = _noncanonical_csr(n, entries)
    dense = M.toarray()
    assert _is_exactly_symmetric(M) == np.array_equal(dense, dense.T)
    assert _is_exactly_symmetric(fmt(M)) == np.array_equal(dense, dense.T)


def test_a_one_entry_asymmetry_of_1e_300_is_seen():
    from gadisolve.splitting import _is_exactly_symmetric
    M = _noncanonical_csr(3, [(0, 1, 2.0), (1, 0, 2.0), (2, 0, 1e-300), (1, 1, 0.0)])
    for fmt in SPARSE_FORMATS:
        assert not _is_exactly_symmetric(fmt(M))
    assert _is_exactly_symmetric(_noncanonical_csr(2, [(1, 0, 1e-300), (0, 0, 1.0),
                                                       (0, 1, 1e-300)]))


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


@pytest.mark.parametrize("system", [gen_ex241(m=12, tau_mode="500h", stencil="unit"),
                                    random_system(np.random.default_rng(50), 9)],
                         ids=["sparse", "dense"])
def test_complex_cast_coefficients_give_bit_identical_products(system):
    # the iterative half-steps cast a real coefficient to complex once; a
    # product must not move by a bit for it
    from gadisolve import splitting
    rng = np.random.default_rng(51)
    I = splitting._eye_like(system.W, system.n)
    for method in METHODS:
        M1, _, M2, _, _, _ = splitting._METHODS[method][1](
            system.W, system.T, system.b, I, 1.7, 0.3)
        for M in (M1, M2):
            Mc = M.astype(complex)
            for _ in range(5):
                v = rng.standard_normal(system.n) + 1j * rng.standard_normal(system.n)
                assert np.array_equal(M @ v, Mc @ v), method


def test_warm_started_inner_failure_carries_the_half_step_iterate(monkeypatch):
    # a Krylov failure on the second sweep's warm-started first half-step
    # reports the half-step iterate x_prev + d, not the correction d alone
    from gadisolve import InnerSolverError, splitting
    original, solutions = splitting.cg_hpd, []
    partial = np.full(64, 0.5 - 0.25j)

    def second_fails(M, b, rel_tol, max_it):
        if solutions:
            raise InnerSolverError("no convergence", x=partial, iterations=7)
        solutions.append(original(M, b, rel_tol=rel_tol, max_it=max_it)[0])
        return solutions[0], 1
    monkeypatch.setattr(splitting, "cg_hpd", second_fails)
    system = gen_ex241(m=8, tau_mode="500h", stencil="unit")
    p = SplitParams("gadi", alpha=default_alpha(system, "gadi"))
    with pytest.raises(InnerSolverError) as info:
        run_stationary(system, p, SolveConfig(tol=1e-10, inner="iterative"))
    err = info.value
    assert np.array_equal(err.x, solutions[0] + partial)
    assert err.half_step == "first half-step"
    assert err.report.iterations == 1
    assert [k for k, _ in err.report.residual_history] == [0, 1]


@pytest.mark.parametrize("method", METHODS)
def test_warm_started_half_steps_meet_the_cold_absolute_target(monkeypatch, method):
    # every half-step solution x of M x = rhs meets ||rhs - M x|| <=
    # _inner_tol(res) ||rhs||, res the residual the sweep started from, though
    # from the second sweep on the Krylov solver sees only the correction
    from gadisolve import splitting
    seen = {"x": [], "rhs1": [], "xh": [], "rhs2": [], "krylov_rhs": []}
    shift, data = splitting._METHODS[method]

    def recorded(*args):
        M1, k1, M2, k2, rhs1, rhs2 = data(*args)
        seen["M"] = (M1, M2)

        def r1(x):
            seen["x"].append(x)
            seen["rhs1"].append(rhs1(x))
            return seen["rhs1"][-1]

        def r2(x, xh):
            seen["xh"].append(xh)
            seen["rhs2"].append(rhs2(x, xh))
            return seen["rhs2"][-1]
        return M1, k1, M2, k2, r1, r2

    def krylov(original):
        def wrapped(M, b, rel_tol, max_it):
            seen["krylov_rhs"].append(b)
            return original(M, b, rel_tol=rel_tol, max_it=max_it)
        return wrapped
    monkeypatch.setitem(splitting._METHODS, method, (shift, recorded))
    monkeypatch.setattr(splitting, "cg_hpd", krylov(splitting.cg_hpd))
    monkeypatch.setattr(splitting, "cocg_sym", krylov(splitting.cocg_sym))
    system = gen_ex241(m=16, tau_mode="500h", stencil="unit")
    p = SplitParams(method, alpha=default_alpha(system, method))
    x, report = run_stationary(system, p, SolveConfig(tol=1e-6, inner="iterative"))
    assert report.converged and report.iterations >= 3
    M1, M2 = seen["M"]
    xn = seen["x"][1:] + [x]
    for k in range(report.iterations):
        tol = splitting._inner_tol(report.residual_history[k][1])
        for M, rhs, sol in ((M1, seen["rhs1"][k], seen["xh"][k]),
                            (M2, seen["rhs2"][k], xn[k])):
            assert np.linalg.norm(rhs - M @ sol) <= tol * np.linalg.norm(rhs), (k, method)
    # the first sweep is cold; every later Krylov solve is of a correction
    krylov_rhs = seen["krylov_rhs"]
    assert krylov_rhs[0] is seen["rhs1"][0] and krylov_rhs[1] is seen["rhs2"][0]
    later = seen["rhs1"][1:] + seen["rhs2"][1:]
    assert {id(b) for b in krylov_rhs[2:]}.isdisjoint(id(rhs) for rhs in later)


def test_warm_started_iterative_mode_keeps_the_exact_sweep_counts():
    # warm-starting cuts the Krylov steps, not the sweeps: at ex241 m = 32,
    # 500h every method sweeps as often as in exact mode, and GADI takes at
    # most 800 Krylov steps (1603 when every half-step started from zero)
    system = gen_ex241(m=32, tau_mode="500h", stencil="unit")
    for method in METHODS:
        p = SplitParams(method, alpha=default_alpha(system, method))
        _, exact = run_stationary(system, p, SolveConfig(tol=1e-5, inner="exact"))
        _, iterative = run_stationary(system, p, SolveConfig(tol=1e-5, inner="iterative"))
        assert iterative.converged and iterative.iterations == exact.iterations, method
        if method == "gadi":
            assert iterative.inner_iteration_total <= 800


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
    without_joint_eigenbasis(monkeypatch)
    calls = []
    original = splitting.eig_extremes_spd

    def counted(W, *args, **kwargs):
        calls.append(W.shape)
        return original(W, *args, **kwargs)
    monkeypatch.setattr(splitting, "eig_extremes_spd", counted)
    system = gen_ex241(m=4, tau_mode="h")
    assert len({default_alpha(system, method) for method in ("gadi", "hss", "mhss")}) == 1
    assert len(calls) == 1


def test_exact_solves_keep_no_factors(monkeypatch):
    import dataclasses
    import gc
    import weakref

    from gadisolve import linalg, splitting
    without_joint_eigenbasis(monkeypatch)
    made, alive = [], weakref.WeakSet()

    class Tracked(linalg.DirectSolver):
        def __init__(self, M):
            super().__init__(M)
            made.append(M.shape)
            alive.add(self)
    monkeypatch.setattr(splitting, "DirectSolver", Tracked)
    assert [f.name for f in dataclasses.fields(ComplexSymSystem)] == ["W", "T", "b"]
    config = SolveConfig(tol=1e-8, inner="exact")
    system = gen_ex241(m=4, tau_mode="h")
    alpha = default_alpha(system, "gadi")
    # two solves on one system are those of fresh systems, bit for bit
    for omega in (0.01, 0.1):
        x, report = run_stationary(system, SplitParams("gadi", alpha, omega), config)
        fresh_x, fresh = run_stationary(gen_ex241(m=4, tau_mode="h"),
                                        SplitParams("gadi", alpha, omega), config)
        assert np.array_equal(x, fresh_x)
        assert report.residual_history == fresh.residual_history
    gc.collect()
    assert len(made) == 8 and len(alive) == 0  # no factor outlives its solve


# -- the joint sine eigenbasis of W and T --------------------------------------

@pytest.mark.parametrize("m", [1, 5, 8])
@pytest.mark.parametrize("stencil", ["unit", "h2"])
def test_joint_eigenbasis_is_detected_on_both_families(m, stencil):
    for system in (gen_ex241(m, "h", stencil), gen_ex241(m, "500h", stencil),
                   gen_ex242(m, stencil=stencil)):
        lam, mu, S1 = system.joint_eigenbasis
        assert np.allclose(S1 @ S1, np.eye(m), rtol=0, atol=1e-14)
        for d, M in ((lam, system.W), (mu, system.T)):
            ev = np.linalg.eigvalsh(M.toarray())
            assert np.allclose(np.sort(d), ev, rtol=1e-12, atol=0)


def test_detected_solve_maps_its_answer_back():
    system = gen_ex241(8, "500h", stencil="unit")
    for method in METHODS:
        x, report = run_stationary(system, SplitParams(method, default_alpha(system, method)),
                                   SolveConfig(tol=1e-8, inner="exact"))
        res = np.linalg.norm(system.b - system.matvec(x)) / np.linalg.norm(system.b)
        assert report.converged and abs(res - report.final_res) <= 1e-6 * report.final_res
        assert np.linalg.norm(x - dense_solution(system)) <= 1e-6 * np.linalg.norm(x)


def _sparse_solves(monkeypatch, system):
    """The factorizations an exact GADI solve of ``system`` makes, and its report."""
    from gadisolve import linalg, splitting
    made = []

    class Counted(linalg.DirectSolver):
        def __init__(self, M):
            made.append(M.shape)
            super().__init__(M)
    monkeypatch.setattr(splitting, "DirectSolver", Counted)
    report = run_stationary(system, SplitParams("gadi", default_alpha(system, "gadi")),
                            SolveConfig(tol=1e-6, inner="exact"))[1]
    return made, report


def test_joint_eigenbasis_rejects_a_perturbed_w(monkeypatch):
    # one symmetric off-diagonal pair off by 1e-6: the probe ratio is 8e-9,
    # against the 1e-12 it must not exceed and 1.5e-15 for the family itself
    base = gen_ex241(8, "h", stencil="unit")
    W = base.W.tolil()
    W[3, 4] += 1e-6
    W[4, 3] += 1e-6
    system = ComplexSymSystem(sp.csr_array(W), base.T, base.b)
    assert base.joint_eigenbasis is not None and system.joint_eigenbasis is None
    made, report = _sparse_solves(monkeypatch, system)
    assert len(made) == 2 and report.converged


def test_joint_eigenbasis_rejects_a_t_it_does_not_diagonalize(monkeypatch):
    base = gen_ex242(8, stencil="unit")
    T = sp.diags_array(np.random.default_rng(3).uniform(0.5, 1.5, 64), format="csr")
    system = ComplexSymSystem(base.W, T, base.b)
    assert system.joint_eigenbasis is None
    made, report = _sparse_solves(monkeypatch, system)
    assert len(made) == 2 and report.converged


def test_joint_eigenbasis_needs_a_square_dimension(monkeypatch):
    n = 10  # the 1-D Laplacian, which the 1-D DST-I would diagonalize
    W = sp.diags_array([-np.ones(n - 1), 2.5 * np.ones(n), -np.ones(n - 1)], offsets=[-1, 0, 1],
                       format="csr")
    system = ComplexSymSystem(W, W, np.ones(n, dtype=complex))
    assert system.joint_eigenbasis is None
    made, report = _sparse_solves(monkeypatch, system)
    assert len(made) == 2 and report.converged


def test_detected_indefinite_w_raises_not_positive_definite():
    from gadisolve import NotPositiveDefiniteError
    system = gen_ex242(8, sigma1=-5.0, stencil="unit")
    assert system.joint_eigenbasis is not None
    with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
        system.bound_shift
    with pytest.raises(NotPositiveDefiniteError):
        default_alpha(system, "gadi")


# -- the modal solve of a detected system ---------------------------------------

MODAL_FAMILIES = {
    "ex241-h": lambda m: gen_ex241(m, "h", stencil="unit"),
    "ex241-500h": lambda m: gen_ex241(m, "500h", stencil="unit"),
    "ex242": lambda m: gen_ex242(m, stencil="unit"),
}
MODAL_CONFIG = SolveConfig(tol=1e-5, max_outer=200, inner="exact")


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(method=st.sampled_from(METHODS), family=st.sampled_from(sorted(MODAL_FAMILIES)),
       m=st.integers(1, 6), index=st.integers(0, 20),
       omega=st.sampled_from([0.0, 0.5, 1.0, 1.5]) | st.floats(0.0, 2.0, exclude_max=True))
def test_modal_solve_matches_the_sparse_path(method, family, m, index, omega):
    # a detected system sweeps its modal residual alone; the sparse path
    # factorizes and sweeps x, at the same shift. Its RES = ||b - A x|| / ||b||
    # carries an absolute rounding error of a few eps (up to 3e-16 beyond the
    # relative bound over m <= 6), hence the floor of 1e-14
    from gadisolve.bench import _auto_grid
    system = MODAL_FAMILIES[family](m)
    assert system.joint_eigenbasis is not None
    params = SplitParams(method, float(_auto_grid(default_alpha(system, method))[index]), omega)
    x, modal = run_stationary(system, params, MODAL_CONFIG)
    with pytest.MonkeyPatch.context() as patch:
        without_joint_eigenbasis(patch)
        x_sparse, sparse = run_stationary(MODAL_FAMILIES[family](m), params, MODAL_CONFIG)
    assert (modal.iterations, modal.converged) == (sparse.iterations, sparse.converged)
    assert abs(modal.final_res - sparse.final_res) <= 1e-9 * sparse.final_res + 1e-14
    assert np.linalg.norm(x - x_sparse) <= 1e-9 * np.linalg.norm(x_sparse)


@pytest.mark.parametrize("system", [gen_ex241(32, "h", stencil="unit"),
                                    gen_ex241(32, "500h", stencil="unit"),
                                    gen_ex242(32, stencil="unit")],
                         ids=["ex241-h", "ex241-500h", "ex242"])
def test_modal_solve_returns_the_x_of_its_reported_res(system):
    # the answer is formed once from the sweep count: it must be the iterate
    # whose residual the report gives, not one sweep short of it
    nb = np.linalg.norm(system.b)
    for method in METHODS:
        x, report = run_stationary(system, SplitParams(method, default_alpha(system, method)),
                                   SolveConfig(tol=1e-5, inner="exact"))
        true_res = np.linalg.norm(system.b - system.matvec(x)) / nb
        assert report.converged and abs(true_res - report.final_res) <= 1e-13, method


# -- "auto" inner mode on a detected system --------------------------------------

ABOVE_EXACT_LIMIT = {  # m = 65: n = 4225 > EXACT_INNER_LIMIT = 4096
    "ex241-500h": lambda: gen_ex241(65, "500h", stencil="unit"),
    "ex242": lambda: gen_ex242(65, stencil="unit"),
}


def _no_krylov(M, b, rel_tol, max_it):
    raise AssertionError("a CG/COCG half-step ran")


def _forbid_krylov(monkeypatch):
    from gadisolve import splitting
    monkeypatch.setattr(splitting, "cg_hpd", _no_krylov)
    monkeypatch.setattr(splitting, "cocg_sym", _no_krylov)


@pytest.mark.parametrize("family", sorted(ABOVE_EXACT_LIMIT))
def test_auto_takes_the_closed_form_above_the_exact_limit(family):
    # the closed form factorizes nothing, so "auto" takes it at every n and
    # returns the bits of "exact"; only "iterative" keeps CG/COCG for it
    from gadisolve import splitting
    system = ABOVE_EXACT_LIMIT[family]()
    assert system.n > splitting.EXACT_INNER_LIMIT and system.joint_eigenbasis is not None
    for method in METHODS:
        params = SplitParams(method, default_alpha(system, method))
        x_exact, exact = run_stationary(system, params, SolveConfig(tol=1e-5, inner="exact"))
        with pytest.MonkeyPatch.context() as patch:
            _forbid_krylov(patch)
            x, auto = run_stationary(system, params, SolveConfig(tol=1e-5, inner="auto"))
        assert np.array_equal(x, x_exact), method
        assert auto.iterations == exact.iterations, method
        assert auto.residual_history == exact.residual_history, method
        assert auto.converged and auto.inner_iteration_total == 0, method
        iterative = run_stationary(system, params,
                                   SolveConfig(tol=1e-5, max_outer=2, inner="iterative"))[1]
        assert iterative.inner_iteration_total > 0, method


def test_auto_keeps_krylov_for_a_system_without_joint_eigenbasis(monkeypatch):
    # above a lowered limit "auto" is the closed form for a detected system
    # and CG/COCG for one the probe rejects
    from gadisolve import splitting
    monkeypatch.setattr(splitting, "EXACT_INNER_LIMIT", 16)
    config = SolveConfig(tol=1e-5, inner="auto")
    detected = gen_ex241(8, "500h", stencil="unit")
    with pytest.MonkeyPatch.context() as patch:
        _forbid_krylov(patch)
        for method in METHODS:
            report = run_stationary(detected, SplitParams(method, default_alpha(detected, method)),
                                    config)[1]
            assert report.converged and report.inner_iteration_total == 0, method
    without_joint_eigenbasis(monkeypatch)
    rejected = gen_ex241(8, "500h", stencil="unit")
    assert rejected.joint_eigenbasis is None
    for method in METHODS:
        report = run_stationary(rejected, SplitParams(method, default_alpha(rejected, method)),
                                config)[1]
        assert report.converged and report.inner_iteration_total > 0, method


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
    # a bool or a string is no real number, and a count must be an integer:
    # max_outer=2.5 used to run 3 sweeps (it < 2.5)
    for make, message in (
            (lambda: SplitParams("gadi", True), "alpha must be a real number, got True"),
            (lambda: SplitParams("gadi", 1.0, True), "omega must be a real number, got True"),
            (lambda: SplitParams("gadi", "1"), "alpha must be a real number, got '1'"),
            (lambda: SolveConfig(tol=True), "tol must be a real number, got True"),
            (lambda: SolveConfig(max_outer=2.5), "max_outer must be an integer, got 2.5"),
            (lambda: SolveConfig(max_outer=True), "max_outer must be an integer, got True"),
            (lambda: SolveConfig(max_outer=np.float64(3)),
             "max_outer must be an integer, got (np.float64\\(3.0\\)|3.0)"),
            (lambda: SolveConfig(max_outer=0), "max_outer must be at least 1, got 0")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()
    # numpy scalars are real numbers and integers
    SplitParams("gadi", np.float64(1.5), np.float32(0.5))
    SolveConfig(tol=np.float64(1e-6), max_outer=np.int64(3))


def test_relaxation_is_omega_for_gadi_only():
    assert SplitParams("gadi", 1.0, 0.5).relaxation == 0.5
    for method in METHODS:
        if method != "gadi":
            assert SplitParams(method, 1.0, 0.5).relaxation == 0.0
