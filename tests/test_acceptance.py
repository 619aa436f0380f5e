"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-5 and 7-9 are exactly checkable; criterion 6 reproduces the
reference benchmark rows within their stated iteration windows.
"""
import time

import numpy as np
import scipy.sparse as sp

from gadisolve import (RiccatiProblem, SolveConfig,
                       SplitParams, build_iteration_matrices, default_alpha,
                       eig_extremes_spd, gen_ex241, gen_ex242, gen_ex31,
                       gen_ex421, lift_lyapunov, newton_gadi_riccati,
                       newton_initial_guess, optimal_alpha, riccati_residual,
                       run_stationary, sigma_bound, solve_lyapunov_gadi,
                       spectral_radius, unvec, vec)
from gadisolve.bench import build_preset, run_grid, sweep_params, best_cell, write_csv
from gadisolve.matrixeq import LyapunovProblem, NewtonState, build_newton_lift
from helpers import (dense_solution, match_multisets, random_psd, random_spd,
                     random_system)


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _method_params(system, method):
    alpha = default_alpha(system, method)
    return SplitParams(method, alpha=alpha, omega=0.01)


def test_criterion_1_oracle_equivalence():
    """All six methods agree with the dense direct solve on random systems."""
    rng = np.random.default_rng(2024)
    methods = ("gadi", "hss", "mhss", "pmhss", "cri", "tscsp")
    t0 = time.perf_counter()
    worst = 0.0
    sizes = rng.integers(2, 65, 100)
    for n in sizes:
        system = random_system(rng, int(n))
        xstar = dense_solution(system)
        nx = np.linalg.norm(xstar)
        cfg = SolveConfig(tol=1e-10, max_outer=3000, inner="exact")
        for method in methods:
            x, report = run_stationary(system, _method_params(system, method), cfg)
            assert report.converged, (method, n, report.final_res)
            worst = max(worst, np.linalg.norm(x - xstar) / nx)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    _report(1, ok, f"100 systems x 6 methods, worst |x-x*|/|x*| = {worst:.2e}, "
                   f"{elapsed:.1f}s (< 60s)")


def test_criterion_2_contraction_bound_suite():
    """HSS radius below sigma(alpha) < 1 plus the unimodular-factor check."""
    rng = np.random.default_rng(2025)
    worst_slack = np.inf
    worst_norm_gap = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 17))
        system = random_system(rng, n, t_zero=bool(rng.integers(0, 2)))
        alpha = float(rng.uniform(1e-2, 10.0))
        pair = build_iteration_matrices(system, alpha, 0.0)
        lamW = np.linalg.eigvalsh(np.asarray(system.W))
        sig = sigma_bound(alpha, lamW)
        rho = spectral_radius(pair.T_alpha)
        assert sig < 1.0
        worst_slack = min(worst_slack, sig - rho)
        T = np.asarray(system.T)
        F = (alpha * np.eye(n) - 1j * T) @ np.linalg.inv(alpha * np.eye(n) + 1j * T)
        worst_norm_gap = max(worst_norm_gap, abs(np.linalg.norm(F, 2) - 1.0))
    ok = worst_slack >= -1e-10 and worst_norm_gap <= 1e-10
    _report(2, ok, f"50 instances: min(sigma - rho) = {worst_slack:.2e} >= -1e-10, "
                   f"max |norm-1| = {worst_norm_gap:.2e} <= 1e-10")


def test_criterion_3_relaxed_matrix_suite():
    """Relaxed iteration matrix relation and contraction for omega in [0,2)."""
    rng = np.random.default_rng(2026)
    worst_rel = 0.0
    worst_rho = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 17))
        system = random_system(rng, n, t_zero=bool(rng.integers(0, 2)))
        alpha = float(rng.uniform(1e-2, 10.0))
        for omega in (0.0, 0.5, 1.0, 1.9):
            pair = build_iteration_matrices(system, alpha, omega)
            gap = np.linalg.norm(
                pair.M_alpha_omega - 0.5 * ((2 - omega) * pair.T_alpha + omega * np.eye(n)),
                "fro")
            worst_rel = max(worst_rel, gap)
            worst_rho = max(worst_rho, spectral_radius(pair.M_alpha_omega))
    ok = worst_rel <= 1e-11 and worst_rho < 1.0
    _report(3, ok, f"relation gap <= {worst_rel:.2e} (<= 1e-11), "
                   f"max rho = {worst_rho:.6f} < 1")


def test_criterion_4_optimal_shift_closed_forms():
    """sqrt(gmin*gmax) shift: closed forms, equalization, grid minimality."""
    rng = np.random.default_rng(2027)
    ok = True
    detail = []
    for _ in range(20):
        gmin = float(rng.uniform(0.05, 3.0))
        gmax = gmin * float(rng.uniform(1.0, 100.0))
        at = optimal_alpha((gmin, gmax))
        kappa = gmax / gmin
        ok &= abs(at - np.sqrt(gmin * gmax)) <= 1e-12 * at
        want = (np.sqrt(kappa) - 1) / (np.sqrt(kappa) + 1)
        ok &= abs(sigma_bound(at, np.array([gmin, gmax])) - want) <= 1e-12
        r1 = abs(at - gmin) / abs(at + gmin)
        r2 = abs(at - gmax) / abs(at + gmax)
        ok &= abs(r1 - r2) <= 1e-12
        s_tilde = sigma_bound(at, np.array([gmin, gmax]))
        for a in np.linspace(0.5 * gmin, 2.0 * gmax, 100):
            ok &= s_tilde <= sigma_bound(float(a), np.array([gmin, gmax])) + 1e-12
    _report(4, ok, "shift formula, bound closed form, endpoint equalization and "
                   "100-point grid minimality all within 1e-12")


def test_criterion_5_lifted_shift_anchors():
    """Reference shift values of the n=16 Lyapunov lifts."""
    vals = {}
    for t, expected in ((0.01, 2.6198), (0.1, 3.081)):
        lift = lift_lyapunov(gen_ex31(16, t))
        vals[t] = optimal_alpha(eig_extremes_spd(lift.w_lift))
    ok = abs(vals[0.01] - 2.6198) <= 5e-4 and abs(vals[0.1] - 3.081) <= 5e-4
    _report(5, ok, f"alpha(t=0.01) = {vals[0.01]:.5f} (2.6198 +- 5e-4), "
                   f"alpha(t=0.1) = {vals[0.1]:.5f} (3.081 +- 5e-4)")


def test_criterion_6_table_reproduction():
    """Published-row anchors at eps = 1e-5 with swept or pinned parameters."""
    details = []
    ok = True

    from gadisolve import ProblemSpec

    t0 = time.perf_counter()
    cells = sweep_params(ProblemSpec("ex241", m=8, stencil="unit"), "gadi",
                         tuple(np.geomspace(3.0, 75.0, 21)), (0.0, 0.01, 0.1), tol=1e-5)
    it1 = best_cell(cells).it
    dt1 = time.perf_counter() - t0
    ok &= it1 <= 10 and dt1 <= 120
    details.append(f"T1 m=8 swept IT={it1} (<=10, ref 5, {dt1:.1f}s)")

    t0 = time.perf_counter()
    cells = sweep_params(ProblemSpec("ex242", m=8, stencil="unit"), "gadi",
                         tuple(np.geomspace(0.26, 6.5, 21)), (0.0, 0.01, 0.1), tol=1e-5)
    it2 = best_cell(cells).it
    dt2 = time.perf_counter() - t0
    ok &= it2 <= 8 and dt2 <= 120
    details.append(f"T2 n=64 swept IT={it2} (<=8, ref 4, {dt2:.1f}s)")

    t0 = time.perf_counter()
    p3 = gen_ex31(16, 0.01)
    _, rep = solve_lyapunov_gadi(p3, SplitParams("gadi", 2.6198, 0.01),
                                 SolveConfig(tol=1e-5, max_outer=300))
    omegas = (0.01, 0.1, 0.0, 0.5, 1.0, 1.5)
    cells = sweep_params(ProblemSpec("ex31", n=16, t=0.01), "gadi", (2.6198,),
                         omegas, tol=1e-5)
    by_omega = {c.omega: c.it for c in cells}
    dt3 = time.perf_counter() - t0
    pattern = (by_omega[1.5] > by_omega[1.0] > by_omega[0.5]
               > max(by_omega[0.0], by_omega[0.01], by_omega[0.1]))
    ok &= rep.converged and 15 <= rep.iterations <= 25 and pattern and dt3 <= 120
    details.append(f"T3 IT={rep.iterations} (15..25, ref 19), "
                   f"omega pattern {sorted(by_omega.values())} ({dt3:.1f}s)")

    t0 = time.perf_counter()
    p4 = gen_ex31(8, 0.1)
    _, rep4 = solve_lyapunov_gadi(p4, config=SolveConfig(tol=1e-5, max_outer=300))
    dt4 = time.perf_counter() - t0
    ok &= rep4.converged and rep4.iterations <= 15 and dt4 <= 120
    details.append(f"T4 n=8 t=0.1 IT={rep4.iterations} (<=15, ref 10, {dt4:.1f}s)")

    t0 = time.perf_counter()
    res5 = newton_gadi_riccati(gen_ex421(8), outer_tol=1e-5, inner_forcing=(0.1, 0.1))
    dt5 = time.perf_counter() - t0
    ok &= res5.converged and res5.final_res <= 1e-5 and res5.inner_iteration_total <= 50
    ok &= dt5 <= 120
    details.append(f"T5 n=8 inner IT={res5.inner_iteration_total} (<=50, ref 33), "
                   f"Res={res5.final_res:.3e} ({dt5:.1f}s)")

    _report(6, ok, "; ".join(details))


def test_criterion_7_lift_identities():
    """Norm identity of the vectorized operators plus the Kronecker lemmas."""
    rng = np.random.default_rng(2028)
    worst = 0.0
    for trial in range(10):
        n = int(rng.integers(2, 7))
        W = random_spd(rng, n)
        Tm = (lambda M: (M + M.T) / 2)(rng.standard_normal((n, n)))
        C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p = LyapunovProblem(W, Tm, C + C.conj().T)
        lift = lift_lyapunov(p)
        A = p.dense_A()
        for _ in range(2):
            X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            lifted = np.linalg.norm(lift.w_lift @ vec(X) + 1j * (lift.t_lift @ vec(X)) - lift.q)
            matrix = np.linalg.norm(A.conj().T @ X + X @ A - p.Q, "fro")
            worst = max(worst, abs(lifted - matrix) / max(matrix, 1e-300))
    for trial in range(10):
        n = int(rng.integers(2, 5))
        prob = RiccatiProblem(sp.csr_array(random_spd(rng, n)),
                              sp.csr_array(random_psd(rng, n)),
                              np.eye(n, dtype=complex) * 0.1,
                              np.eye(n, dtype=complex))
        Xk = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Xk = 0.5 * (Xk + Xk.conj().T)
        state = NewtonState(k=0, X=Xk, A_k=prob.dense_A() - prob.G @ Xk,
                            Q_k=-Xk @ prob.G @ Xk - prob.Q)
        lift = build_newton_lift(state, prob)
        for _ in range(2):
            X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            lifted = np.linalg.norm(lift.matvec(vec(X)) - lift.q)
            matrix = np.linalg.norm(state.A_k.conj().T @ X + X @ state.A_k - state.Q_k, "fro")
            worst = max(worst, abs(lifted - matrix) / max(matrix, 1e-300))
    # product-vectorization and difference-spectrum identities on 3x3s
    lemma_gap = 0.0
    for _ in range(5):
        A1, X1, B1 = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                      for _ in range(3))
        lemma_gap = max(lemma_gap, np.abs(vec(A1 @ X1 @ B1)
                                          - np.kron(B1.T, A1) @ vec(X1)).max())
        M = np.kron(np.eye(3), A1) - np.kron(B1.T, np.eye(3))
        diffs = (np.linalg.eigvals(A1)[:, None] - np.linalg.eigvals(B1)[None, :]).ravel()
        lemma_gap = max(lemma_gap, match_multisets(np.linalg.eigvals(M), diffs))
    ok = worst <= 1e-12 and lemma_gap <= 1e-8
    _report(7, ok, f"20 lift pairs, worst identity gap = {worst:.2e} (<= 1e-12); "
                   f"Kronecker lemmas gap = {lemma_gap:.2e} (<= 1e-8)")


def test_criterion_8_fixed_points_and_scalar_care():
    """Stationarity of every stepper, of the Newton map, and the scalar root."""
    from gadisolve import METHODS, step
    from scipy.linalg import solve_continuous_are
    rng = np.random.default_rng(2029)
    worst_fp = 0.0
    for method in METHODS:
        system = random_system(rng, 12)
        xstar = dense_solution(system)
        out = step(system, SplitParams(method, 1.3, 0.4), xstar)
        worst_fp = max(worst_fp, np.linalg.norm(out - xstar) / np.linalg.norm(xstar))

    p = gen_ex421(4)
    Xs = solve_continuous_are(p.dense_A(), np.eye(4, dtype=complex), p.Q,
                              np.linalg.inv(p.G))
    for _ in range(2):  # sharpen to machine accuracy with direct Newton steps
        A_k = p.dense_A() - p.G @ Xs
        Q_k = -Xs @ p.G @ Xs - p.Q
        lifted = np.kron(np.eye(4), A_k.conj().T) + np.kron(A_k.T, np.eye(4))
        Xs = unvec(np.linalg.solve(lifted, vec(Q_k)), 4, 4)
        Xs = 0.5 * (Xs + Xs.conj().T)
    result = newton_gadi_riccati(p, outer_tol=1e-14, max_outer=5, x0=Xs)
    newton_drift = np.linalg.norm(result.X - Xs, "fro") / np.linalg.norm(Xs, "fro")

    scalar = RiccatiProblem(np.array([[1.0]]), np.array([[0.0]]),
                            np.eye(1, dtype=complex), 3.0 * np.eye(1, dtype=complex))
    res = newton_gadi_riccati(scalar, outer_tol=1e-9, max_outer=25)
    scalar_err = abs(res.X[0, 0] - 3.0)

    ok = worst_fp <= 1e-11 and newton_drift <= 1e-10 and scalar_err <= 1e-8
    _report(8, ok, f"stepper fixed-point drift {worst_fp:.2e} (<= 1e-11), Newton "
                   f"drift {newton_drift:.2e} (<= 1e-10), scalar root error "
                   f"{scalar_err:.2e} (<= 1e-8)")


def test_criterion_9_preset_determinism(tmp_path):
    """Identical preset runs give byte-identical CSV up to the CPU column."""
    import csv as csvmod

    def rows_without_cpu(path):
        with open(path, newline="") as fh:
            return [tuple(r[:7] + r[8:]) for r in csvmod.reader(fh)]

    paths = []
    for k in range(2):
        rows = []
        for cfg in build_preset("table3"):
            rows.extend(run_grid(cfg))
        path = tmp_path / f"run{k}.csv"
        write_csv(rows, path)
        paths.append(path)
    ok = rows_without_cpu(paths[0]) == rows_without_cpu(paths[1])
    _report(9, ok, "two table3 preset runs byte-identical modulo the CPU column")
