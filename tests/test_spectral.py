import numpy as np
import pytest
import scipy.sparse as sp

from gadisolve import (ComplexSymSystem, NotPositiveDefiniteError,
                       build_iteration_matrices, eig_extremes_spd, gen_ex31,
                       lift_lyapunov, min_radius_alpha, optimal_alpha,
                       sigma_bound, spectral_radius)
from helpers import match_multisets, random_psd, random_spd, random_system


# -- eigenvalue extremes -------------------------------------------------------

def test_extremes_diagonal():
    s = eig_extremes_spd(np.diag([1.0, 4.0]))
    assert abs(s.gamma_min - 1.0) <= 1e-12
    assert abs(s.gamma_max - 4.0) <= 1e-12
    assert s.method == "dense-exact"


def test_extremes_tridiagonal_analytic():
    # eigenvalues of tridiag(-1, 2, -1)/h^2 are (2 - 2 cos(k pi/(m+1)))/h^2
    m, h = 4, 1.0 / 5.0
    V = (np.diag(2.0 * np.ones(m)) + np.diag(-np.ones(m - 1), 1)
         + np.diag(-np.ones(m - 1), -1)) / h ** 2
    s = eig_extremes_spd(V)
    k = np.arange(1, m + 1)
    lam = (2 - 2 * np.cos(k * np.pi / (m + 1))) * 25.0
    assert abs(s.gamma_min - lam.min()) <= 1e-10
    assert abs(s.gamma_max - lam.max()) <= 1e-10


def test_extremes_lifted_anchor_values():
    # reference shift values for the n=16 Lyapunov family lifts
    for t, expected in ((0.01, 2.6198), (0.1, 3.081)):
        lift = lift_lyapunov(gen_ex31(16, t))
        s = eig_extremes_spd(lift.w_lift)
        assert abs(optimal_alpha(s) - expected) <= 5e-4


def test_extremes_iterative_mode_agrees_with_dense(monkeypatch):
    from gadisolve import spectral
    rng = np.random.default_rng(3)
    W = sp.csr_array(random_spd(rng, 300, 0.5, 50.0))
    dense = eig_extremes_spd(W)
    assert dense.method == "dense-exact"
    monkeypatch.setattr(spectral, "DENSE_EIG_LIMIT", 299)  # W is above it: Lanczos
    it = eig_extremes_spd(W)
    assert it.method == "iterative-estimate"
    assert abs(it.gamma_min - dense.gamma_min) <= 1e-6 * dense.gamma_min
    assert abs(it.gamma_max - dense.gamma_max) <= 1e-6 * dense.gamma_max


def test_extremes_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        eig_extremes_spd(np.diag([1.0, -0.5]))


# -- optimal shift and the contraction bound -----------------------------------

def test_optimal_alpha_degenerate_spectrum():
    from gadisolve.spectral import SpectrumSummary
    assert optimal_alpha(SpectrumSummary(3.7, 3.7)) == pytest.approx(3.7, abs=1e-14)


def test_optimal_alpha_pair():
    assert optimal_alpha((1.0, 4.0)) == pytest.approx(2.0, abs=1e-14)


def test_optimal_alpha_rejects_nonpositive():
    with pytest.raises(ValueError):
        optimal_alpha((0.0, 1.0))


def test_sigma_bound_single_eigenvalue():
    assert sigma_bound(2.0, np.array([2.0])) == 0.0


def test_sigma_bound_matches_condition_number_form():
    from gadisolve.spectral import SpectrumSummary
    s = SpectrumSummary(1.0, 4.0)
    kappa = 4.0
    want = (np.sqrt(kappa) - 1) / (np.sqrt(kappa) + 1)
    assert abs(sigma_bound(2.0, s) - want) <= 1e-14
    assert abs(sigma_bound(2.0, np.array([1.0, 4.0])) - want) <= 1e-14


def test_sigma_bound_minimized_at_optimal_alpha():
    rng = np.random.default_rng(4)
    for _ in range(5):
        lam = np.sort(rng.uniform(0.2, 9.0, 6))
        s_tilde = sigma_bound(optimal_alpha((lam[0], lam[-1])), lam)
        for a in np.linspace(0.05, 12.0, 100):
            assert s_tilde <= sigma_bound(a, lam) + 1e-12


def test_endpoint_ratio_equalization():
    rng = np.random.default_rng(5)
    for _ in range(10):
        gmin = rng.uniform(0.1, 2.0)
        gmax = gmin * rng.uniform(1.0, 50.0)
        at = optimal_alpha((gmin, gmax))
        r1 = abs(at - gmin) / abs(at + gmin)
        r2 = abs(at - gmax) / abs(at + gmax)
        assert abs(r1 - r2) <= 1e-12


# -- iteration matrices ----------------------------------------------------------

def test_iteration_matrices_relation_at_zero_relaxation():
    rng = np.random.default_rng(6)
    system = random_system(rng, 6)
    pair = build_iteration_matrices(system, 1.3, 0.0)
    assert np.abs(pair.M_alpha_omega - pair.T_alpha).max() <= 1e-12


def test_iteration_matrix_scalar_closed_form():
    system = ComplexSymSystem(np.array([[2.0]]), np.array([[1.0]]), np.array([1.0 + 0j]))
    pair = build_iteration_matrices(system, 1.0, 0.0)
    want = ((1.0 - 2.0) / (1.0 + 2.0)) * ((1.0 - 1j) / (1.0 + 1j))
    assert abs(pair.T_alpha[0, 0] - want) <= 1e-14


def test_iteration_matrices_half_relation():
    rng = np.random.default_rng(7)
    system = random_system(rng, 8)
    for omega in (0.3, 1.2):
        pair = build_iteration_matrices(system, 2.1, omega)
        want = 0.5 * ((2 - omega) * pair.T_alpha + omega * np.eye(8))
        assert np.linalg.norm(pair.M_alpha_omega - want, "fro") <= 1e-11


def test_iteration_matrices_dimension_cap():
    n = 513
    system = ComplexSymSystem(np.eye(n), np.zeros((n, n)), np.ones(n, dtype=complex))
    with pytest.raises(ValueError):
        build_iteration_matrices(system, 1.0, 0.0)


# -- spectral radius --------------------------------------------------------------

def test_spectral_radius_diagonal():
    assert spectral_radius(np.diag([0.5, -0.25])) == pytest.approx(0.5, abs=1e-14)


def test_spectral_radius_companion_of_unit_roots():
    C = np.array([[0.0, 1.0], [1.0, 0.0]])  # companion matrix of z^2 - 1
    assert spectral_radius(C) == pytest.approx(1.0, abs=1e-12)


def test_radius_bounded_by_sigma():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        system = random_system(rng, n, t_zero=True)
        alpha = float(rng.uniform(0.1, 10.0))
        pair = build_iteration_matrices(system, alpha, 0.0)
        lamW = np.linalg.eigvalsh(np.asarray(system.W))
        assert spectral_radius(pair.T_alpha) <= sigma_bound(alpha, lamW) + 1e-10


# -- convergence-bound suites ----------------------------------------------------------

def test_hss_radius_suite():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 17))
        system = random_system(rng, n, t_zero=bool(rng.integers(0, 2)))
        alpha = float(rng.uniform(1e-2, 10.0))
        pair = build_iteration_matrices(system, alpha, 0.0)
        lamW = np.linalg.eigvalsh(np.asarray(system.W))
        sig = sigma_bound(alpha, lamW)
        rho = spectral_radius(pair.T_alpha)
        assert sig < 1.0
        assert rho <= sig + 1e-10


def test_unimodular_shifted_factor():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        T = random_psd(rng, n, zero_one=bool(rng.integers(0, 2)))
        alpha = float(rng.uniform(0.1, 5.0))
        F = (alpha * np.eye(n) - 1j * T) @ np.linalg.inv(alpha * np.eye(n) + 1j * T)
        assert abs(np.linalg.norm(F, 2) - 1.0) <= 1e-10


def test_relaxed_radius_suite():
    rng = np.random.default_rng(11)
    for _ in range(12):
        n = int(rng.integers(2, 17))
        system = random_system(rng, n)
        alpha = float(rng.uniform(1e-2, 10.0))
        for omega in (0.0, 0.5, 1.0, 1.9):
            pair = build_iteration_matrices(system, alpha, omega)
            want = 0.5 * ((2 - omega) * pair.T_alpha + omega * np.eye(n))
            assert np.linalg.norm(pair.M_alpha_omega - want, "fro") <= 1e-11
            assert spectral_radius(pair.M_alpha_omega) < 1.0


def test_eigenvalue_affine_map():
    rng = np.random.default_rng(12)
    for _ in range(6):
        n = int(rng.integers(2, 10))
        system = random_system(rng, n)
        omega = float(rng.uniform(0.0, 1.9))
        pair = build_iteration_matrices(system, 1.7, omega)
        mu = np.linalg.eigvals(pair.T_alpha)
        lam = np.linalg.eigvals(pair.M_alpha_omega)
        assert match_multisets(lam, 0.5 * ((2 - omega) * mu + omega)) <= 1e-9


# -- brute-force shift search --------------------------------------------------------

def test_min_radius_alpha_beats_default_bound_shift():
    rng = np.random.default_rng(13)
    system = random_system(rng, 8)
    lamW = np.linalg.eigvalsh(np.asarray(system.W))
    at = optimal_alpha((lamW[0], lamW[-1]))
    grid = np.geomspace(at / 4, 4 * at, 25)
    a_best, rho_best = min_radius_alpha(system, grid, omega=0.01)
    rho_at = spectral_radius(build_iteration_matrices(system, at, 0.01).M_alpha_omega)
    assert rho_best <= rho_at + 1e-12


def test_min_radius_alpha_dimension_cap():
    n = 129
    system = ComplexSymSystem(np.eye(n), np.zeros((n, n)), np.ones(n, dtype=complex))
    with pytest.raises(ValueError):
        min_radius_alpha(system, [1.0])
