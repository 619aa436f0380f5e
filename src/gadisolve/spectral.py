"""Shift selection and convergence diagnostics for the splitting iterations.

Provides eigenvalue extremes of SPD matrices, the bound-minimizing shift
sqrt(gamma_min*gamma_max), the contraction bound sigma(alpha), and dense
construction of the HSS/GADI iteration matrices with their spectral radii.
"""
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .linalg import NotPositiveDefiniteError, _dense

__all__ = [
    "SpectrumSummary", "IterationMatrixPair",
    "eig_extremes_spd", "optimal_alpha", "sigma_bound",
    "build_iteration_matrices", "spectral_radius", "min_radius_alpha",
]

DENSE_EIG_LIMIT = 2000  # the extremes of larger matrices are Lanczos estimates
DENSE_MATRIX_LIMIT = 512


@dataclass
class SpectrumSummary:
    """Extreme eigenvalues of a symmetric positive definite matrix."""
    gamma_min: float
    gamma_max: float
    method: str = "dense-exact"
    estimate_tol: float = 0.0


@dataclass
class IterationMatrixPair:
    """Dense HSS iteration matrix T(alpha) and GADI matrix M(alpha, omega)."""
    T_alpha: np.ndarray
    M_alpha_omega: np.ndarray
    alpha: float
    omega: float


def eig_extremes_spd(W):
    """Extreme eigenvalues of a symmetric positive definite matrix.

    Up to n = DENSE_EIG_LIMIT a full symmetric eigensolve gives them exactly;
    above it, Lanczos (tolerance 1e-8) estimates the largest and
    shift-invert Lanczos the smallest.

    Raises NotPositiveDefiniteError when the computed minimum is <= 0.
    """
    n = W.shape[0]
    if n <= DENSE_EIG_LIMIT:
        ev = sla.eigvalsh(_dense(W))
        out = SpectrumSummary(float(ev[0]), float(ev[-1]), "dense-exact", 0.0)
    else:
        Ws = sp.csc_matrix(W) if sp.issparse(W) else sp.csc_matrix(np.asarray(W))
        tol = 1e-8
        # deterministic Lanczos start so repeated runs give identical estimates
        v0 = np.random.default_rng(0).standard_normal(n)
        gmax = float(spla.eigsh(Ws, k=1, which="LA", tol=tol, v0=v0,
                                return_eigenvectors=False)[0])
        gmin = float(spla.eigsh(Ws, k=1, sigma=0.0, which="LM", tol=tol,
                                v0=v0, return_eigenvectors=False)[0])
        out = SpectrumSummary(gmin, gmax, "iterative-estimate", tol)
    if out.gamma_min <= 0:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: minimum eigenvalue {out.gamma_min:.6e}")
    return out


def optimal_alpha(spectrum):
    """Bound-minimizing shift sqrt(gamma_min * gamma_max)."""
    if isinstance(spectrum, SpectrumSummary):
        gmin, gmax = spectrum.gamma_min, spectrum.gamma_max
    else:
        gmin, gmax = spectrum
    if gmin <= 0 or gmax <= 0:
        raise ValueError(f"extreme eigenvalues must be positive, got ({gmin}, {gmax})")
    return float(np.sqrt(gmin * gmax))


def sigma_bound(alpha, spectrum):
    """Contraction bound sigma(alpha) = max |alpha - lam| / |alpha + lam|.

    With a SpectrumSummary only the two endpoint ratios are evaluated, which
    is exact because the ratio is monotone on either side of alpha; with a
    full spectrum the maximum runs over all eigenvalues.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if isinstance(spectrum, SpectrumSummary):
        lams = np.array([spectrum.gamma_min, spectrum.gamma_max])
    else:
        lams = np.asarray(spectrum, dtype=float)
    if np.any(lams <= 0):
        raise ValueError("spectrum must be positive")
    return float(np.max(np.abs(alpha - lams) / np.abs(alpha + lams)))


def build_iteration_matrices(system, alpha, omega):
    """Dense T(alpha) and M(alpha, omega) for a ComplexSymSystem.

    T(alpha) = (aI+iT)^-1 (aI-W) (aI+W)^-1 (aI-iT) is the HSS iteration
    matrix; M(alpha, omega) = (aI+iT)^-1 (aI+W)^-1 [a^2 I + iWT - (1-w)aA]
    is the GADI one. The two satisfy M = ((2-w) T(alpha) + w I) / 2.
    """
    n = system.n
    if n > DENSE_MATRIX_LIMIT:
        raise ValueError(f"dense iteration matrices limited to n <= {DENSE_MATRIX_LIMIT}, got n = {n}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    W, T = _dense(system.W), _dense(system.T)
    I = np.eye(n)
    aW = alpha * I + W
    aT = alpha * I + 1j * T
    A = W + 1j * T
    T_alpha = sla.solve(aT, (alpha * I - W) @ sla.solve(aW, alpha * I - 1j * T))
    core = alpha ** 2 * I + 1j * (W @ T) - (1 - omega) * alpha * A
    M = sla.solve(aT, sla.solve(aW, core))
    return IterationMatrixPair(T_alpha, M, alpha, omega)


def spectral_radius(M):
    """Largest eigenvalue modulus of a dense square matrix."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"spectral radius needs a square matrix, got shape {M.shape}")
    return float(np.abs(sla.eigvals(M)).max())


def min_radius_alpha(system, alphas, omega=0.01):
    """Brute-force search for the alpha minimizing rho(M(alpha, omega)).

    Intended for small systems (n <= 128); returns (alpha_best, rho_best).
    """
    if system.n > 128:
        raise ValueError(f"radius search limited to n <= 128, got n = {system.n}")
    best = (None, np.inf)
    for a in alphas:
        rho = spectral_radius(build_iteration_matrices(system, float(a), omega).M_alpha_omega)
        if rho < best[1]:
            best = (float(a), rho)
    return best
