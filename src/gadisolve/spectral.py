"""Shift selection and convergence diagnostics for the splitting iterations.

Provides eigenvalue extremes of SPD matrices, the bound-minimizing shift
sqrt(gamma_min*gamma_max) that every default shift applies (:func:`optimal_alpha`),
the contraction bound sigma(alpha), and dense construction of the HSS/GADI
iteration matrices with their spectral radii.

Above DENSE_EIG_LIMIT the extremes come from shift-invert Lanczos at shifts
just outside the Gershgorin interval [lo, hi] of W: lo - d for the smallest
eigenvalue and hi + d for the largest, with d = 1e-3 (hi - lo). A shift
below the whole spectrum targets the smallest eigenvalue whatever its sign,
so an indefinite W is rejected, not mistaken for the eigenvalue nearest 0.
"""
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .linalg import NotPositiveDefiniteError, _dense, _require_real

__all__ = [
    "SpectrumSummary", "IterationMatrixPair",
    "eig_extremes_spd", "optimal_alpha", "sigma_bound",
    "build_iteration_matrices", "spectral_radius",
]

DENSE_EIG_LIMIT = 2000  # the extremes of larger matrices are Lanczos estimates
DENSE_MATRIX_LIMIT = 512


@dataclass
class SpectrumSummary:
    """Extreme eigenvalues of a symmetric positive definite matrix."""
    gamma_min: float
    gamma_max: float
    method: str = "dense-exact"


@dataclass
class IterationMatrixPair:
    """Dense HSS iteration matrix T(alpha) and GADI matrix M(alpha, omega)."""
    T_alpha: np.ndarray
    M_alpha_omega: np.ndarray
    alpha: float
    omega: float


def _gershgorin(W):
    """Gershgorin interval [lo, hi] of a CSR matrix, from one pass over its entries."""
    n = W.shape[0]
    rows = np.repeat(np.arange(n), np.diff(W.indptr))
    on = W.indices == rows
    centre = np.bincount(rows[on], W.data[on], n)
    radius = np.bincount(rows[~on], np.abs(W.data[~on]), n)
    return float(np.min(centre - radius)), float(np.max(centre + radius))


def eig_extremes_spd(W):
    """Extreme eigenvalues of a symmetric positive definite matrix.

    Up to n = DENSE_EIG_LIMIT a full symmetric eigensolve gives them exactly.
    Above it, shift-invert Lanczos (tolerance 1e-8) estimates each extreme
    from a shift just outside the Gershgorin interval [lo, hi]: lo - d for
    gamma_min and hi + d for gamma_max, with d = 1e-3 (hi - lo). A zero-width
    interval means W = cI, which gives (c, c) with no eigensolve.

    Raises NotPositiveDefiniteError when the computed minimum is <= 0; in the
    iterative branch too, since its lower shift lies below every eigenvalue.
    """
    n = W.shape[0]
    if n <= DENSE_EIG_LIMIT:
        ev = sla.eigvalsh(_dense(W))
        out = SpectrumSummary(float(ev[0]), float(ev[-1]), "dense-exact")
    else:
        Ws = sp.csr_array(W)
        lo, hi = _gershgorin(Ws)
        if lo == hi:  # W = cI, and d = 0 would put both shifts at c: a singular factor
            out = SpectrumSummary(lo, hi, "iterative-estimate")
        else:
            d = 1e-3 * (hi - lo)
            # deterministic Lanczos start so repeated runs give identical estimates
            v0 = np.random.default_rng(0).standard_normal(n)
            gmin, gmax = (float(spla.eigsh(Ws, k=1, sigma=sigma, which="LM", tol=1e-8,
                                           v0=v0, return_eigenvectors=False)[0])
                          for sigma in (lo - d, hi + d))
            out = SpectrumSummary(gmin, gmax, "iterative-estimate")
    return _require_positive(out)


def _require_positive(spectrum):
    """``spectrum``, or NotPositiveDefiniteError when its minimum is <= 0."""
    if spectrum.gamma_min <= 0:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: minimum eigenvalue {spectrum.gamma_min:.6e}")
    return spectrum


def optimal_alpha(spectrum):
    """Bound-minimizing shift sqrt(gamma_min * gamma_max) (Bai, Golub & Ng 2003)
    of a SpectrumSummary or of eigenvalues in any order, a (gamma_min, gamma_max)
    pair among them; a minimum <= 0 raises NotPositiveDefiniteError, a ValueError."""
    if not isinstance(spectrum, SpectrumSummary):
        lam = np.asarray(spectrum, dtype=float)
        spectrum = SpectrumSummary(float(lam.min()), float(lam.max()))
    _require_positive(spectrum)
    return float(np.sqrt(spectrum.gamma_min * spectrum.gamma_max))


def sigma_bound(alpha, spectrum):
    """Contraction bound sigma(alpha) = max |alpha - lam| / |alpha + lam|.

    With a SpectrumSummary only the two endpoint ratios are evaluated, which
    is exact because the ratio is monotone on either side of alpha; with a
    full spectrum the maximum runs over all eigenvalues. alpha is checked as
    :class:`~gadisolve.splitting.SplitParams` checks it: a finite real > 0.
    """
    _require_real("alpha", alpha)
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
    is the GADI one. The two satisfy M = ((2-w) T(alpha) + w I) / 2. alpha
    is checked as in :func:`sigma_bound`.
    """
    n = system.n
    if n > DENSE_MATRIX_LIMIT:
        raise ValueError(f"dense iteration matrices limited to n <= {DENSE_MATRIX_LIMIT}, got n = {n}")
    _require_real("alpha", alpha)
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
