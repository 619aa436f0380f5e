"""Deterministic constructors for the four benchmark problem families.

ex241   time-stepped parabolic system (K + (3-sqrt(3))/tau I) + i(K + (3+sqrt(3))/tau I)
ex242   complex Helmholtz system ((K + sigma1 I) + i sigma2 I), two-sided h^2 scaling
ex31    Lyapunov equation with tridiagonal A = W + iT and rank-one Q
ex421   Riccati equation with tridiagonal A, G = I/10 and rank-one Q

ex241/ex242 use the grid Laplacian K = I (x) V + V (x) I. The displayed
definition has V = tridiag(-1,2,-1)/h^2 (``stencil="h2"``); the reference
iteration counts for these families are only reproduced by the unscaled
stencil V = tridiag(-1,2,-1) (``stencil="unit"``), which the table presets
select. See the README reproduction notes.
"""
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import kron, load_matrix_coo, load_vector, save_matrix_coo, save_vector
from .matrixeq import LyapunovProblem, RiccatiProblem
from .splitting import ComplexSymSystem

__all__ = ["ProblemSpec", "gen_ex241", "gen_ex242", "gen_ex31", "gen_ex421",
           "save_system", "load_system"]

# the values of the ex241/ex242 string fields, which the generators and
# ProblemSpec both check
TAU_MODES = ("h", "500h")
STENCILS = ("h2", "unit")


def _check_choice(name, value, allowed):
    if not isinstance(value, str) or value not in allowed:
        raise ValueError(f"{name} must be {' or '.join(map(repr, allowed))}, got {value!r}")


def _tridiag(n, lo, diag, up):
    return sp.diags_array([np.full(n - 1, lo), np.full(n, diag), np.full(n - 1, up)],
                          offsets=[-1, 0, 1], format="csr")


def _grid_laplacian(m, stencil):
    """K = I (x) V + V (x) I on an m-by-m grid with h = 1/(m+1)."""
    _check_choice("stencil", stencil, STENCILS)
    h = 1.0 / (m + 1)
    V = _tridiag(m, -1.0, 2.0, -1.0)
    if stencil == "h2":
        V = V / h ** 2
    I = sp.eye_array(m, format="csr")
    return sp.csr_array(kron(I, V) + kron(V, I)), h


def gen_ex241(m, tau_mode="h", stencil="h2"):
    """Time-stepped parabolic family on an m-by-m grid (n = m^2).

    W = K + (3-sqrt(3))/tau I, T = K + (3+sqrt(3))/tau I, with tau = h or
    500h, and b_j = (1-i) j / (tau (j+1)^2) for j = 1..n.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    _check_choice("tau_mode", tau_mode, TAU_MODES)
    K, h = _grid_laplacian(m, stencil)
    tau = h if tau_mode == "h" else 500.0 * h
    n = m * m
    I = sp.eye_array(n, format="csr")
    W = sp.csr_array(K + ((3.0 - np.sqrt(3.0)) / tau) * I)
    T = sp.csr_array(K + ((3.0 + np.sqrt(3.0)) / tau) * I)
    j = np.arange(1, n + 1, dtype=float)
    b = (1.0 - 1.0j) * j / (tau * (j + 1.0) ** 2)
    return ComplexSymSystem(W, T, b)


def gen_ex242(m, sigma1=100.0, sigma2=100.0, stencil="h2"):
    """Complex Helmholtz family on an m-by-m grid (n = m^2).

    The unscaled system is ((K + sigma1 I) + i sigma2 I) x = (1+i) A 1; both
    sides are then scaled by h^2, which leaves the solution unchanged.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    K, h = _grid_laplacian(m, stencil)
    n = m * m
    I = sp.eye_array(n, format="csr")
    W_u = sp.csr_array(K + sigma1 * I)
    ones = np.ones(n)
    # b from the unscaled operator: (1+i) * (W_u + i sigma2 I) @ 1
    b_u = (1.0 + 1.0j) * (W_u @ ones + 1j * sigma2 * ones)
    W = sp.csr_array(h ** 2 * W_u)
    T = sp.csr_array((h ** 2 * sigma2) * I)
    return ComplexSymSystem(W, T, h ** 2 * b_u)


def gen_ex31(n, t):
    """Lyapunov family: A = (M + 2tN + cI) + i(M + 2tN - cI), c = 100/(n+1)^2.

    M = tridiag(-1,2,-1), N = tridiag(0.5,0,0.5), Q = C^T C with C the
    all-ones row, so Q is the rank-one all-ones matrix.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not t > 0:
        raise ValueError("t must be positive")
    M = _tridiag(n, -1.0, 2.0, -1.0)
    N = _tridiag(n, 0.5, 0.0, 0.5)
    c = 100.0 / (n + 1) ** 2
    I = sp.eye_array(n, format="csr")
    W = sp.csr_array(M + (2.0 * t) * N + c * I)
    T = sp.csr_array(M + (2.0 * t) * N - c * I)
    Q = np.ones((n, n), dtype=complex)
    return LyapunovProblem(W, T, Q)


def gen_ex421(n):
    """Riccati family: W = tridiag(-1,2,-1), T = tridiag(0.1,0.5,0.1),
    G = I/10 and Q the rank-one all-ones matrix."""
    if n < 1:
        raise ValueError("n must be at least 1")
    W = sp.csr_array(_tridiag(n, -1.0, 2.0, -1.0))
    T = sp.csr_array(_tridiag(n, 0.1, 0.5, 0.1))
    G = 0.1 * np.eye(n, dtype=complex)
    Q = np.ones((n, n), dtype=complex)
    return RiccatiProblem(W, T, G, Q)


def save_system(stem, system):
    """Export a linear-system instance in the coordinate text formats."""
    save_matrix_coo(f"{stem}.W.coo", system.W)
    save_matrix_coo(f"{stem}.T.coo", system.T)
    save_vector(f"{stem}.b.vec", system.b)


def load_system(stem):
    W = sp.csr_array(load_matrix_coo(f"{stem}.W.coo").real)
    T = sp.csr_array(load_matrix_coo(f"{stem}.T.coo").real)
    return ComplexSymSystem(W, T, load_vector(f"{stem}.b.vec"))


# family: (its size field, generator, the generator's further ProblemSpec
# fields, label format); the size field is the generator's first argument
FAMILIES = {
    "ex241": ("m", gen_ex241, ("tau_mode", "stencil"),
              "ex241(m={m},tau={tau_mode},stencil={stencil})"),
    "ex242": ("m", gen_ex242, ("sigma1", "sigma2", "stencil"),
              "ex242(m={m},s1={sigma1:g},s2={sigma2:g},stencil={stencil})"),
    "ex31": ("n", gen_ex31, ("t",), "ex31(n={n},t={t:g})"),
    "ex421": ("n", gen_ex421, (), "ex421(n={n})"),
}


@dataclass(frozen=True)
class ProblemSpec:
    """Addressable benchmark instance: family name plus its parameters."""
    family: str
    m: int = None
    n: int = None
    tau_mode: str = "h"
    sigma1: float = 100.0
    sigma2: float = 100.0
    t: float = 0.01
    stencil: str = "h2"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {tuple(FAMILIES)}")
        size = FAMILIES[self.family][0]
        value = getattr(self, size)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            kind = "grid" if size == "m" else "matrix"
            raise ValueError(f"family {self.family} needs a {kind} size {size} >= 1, "
                             f"an integer; got {value!r}")
        _check_choice("tau_mode", self.tau_mode, TAU_MODES)
        _check_choice("stencil", self.stencil, STENCILS)
        for name in ("t", "sigma1", "sigma2"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")

    @property
    def dimension(self):
        return self.m * self.m if FAMILIES[self.family][0] == "m" else self.n

    def build(self):
        size, generate, fields, _ = FAMILIES[self.family]
        return generate(*(getattr(self, name) for name in (size, *fields)))

    def label(self):
        return FAMILIES[self.family][3].format_map(vars(self))
