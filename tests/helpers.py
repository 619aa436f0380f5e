"""Shared builders for randomized test instances and dense reference solves."""
import numpy as np

from gadisolve import ComplexSymSystem


def random_orthogonal(rng, n):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q


def symmetrize(M):
    """Exact symmetry: averaging commutes entrywise in floating point."""
    return (M + M.T) / 2.0


def random_spd(rng, n, lo=0.5, hi=5.0):
    Q = random_orthogonal(rng, n)
    lam = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    return symmetrize((Q * lam) @ Q.T)


def random_psd(rng, n, lo=0.0, hi=3.0, zero_one=False):
    Q = random_orthogonal(rng, n)
    lam = rng.uniform(lo, hi, n)
    if zero_one and n > 1:
        lam[0] = 0.0
    return symmetrize((Q * lam) @ Q.T)


def random_system(rng, n, w_range=(0.5, 5.0), t_range=(0.3, 3.0), t_zero=False):
    """Random instance with W SPD and T symmetric positive (semi-)definite."""
    W = random_spd(rng, n, *w_range)
    T = random_psd(rng, n, *t_range, zero_one=t_zero)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return ComplexSymSystem(W, T, b)


def without_joint_eigenbasis(monkeypatch):
    """Turn off the joint eigenbasis detection, so that every system built
    afterwards solves on the sparse path (factorizations and eigensolves),
    and every Lyapunov solve on its eigen-coordinate sweep."""
    from gadisolve import matrixeq, splitting
    for module in (splitting, matrixeq):
        monkeypatch.setattr(module, "_joint_eigenbasis", lambda W, T, dims=2: None)


def dense_solution(system):
    return np.linalg.solve(system.dense_matrix(), system.b)


def match_multisets(a, b):
    """Greatest pairwise distance under the optimal matching of two complex
    multisets (linear assignment on the modulus of differences)."""
    from scipy.optimize import linear_sum_assignment
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


# -- the exact per-mode oracle of the ex241/ex242 families -----------------------
#
# In both families W and T are c K + d I for the one grid Laplacian
# K = I (x) V + V (x) I, so the orthonormal 2-D DST-I S (symmetric, its own
# inverse) diagonalizes both: S W S = diag(lam), S T S = diag(mu). Every
# method's iteration matrix is then diagonal, with one factor g_j per mode,
# and from x = 0 the residual after k sweeps is exactly g^k (.) S b.

def joint_sine_factors(system):
    """(lam, mu, S b) of a system that the 2-D DST-I diagonalizes; asserts
    the diagonalization on a random probe."""
    from scipy.fft import dstn
    n = system.n
    m = int(round(np.sqrt(n)))
    assert m * m == n

    def S(v):
        return dstn(np.asarray(v).reshape(m, m), type=1, norm="ortho").ravel()
    ones = S(np.ones(n))
    lam, mu = S(system.W @ ones), S(system.T @ ones)
    v = np.random.default_rng(5).standard_normal(n)
    for d, M in ((lam, system.W), (mu, system.T)):
        assert np.linalg.norm(S(M @ S(v)) - d * v) <= 1e-12 * np.abs(d).max() * np.linalg.norm(v)
    return lam, mu, S(system.b)


def mode_factors(method, lam, mu, a, w=0.0):
    """The per-mode iteration factors g_j of ``method`` at shift a, relaxation w."""
    if method in ("hss", "gadi"):
        t = (a - lam) * (a - 1j * mu) / ((a + lam) * (a + 1j * mu))
        return ((2 - w) * t + w) / 2
    if method == "pmhss":  # V = W: MHSS with a lam_j for a
        a = a * lam
    if method in ("mhss", "pmhss"):
        return (a + 1j * lam) * (a - 1j * mu) / ((a + mu) * (a + lam))
    if method == "cri":
        return (a * a + 1) * lam * mu / ((a * lam + mu) * (a * mu + lam))
    if method == "tscsp":
        return -(a * lam - mu) * (lam - a * mu) / ((a * mu + lam) * (a * lam + mu))
    raise ValueError(f"no mode factors for {method!r}")


def predicted_history(g, sb, nb, tol, max_sweeps):
    """RES_k = ||g^k (.) S b|| / ||b|| for k = 0, 1, ... until RES_k <= tol or
    k = max_sweeps; the last index is the predicted IT."""
    r = np.asarray(sb, dtype=complex)
    history = [np.linalg.norm(r) / nb]
    while history[-1] > tol and len(history) <= max_sweeps:
        r = g * r
        history.append(np.linalg.norm(r) / nb)
    return history


# -- the Kronecker construction of the ex241/ex242 matrices -----------------------
#
# The generators assemble the 5-point matrix straight into CSR. This is the
# construction they replaced, K = I (x) V + V (x) I from sparse Kronecker
# products and K + c I by sparse addition, kept as the reference they must
# equal bit for bit.

def kron_grid_laplacian(m, stencil):
    import scipy.sparse as sp
    from gadisolve import kron
    h = 1.0 / (m + 1)
    V = sp.diags_array([np.full(m - 1, -1.0), np.full(m, 2.0), np.full(m - 1, -1.0)],
                       offsets=[-1, 0, 1], format="csr")
    if stencil == "h2":
        V = V / h ** 2
    I = sp.eye_array(m, format="csr")
    return sp.csr_array(kron(I, V) + kron(V, I)), h


def kron_ex241(m, tau_mode, stencil):
    """(W, T, b) of gen_ex241 by the Kronecker construction."""
    import scipy.sparse as sp
    K, h = kron_grid_laplacian(m, stencil)
    tau = h if tau_mode == "h" else 500.0 * h
    n = m * m
    I = sp.eye_array(n, format="csr")
    W = sp.csr_array(K + ((3.0 - np.sqrt(3.0)) / tau) * I)
    T = sp.csr_array(K + ((3.0 + np.sqrt(3.0)) / tau) * I)
    j = np.arange(1, n + 1, dtype=float)
    return W, T, (1.0 - 1.0j) * j / (tau * (j + 1.0) ** 2)


def kron_ex242(m, sigma1, sigma2, stencil):
    """(W, T, b) of gen_ex242 by the Kronecker construction."""
    import scipy.sparse as sp
    K, h = kron_grid_laplacian(m, stencil)
    n = m * m
    I = sp.eye_array(n, format="csr")
    W_u = sp.csr_array(K + sigma1 * I)
    ones = np.ones(n)
    b_u = (1.0 + 1.0j) * (W_u @ ones + 1j * sigma2 * ones)
    return sp.csr_array(h ** 2 * W_u), sp.csr_array((h ** 2 * sigma2) * I), h ** 2 * b_u
