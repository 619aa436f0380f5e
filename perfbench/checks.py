"""Output checks made apart from the program under test.

Nothing here imports gadisolve. The instances are assembled again from their
defining formulas with numpy/scipy, and every answer the program returns is
judged against those matrices or against scipy's own solvers. Each check
raises CheckError with a one-line reason when the answer is wrong.
"""
import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

# X against scipy's reference solution, relative in the Frobenius norm. The
# program stops at a residual of 1e-5; the answers it returns differ from the
# references by about 1e-5 (Lyapunov) and 1e-6 (Riccati), so 1e-3 leaves a
# hundredfold margin while a transposed or wrong-branch X misses by O(1).
AGREE_TOL = 1e-3
HERMITIAN_TOL = 1e-12


class CheckError(AssertionError):
    """A program output failed an independent check."""


# -- instances, assembled from their formulas ----------------------------------

def _tridiag(n, lo, diag, up):
    return sp.diags([np.full(n - 1, lo), np.full(n, diag), np.full(n - 1, up)],
                    [-1, 0, 1], format="csr", dtype=float)


def _unit_laplacian(m):
    """K = I (x) V + V (x) I with the unscaled stencil V = tridiag(-1, 2, -1)."""
    V = _tridiag(m, -1.0, 2.0, -1.0)
    I = sp.identity(m, format="csr")
    return sp.csr_matrix(sp.kron(I, V) + sp.kron(V, I))


def ex241_matrix(m, tau_mode):
    """A = W + iT of ex241 on the unit stencil, h = 1/(m+1), tau = h or 500h."""
    h = 1.0 / (m + 1)
    tau = h if tau_mode == "h" else 500.0 * h
    K = _unit_laplacian(m)
    I = sp.identity(m * m, format="csr")
    W = K + ((3.0 - np.sqrt(3.0)) / tau) * I
    T = K + ((3.0 + np.sqrt(3.0)) / tau) * I
    return sp.csr_matrix(W + 1j * T)


def ex241_rhs(m, tau_mode):
    h = 1.0 / (m + 1)
    tau = h if tau_mode == "h" else 500.0 * h
    j = np.arange(1, m * m + 1, dtype=float)
    return (1.0 - 1.0j) * j / (tau * (j + 1.0) ** 2)


def ex242_matrix(m, sigma1, sigma2):
    """A = h^2 (K + sigma1 I) + i h^2 sigma2 I on the unit stencil."""
    h2 = (1.0 / (m + 1)) ** 2
    I = sp.identity(m * m, format="csr")
    return sp.csr_matrix(h2 * (_unit_laplacian(m) + sigma1 * I) + (1j * h2 * sigma2) * I)


def ex242_rhs(m, sigma1, sigma2):
    """b = h^2 (1+i) (K + sigma1 I + i sigma2 I) 1."""
    h2 = (1.0 / (m + 1)) ** 2
    ones = np.ones(m * m)
    unscaled = _unit_laplacian(m) @ ones + sigma1 * ones + 1j * sigma2 * ones
    return h2 * (1.0 + 1.0j) * unscaled


def ex31_matrix(n, t):
    """Dense A = (M + 2tN + cI) + i(M + 2tN - cI), c = 100/(n+1)^2."""
    M = _tridiag(n, -1.0, 2.0, -1.0).toarray()
    N = _tridiag(n, 0.5, 0.0, 0.5).toarray()
    c = 100.0 / (n + 1) ** 2
    base = M + 2.0 * t * N
    return (base + c * np.eye(n)) + 1j * (base - c * np.eye(n))


def ex421_data(n):
    """Dense (A, G, Q) of ex421: A = tridiag(-1,2,-1) + i tridiag(.1,.5,.1)."""
    A = _tridiag(n, -1.0, 2.0, -1.0).toarray() + 1j * _tridiag(n, 0.1, 0.5, 0.1).toarray()
    return A, 0.1 * np.eye(n, dtype=complex), np.ones((n, n), dtype=complex)


# -- checks ---------------------------------------------------------------------

def check_linear(A, b, x, tol):
    """||b - A x|| / ||b|| <= tol with the benchmark's own A and b."""
    res = float(np.linalg.norm(b - A @ x) / np.linalg.norm(b))
    if not res <= tol:
        raise CheckError(f"linear residual {res:.3e} > tol {tol:.1e}")
    return res


def _rel_diff(X, ref):
    return float(np.linalg.norm(X - ref) / np.linalg.norm(ref))


def check_lyapunov(A, Q, X, tol):
    """A^H X + X A = Q: Frobenius residual <= tol and X agrees with scipy."""
    X = np.asarray(X)
    Ah = A.conj().T
    res = float(np.linalg.norm(Q - Ah @ X - X @ A) / np.linalg.norm(Q))
    if not res <= tol:
        raise CheckError(f"Lyapunov residual {res:.3e} > tol {tol:.1e}")
    diff = _rel_diff(X, sla.solve_continuous_lyapunov(Ah, Q))
    if not diff <= AGREE_TOL:
        raise CheckError(f"Lyapunov X differs from scipy's by {diff:.3e} > {AGREE_TOL:.0e}")
    return res


def anti_stabilizing_care(A, G, Q):
    """The solution of A^H X + X A + Q - X G X = 0 with A - G X anti-stable."""
    n = A.shape[0]
    return -sla.solve_continuous_are(-A, np.eye(n), Q, np.linalg.inv(G))


def check_riccati(A, G, Q, X, tol):
    """2-norm residual <= tol, X Hermitian, A - G X anti-stable, X = scipy's."""
    X = np.asarray(X)
    R = A.conj().T @ X + X @ A + Q - X @ G @ X
    res = float(np.linalg.norm(R, 2) / np.linalg.norm(Q, 2))
    if not res <= tol:
        raise CheckError(f"Riccati residual {res:.3e} > tol {tol:.1e}")
    gap = float(np.linalg.norm(X - X.conj().T) / np.linalg.norm(X))
    if not gap <= HERMITIAN_TOL:
        raise CheckError(f"Riccati X is not Hermitian (relative gap {gap:.3e})")
    worst = float(np.linalg.eigvals(A - G @ X).real.min())
    if not worst > 0.0:
        raise CheckError(f"A - G X has an eigenvalue with real part {worst:.3e} <= 0")
    diff = _rel_diff(X, anti_stabilizing_care(A, G, Q))
    if not diff <= AGREE_TOL:
        raise CheckError(f"Riccati X differs from scipy's by {diff:.3e} > {AGREE_TOL:.0e}")
    return res


def check_same_sparse(loaded, expected, what):
    """Bit-for-bit equality of two sparse matrices (structure and values)."""
    a, e = sp.csr_matrix(loaded), sp.csr_matrix(expected)
    for M in (a, e):
        M.sum_duplicates()
        M.sort_indices()
    same = (a.shape == e.shape and a.dtype == e.dtype
            and np.array_equal(a.indptr, e.indptr)
            and np.array_equal(a.indices, e.indices)
            and a.data.tobytes() == e.data.tobytes())
    if not same:
        raise CheckError(f"{what} read back differs from the generated matrix")


def check_same_vector(loaded, expected, what):
    loaded, expected = np.asarray(loaded), np.asarray(expected)
    if loaded.shape != expected.shape or loaded.tobytes() != expected.tobytes():
        raise CheckError(f"{what} differs bit for bit from the expected vector")


def read_vector_file(path):
    """Parse the vector exchange format: a header line "n", then "re im" lines."""
    with open(path) as fh:
        n = int(fh.readline())
        data = np.loadtxt(fh, dtype=float, ndmin=2)
    if data.shape != (n, 2):
        raise CheckError(f"{path}: expected {n} rows of 're im', got shape {data.shape}")
    out = np.empty(n, dtype=complex)  # set parts directly: keeps signed zeros
    out.real, out.imag = data[:, 0], data[:, 1]
    return out
