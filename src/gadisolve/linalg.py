"""Core linear-algebra primitives shared by every solver in the package.

Dense matrices are numpy arrays, sparse matrices are scipy.sparse arrays
(CSR for storage, CSC for factorization). Vectors are 1-d complex numpy
arrays. All routines are pure functions of their inputs. CG and COCG are one
recurrence that differs only in its form: the Hermitian inner product for CG,
the unconjugated bilinear form x^T y for COCG.
"""
import numbers
import warnings

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "InnerSolverError", "BreakdownError", "NotPositiveDefiniteError",
    "vec", "unvec", "kron",
    "cg_hpd", "cocg_sym", "DirectSolver",
    "save_matrix_coo", "load_matrix_coo", "save_vector", "load_vector",
    "save_dense_block", "load_dense_block",
]


class InnerSolverError(RuntimeError):
    """An inner Krylov solve did not reach its tolerance.

    Carries the best iterate seen (`x`), the iteration count and the
    relative residual at that iterate, plus optional context set by the
    outer driver (`half_step`, `report`).
    """

    def __init__(self, message, x=None, iterations=0, residual=np.inf):
        super().__init__(message)
        self.x = x
        self.iterations = iterations
        self.residual = residual
        self.half_step = None
        self.report = None


class BreakdownError(InnerSolverError):
    """The conjugate-orthogonal inner product vanished (COCG breakdown)."""


class NotPositiveDefiniteError(ValueError):
    """An operator required to be positive definite is not."""


def _dense(M):
    """A dense numpy copy (or view) of a sparse or dense matrix."""
    return M.toarray() if sp.issparse(M) else np.asarray(M)


def _eye_like(M, n):
    """The n x n identity, sparse (CSR) when M is sparse."""
    return sp.eye_array(n, format="csr") if sp.issparse(M) else np.eye(n)


def _require_real(name, value, positive=True):
    """A one-line ValueError unless ``value`` is a real number, not a bool,
    and, if ``positive``, finite and > 0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if positive and not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    if positive and not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _require_count(name, value):
    """A one-line ValueError unless ``value`` is an integer >= 1 and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value!r}")


def vec(X):
    """Stack the columns of a matrix into a single vector."""
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError(f"vec expects a 2-d array, got shape {X.shape}")
    return X.flatten(order="F")


def unvec(x, m, n):
    """Inverse of :func:`vec`: reshape a length m*n vector to an m-by-n matrix."""
    x = np.asarray(x)
    if x.ndim != 1 or x.size != m * n:
        raise ValueError(f"unvec needs a vector of length {m}*{n}={m*n}, got shape {x.shape}")
    return x.reshape((m, n), order="F").copy()


def kron(A, B):
    """Kronecker product; sparse inputs yield a sparse (CSR) result."""
    if sp.issparse(A) or sp.issparse(B):
        return sp.kron(sp.csr_array(A), sp.csr_array(B), format="csr")
    return np.kron(np.asarray(A), np.asarray(B))


def cg_hpd(M, b, rel_tol=1e-12, max_it=None):
    """Conjugate gradients for a Hermitian positive definite matrix.

    Works in complex arithmetic, so a real SPD matrix applied to complex
    right-hand sides is handled in a single solve. Starts from x = 0 and
    returns ``(x, iterations)`` with ``||b - M x|| <= rel_tol * ||b||``.

    Raises
    ------
    NotPositiveDefiniteError
        if a search direction has nonpositive curvature p^H M p <= 0.
    InnerSolverError
        if the tolerance is not met within ``max_it``; the error carries the
        best iterate seen.
    """
    return _conjugate_gradients(M, b, rel_tol, max_it, hermitian=True)


def cocg_sym(M, b, rel_tol=1e-12, max_it=None):
    """Conjugate-orthogonal CG for complex symmetric (M^T = M) systems.

    Starts from x = 0, like :func:`cg_hpd`, and is identical to it except
    that the unconjugated bilinear form x^T y replaces the Hermitian inner
    product, which is the standard adaptation for complex symmetric
    coefficients.

    Raises BreakdownError when the bilinear form degenerates, and
    InnerSolverError on non-convergence; both carry the best iterate.
    """
    return _conjugate_gradients(M, b, rel_tol, max_it, hermitian=False)


def _conjugate_gradients(M, b, rel_tol, max_it, hermitian):
    """The CG recurrence of :func:`cg_hpd` (``hermitian``, form vdot(u, v).real)
    and of :func:`cocg_sym` (form dot(u, v)), restarted from the true residual
    whenever the recurrence residual meets the tolerance but the true one does not."""
    b = np.asarray(b, dtype=complex)
    n = b.shape[0]
    if max_it is None:
        max_it = 10 * n + 10
    nb = np.linalg.norm(b)
    tol = rel_tol * nb
    form = (lambda u, v: np.vdot(u, v).real) if hermitian else np.dot
    x = np.zeros(n, dtype=complex)
    r = b.copy()
    best_x, best_r = x.copy(), np.linalg.norm(r)
    it = 0

    def breakdown(what):
        return BreakdownError(f"COCG breakdown: {what} at iteration {it}",
                              x=best_x, iterations=it, residual=best_r / nb)

    while True:
        # r is the true residual here, so a last iteration that converged returns
        rn = np.linalg.norm(r)
        if rn < best_r:
            best_x, best_r = x.copy(), rn
        if rn <= tol:
            return x, it
        if it >= max_it:
            break
        p = r.copy()
        rho = form(r, r)
        while it < max_it:
            if not hermitian and (abs(rho) <= 1e-300 or abs(rho) < 1e-30 * rn ** 2):
                raise breakdown(f"quasi-null residual form r^T r = {rho:.3e}")
            q = M @ p
            curv = form(p, q)
            if hermitian:
                if curv <= 0.0:
                    raise NotPositiveDefiniteError(
                        f"nonpositive curvature p^H M p = {curv:.3e} in CG at iteration {it}")
            elif abs(curv) < 1e-30 * (np.linalg.norm(p) * np.linalg.norm(q) + 1e-300):
                raise breakdown(f"p^T M p = {curv:.3e}")
            a = rho / curv
            x += a * p
            r -= a * q
            it += 1
            rho_new = form(r, r)
            rn = np.sqrt(rho_new) if hermitian else np.linalg.norm(r)
            if rn < best_r:
                best_x, best_r = x.copy(), rn
            if rn <= tol:
                break
            p = r + (rho_new / rho) * p
            rho = rho_new
        r = b - M @ x
    raise InnerSolverError(
        f"{'CG' if hermitian else 'COCG'} did not reach rel_tol={rel_tol:.1e} in {max_it} "
        f"iterations (best residual {best_r / nb:.3e})",
        x=best_x, iterations=it, residual=best_r / nb)


class DirectSolver:
    """One-time LU factorization of a sparse or dense matrix.

    A real factorization is kept real; a complex right-hand side is then
    solved as its real and imaginary parts, so the factorization cost is paid
    once per coefficient matrix regardless of the rhs dtype. A sparse factor
    solves both parts in one two-column call, which SuperLU rounds exactly as
    two one-column calls; a dense factor makes two calls, because LAPACK's
    multi-column triangular solve rounds differently.
    """

    def __init__(self, M):
        self.shape = M.shape
        self._complex = np.iscomplexobj(M.data if sp.issparse(M) else M)
        if sp.issparse(M):
            self._sparse = True
            self._lu = spla.splu(sp.csc_matrix(M))
        else:
            self._sparse = False
            self._lu = sla.lu_factor(np.asarray(M))

    def _solve_native(self, rhs):
        if self._sparse:
            return self._lu.solve(rhs)
        return sla.lu_solve(self._lu, rhs)

    def solve(self, b):
        b = np.asarray(b)
        if self._complex or not np.iscomplexobj(b):
            return self._solve_native(b.astype(complex) if self._complex else b)
        if self._sparse:
            x = self._lu.solve(np.column_stack([b.real, b.imag]))
            k = x.shape[1] // 2
            return (x[:, :k] + 1j * x[:, k:]).reshape(b.shape)
        return self._solve_native(b.real) + 1j * self._solve_native(b.imag)


# -- text exchange formats ----------------------------------------------------
#
# Sparse matrices: header "m n nnz", one entry per line "i j re im", 0-based.
# Vectors:         header "n", one component per line "re im".
# Dense blocks:    header "m n", one row per line as n "re im" pairs.

_ROWS_PER_WRITE = 256  # bounds the text a writer holds, whatever the file's size


def _write_columns(fh, fmt, *columns):
    """Write fmt.format(*row) for each row of equal-length columns.

    Rows go out a block at a time, each block one string built by one join.
    """
    for k in range(0, len(columns[0]), _ROWS_PER_WRITE):
        block = (c[k:k + _ROWS_PER_WRITE].tolist() for c in columns)
        fh.write("".join(map(fmt.format, *block)))


def save_matrix_coo(path, A):
    """Write a matrix in the plain-text coordinate format."""
    C = sp.coo_array(A)
    vals = np.asarray(C.data, dtype=complex)
    with open(path, "w") as fh:
        fh.write(f"{C.shape[0]} {C.shape[1]} {C.nnz}\n")
        _write_columns(fh, "{} {} {:.17g} {:.17g}\n", C.row, C.col, vals.real, vals.imag)


def _read_rows(fh, count, dtype):
    """Parse the `count` lines after a header with one numpy call.

    A line with the wrong number of tokens, or a token that does not parse as
    its field's type, raises ValueError; so does a file with more or fewer
    data lines than `count`. Blank lines are skipped.
    """
    with warnings.catch_warnings():
        # loadtxt warns on an empty body; its length is checked below
        warnings.simplefilter("ignore", UserWarning)
        rows = np.loadtxt(fh, dtype=dtype, ndmin=1)
    if len(rows) != count:
        raise ValueError(f"{len(rows)} data lines after the header, expected {count}")
    return rows


_COO_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("re", float), ("im", float)])
_COMPLEX_PAIR = np.dtype([("re", float), ("im", float)])


def load_matrix_coo(path):
    """Read a coordinate-format matrix back as a complex CSR array."""
    with open(path) as fh:
        m, n, nnz = (int(t) for t in fh.readline().split())
        entries = _read_rows(fh, nnz, _COO_ENTRY)
    rows, cols = entries["i"], entries["j"]
    if nnz and (rows.max() >= m or cols.max() >= n):
        raise ValueError("coordinate index out of range")
    vals = np.empty(nnz, dtype=complex)
    vals.real, vals.imag = entries["re"], entries["im"]
    return sp.csr_array((vals, (rows, cols)), shape=(m, n), dtype=complex)


def save_vector(path, x):
    x = np.asarray(x, dtype=complex)
    with open(path, "w") as fh:
        fh.write(f"{x.shape[0]}\n")
        _write_columns(fh, "{:.17g} {:.17g}\n", x.real, x.imag)


def load_vector(path):
    with open(path) as fh:
        n = int(fh.readline())
        return _read_rows(fh, n, _COMPLEX_PAIR).view(complex)


def save_dense_block(path, M):
    M = np.asarray(M, dtype=complex)
    pairs = np.empty((M.shape[0], 2 * M.shape[1]))  # each row as re, im, re, im, ...
    pairs[:, 0::2], pairs[:, 1::2] = M.real, M.imag
    # one column whose rows are the lists of pairs, so an m x 0 block is m empty lines
    row = " ".join(f"{{0[{j}]:.17g}}" for j in range(pairs.shape[1])) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        _write_columns(fh, row, pairs)


def load_dense_block(path):
    with open(path) as fh:
        m, n = (int(t) for t in fh.readline().split())
        if n == 0:  # an m x 0 block is m blank lines, so every other line is extra
            extra = sum(1 for line in fh if line.strip())
            if extra:
                raise ValueError(f"{extra} data lines after the header, expected 0")
            return np.zeros((m, 0), dtype=complex)
        return _read_rows(fh, m, np.dtype([("row", float, (2 * n,))]))["row"].view(complex)
