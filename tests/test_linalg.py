import os
import tempfile

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gadisolve import (InnerSolverError, NotPositiveDefiniteError,
                       cg_hpd, cocg_sym, gen_ex241, kron, load_matrix_coo,
                       load_vector, save_matrix_coo, save_vector, unvec,
                       vec)
from helpers import random_spd, symmetrize

rng = np.random.default_rng(1234)


# -- vec / unvec --------------------------------------------------------------

def test_vec_identity():
    assert np.array_equal(vec(np.eye(2)), np.array([1.0, 0.0, 0.0, 1.0]))


def test_vec_column_stacking():
    X = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(vec(X), np.array([1.0, 2.0, 3.0, 4.0]))


def test_vec_rejects_an_array_that_is_not_2d():
    with pytest.raises(ValueError, match=r"^vec expects a 2-d array, got shape \(3,\)$"):
        vec(np.ones(3))


def test_unvec_identity():
    assert np.array_equal(unvec(np.array([1.0, 0, 0, 1.0]), 2, 2), np.eye(2))


def test_unvec_inverts_vec_example():
    assert np.array_equal(unvec(np.array([1.0, 2, 3, 4]), 2, 2),
                          np.array([[1.0, 3.0], [2.0, 4.0]]))


def test_unvec_length_mismatch():
    with pytest.raises(ValueError):
        unvec(np.zeros(5), 2, 2)


def test_vec_unvec_round_trip_all_small_shapes():
    for m in range(1, 17):
        for n in range(1, 17):
            X = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            assert np.array_equal(unvec(vec(X), m, n), X)


# -- kron ---------------------------------------------------------------------

def test_kron_identity_factor_block_diagonal():
    B = rng.standard_normal((3, 3))
    K = kron(np.eye(2), B)
    expected = np.zeros((6, 6))
    expected[:3, :3] = B
    expected[3:, 3:] = B
    assert np.array_equal(K, expected)


def test_kron_entrywise_definition():
    A = rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3))
    K = kron(A, B)
    for i in range(3):
        for j in range(3):
            for r in range(3):
                for s in range(3):
                    assert K[3 * i + r, 3 * j + s] == A[i, j] * B[r, s]


def test_kron_grid_laplacian_m2():
    # I (x) V + V (x) I for the 2-point stencil: diagonal 4/h^2, off-diagonals -1/h^2
    m = 2
    h = 1.0 / (m + 1)
    V = np.array([[2.0, -1.0], [-1.0, 2.0]]) / h ** 2
    K = kron(np.eye(m), V) + kron(V, np.eye(m))
    assert np.allclose(np.diag(K), 4.0 / h ** 2)
    offs = K[~np.eye(4, dtype=bool)]
    assert set(np.round(offs[offs != 0], 10)) == {round(-1.0 / h ** 2, 10)}


def test_kron_sparse_result_is_sparse():
    A = sp.csr_array(np.eye(2))
    assert sp.issparse(kron(A, np.eye(3)))


def test_kron_mixed_product_property():
    A, B, C, D = (rng.standard_normal((3, 3)) for _ in range(4))
    lhs = kron(A, B) @ kron(C, D)
    rhs = kron(A @ C, B @ D)
    assert np.abs(lhs - rhs).max() <= 1e-13


def test_vec_of_triple_product_identity():
    # vec(A X B) = (B^T (x) A) vec(X) for complex factors
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lhs = vec(A @ X @ B)
    rhs = kron(B.T, A) @ vec(X)
    assert np.abs(lhs - rhs).max() <= 1e-13


# -- cg_hpd -------------------------------------------------------------------

def test_cg_scaled_identity():
    M = 2.0 * np.eye(4)
    b = (1 + 1j) * np.ones(4)
    x, its = cg_hpd(M, b, rel_tol=1e-14, max_it=50)
    assert np.allclose(x, (0.5 + 0.5j) * np.ones(4), atol=1e-14)


def test_cg_zero_rhs():
    x, its = cg_hpd(np.eye(4), np.zeros(4), rel_tol=1e-12, max_it=10)
    assert its == 0
    assert np.array_equal(x, np.zeros(4))


def test_cg_shifted_grid_operator_vs_direct():
    system = gen_ex241(8)
    alpha = 10.0
    M = (alpha * sp.eye_array(system.n, format="csr") + system.W).toarray()
    b = rng.standard_normal(system.n) + 1j * rng.standard_normal(system.n)
    x, _ = cg_hpd(M, b, rel_tol=1e-13, max_it=2000)
    assert np.linalg.norm(b - M @ x) <= 1e-12 * np.linalg.norm(b)
    xd = np.linalg.solve(M, b)
    assert np.linalg.norm(x - xd) <= 1e-10 * np.linalg.norm(xd)


@pytest.mark.parametrize("n", [8, 32, 64])
def test_cg_iteration_count_on_spd_shift(n):
    r = np.random.default_rng(n)
    Q, _ = np.linalg.qr(r.standard_normal((n, n)))
    lam = r.uniform(0.5, 5.0, n)
    M = (Q * lam) @ Q.T + 2.0 * np.eye(n)
    M = (M + M.T) / 2
    b = r.standard_normal(n) + 1j * r.standard_normal(n)
    x, its = cg_hpd(M, b, rel_tol=1e-12, max_it=3 * n + 5)
    assert its <= 3 * n
    assert np.linalg.norm(b - M @ x) <= 1e-12 * np.linalg.norm(b)


def test_cg_indefinite_operator_rejected():
    M = np.diag([1.0, -1.0, 2.0])
    b = np.ones(3, dtype=complex)
    with pytest.raises(NotPositiveDefiniteError):
        cg_hpd(M, b, rel_tol=1e-12, max_it=20)


@pytest.mark.parametrize("solver", [cg_hpd, cocg_sym], ids=lambda f: f.__name__)
def test_cg_nonconvergence_carries_best_iterate(solver):
    n = 32
    r = np.random.default_rng(5)
    Q, _ = np.linalg.qr(r.standard_normal((n, n)))
    lam = np.exp(r.uniform(np.log(1e-3), np.log(1e3), n))
    b = r.standard_normal(n).astype(complex)
    if solver is cocg_sym:
        # complex symmetric: real eigenvectors, complex eigenvalues
        lam = lam + 1j * r.uniform(0.0, 1e3, n)
    M = (Q * lam) @ Q.T
    M = (M + M.T) / 2
    with pytest.raises(InnerSolverError) as info:
        solver(M, b, rel_tol=1e-14, max_it=3)
    err = info.value
    assert err.x is not None
    # the carried iterate really is the best seen, and matches the reported residual
    got = np.linalg.norm(b - M @ err.x) / np.linalg.norm(b)
    assert abs(got - err.residual) <= 1e-12


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
       shift=st.floats(0.1, 5.0), rel_tol=st.sampled_from((1e-4, 1e-8, 1e-12)))
@pytest.mark.parametrize("solver", [cg_hpd, cocg_sym], ids=lambda f: f.__name__)
def test_krylov_meets_tolerance_and_stops_where_it_converged(solver, n, seed, shift, rel_tol):
    # CG on a random SPD M, COCG on a I + iT with T real symmetric. Capped at
    # the count it returned, the same solve must return the same (x, it): the
    # true-residual check after the last allowed iteration returns, not raises.
    rng = np.random.default_rng(seed)
    if solver is cg_hpd:
        M = random_spd(rng, n)
    else:
        M = shift * np.eye(n) + 1j * symmetrize(rng.standard_normal((n, n)))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x, it = solver(M, b, rel_tol=rel_tol)
    assert np.linalg.norm(b - M @ x) <= rel_tol * np.linalg.norm(b)
    x_cap, it_cap = solver(M, b, rel_tol=rel_tol, max_it=it)
    assert it_cap == it
    assert np.array_equal(x_cap, x)


# -- cocg_sym -----------------------------------------------------------------

def test_cocg_scalar_operator():
    lam = 0.7
    alpha = 1.3
    M = (alpha + 1j * lam) * np.eye(5)
    b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    x, _ = cocg_sym(M, b, rel_tol=1e-14, max_it=20)
    assert np.allclose(x, b / (alpha + 1j * lam), atol=1e-13)


def test_cocg_shifted_imaginary_grid_vs_direct():
    system = gen_ex241(8)
    alpha = 10.0
    M = alpha * np.eye(system.n) + 1j * system.T.toarray()
    b = rng.standard_normal(system.n) + 1j * rng.standard_normal(system.n)
    x, _ = cocg_sym(M, b, rel_tol=1e-13, max_it=4000)
    xd = np.linalg.solve(M, b)
    assert np.linalg.norm(x - xd) <= 1e-10 * np.linalg.norm(xd)


def test_cocg_agrees_with_cg_on_real_spd():
    n = 12
    r = np.random.default_rng(7)
    Q, _ = np.linalg.qr(r.standard_normal((n, n)))
    M = (Q * r.uniform(1, 4, n)) @ Q.T
    M = (M + M.T) / 2
    b = r.standard_normal(n) + 1j * r.standard_normal(n)
    x1, _ = cg_hpd(M, b, rel_tol=1e-14, max_it=500)
    x2, _ = cocg_sym(M, b, rel_tol=1e-14, max_it=500)
    assert np.linalg.norm(x1 - x2) <= 1e-12 * np.linalg.norm(x1)


def test_cocg_breakdown_on_quasi_null_residual():
    # r^T r = 0 for r = (1, i), so the bilinear form degenerates immediately
    from gadisolve import BreakdownError
    M = np.eye(2, dtype=complex)
    b = np.array([1.0, 1.0j])
    with pytest.raises(BreakdownError) as info:
        cocg_sym(M, b, rel_tol=1e-14, max_it=10)
    assert info.value.x is not None


@pytest.mark.parametrize("m", [8, 16])
def test_cocg_benchmark_subsystems_vs_direct(m):
    system = gen_ex241(m)
    alpha = 25.0
    M = alpha * np.eye(system.n) + 1j * system.T.toarray()
    b = rng.standard_normal(system.n) + 1j * rng.standard_normal(system.n)
    x, _ = cocg_sym(M, b, rel_tol=1e-13, max_it=20 * system.n)
    xd = np.linalg.solve(M, b)
    assert np.linalg.norm(x - xd) <= 1e-10 * np.linalg.norm(xd)


# -- direct solves --------------------------------------------------------------

@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
def test_direct_complex_rhs_on_real_factor_equals_two_real_solves(dense):
    import scipy.linalg as sla
    import scipy.sparse.linalg as spla

    from gadisolve import DirectSolver
    system = gen_ex241(16, "500h", stencil="unit")
    M = system.W + 3.0 * sp.eye(system.n, format="csr")
    M = M.toarray() if dense else M
    solver = DirectSolver(M)
    lu = sla.lu_factor(M) if dense else spla.splu(sp.csc_matrix(M))
    real_solve = (lambda v: sla.lu_solve(lu, v)) if dense else lu.solve
    local = np.random.default_rng(16)
    for _ in range(50):
        b = local.standard_normal(system.n) + 1j * local.standard_normal(system.n)
        two = real_solve(b.real) + 1j * real_solve(b.imag)
        assert np.array_equal(solver.solve(b).view(float), two.view(float))
    B = local.standard_normal((system.n, 3)) + 1j * local.standard_normal((system.n, 3))
    X = solver.solve(B)
    assert X.shape == B.shape
    assert np.linalg.norm(M @ X - B) <= 1e-12 * np.linalg.norm(B)


# -- coordinate text formats --------------------------------------------------

def test_matrix_round_trip(tmp_path):
    A = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    A[np.abs(A.real) < 0.8] = 0.0
    path = tmp_path / "mat.coo"
    save_matrix_coo(path, sp.csr_array(A))
    B = load_matrix_coo(path)
    assert B.shape == (5, 7)
    assert np.array_equal(B.toarray(), A)


def test_vector_round_trip(tmp_path):
    x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    path = tmp_path / "vec.txt"
    save_vector(path, x)
    assert np.array_equal(load_vector(path), x)


def test_load_matrix_rejects_out_of_range(tmp_path):
    path = tmp_path / "bad.coo"
    path.write_text("2 2 1\n3 0 1.0 0.0\n")
    with pytest.raises(ValueError):
        load_matrix_coo(path)


def test_dense_block_round_trip(tmp_path):
    from gadisolve import load_dense_block, save_dense_block
    M = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    path = tmp_path / "block.dense"
    save_dense_block(path, M)
    assert np.array_equal(load_dense_block(path), M)


@pytest.mark.parametrize("body", ["2 2 2\n0 0 1.0 0.0\n",   # one entry short
                                  "2 2 1\n"])                # no entries at all
def test_load_matrix_rejects_truncated_file(tmp_path, body):
    path = tmp_path / "short.coo"
    path.write_text(body)
    with pytest.raises(ValueError):
        load_matrix_coo(path)


@pytest.mark.parametrize("entry", ["0.5 0 1.0 0.0", "0 1.0 1.0 0.0", "1e0 0 1.0 0.0"])
def test_load_matrix_rejects_non_integer_index(tmp_path, entry):
    path = tmp_path / "frac.coo"
    path.write_text(f"2 2 1\n{entry}\n")
    with pytest.raises(ValueError):
        load_matrix_coo(path)


def test_load_matrix_rejects_wrong_token_count(tmp_path):
    path = tmp_path / "short_row.coo"
    path.write_text("2 2 2\n0 0 1.0 0.0\n1 1 1.0\n")
    with pytest.raises(ValueError):
        load_matrix_coo(path)


def test_load_vector_and_dense_block_reject_truncated_files(tmp_path):
    from gadisolve import load_dense_block
    vec_path = tmp_path / "short.vec"
    vec_path.write_text("3\n1.0 0.0\n2.0 0.0\n")
    with pytest.raises(ValueError):
        load_vector(vec_path)
    block_path = tmp_path / "short.dense"
    block_path.write_text("2 1\n1.0 0.0\n")
    with pytest.raises(ValueError):
        load_dense_block(block_path)


@pytest.mark.parametrize("loader, body, expected", [
    ("vector", "2\n1 0\n2 0\n3 0\n", 2),
    ("coo", "2 2 1\n0 0 1.0 0.0\n1 1 2.0 0.0\n", 1),
    ("dense", "1 1\n1.0 0.0\n2.0 0.0\n", 1),
    ("dense", "2 0\n\n\n1.0 2.0\n", 0),  # an m x 0 block is its header and m blank lines
])
def test_loaders_reject_data_lines_past_the_header_count(tmp_path, loader, body, expected):
    from gadisolve import load_dense_block
    load = {"vector": load_vector, "coo": load_matrix_coo, "dense": load_dense_block}[loader]
    path = tmp_path / "long.txt"
    path.write_text(body)
    with pytest.raises(ValueError, match=f"^{expected + 1} data lines after the header, "
                                         f"expected {expected}$"):
        load(path)


def test_loaders_skip_blank_trailing_lines(tmp_path):
    from gadisolve import load_dense_block
    (tmp_path / "v.txt").write_text("2\n1 0\n2 0\n\n\n")
    assert load_vector(tmp_path / "v.txt").tolist() == [1, 2]
    (tmp_path / "m.coo").write_text("2 2 1\n1 0 3.0 -1.0\n\n")
    assert load_matrix_coo(tmp_path / "m.coo").toarray().tolist() == [[0, 0], [3 - 1j, 0]]
    (tmp_path / "b.dense").write_text("1 2\n1.0 0.0 0.0 2.0\n\n")
    assert load_dense_block(tmp_path / "b.dense").tolist() == [[1, 2j]]


def test_readers_keep_signed_zeros_and_empty_files(tmp_path):
    from gadisolve import load_dense_block, save_dense_block
    x = np.array([complex(-0.0, 1.0), complex(2.0, -0.0)])
    save_vector(tmp_path / "z.vec", x)
    back = load_vector(tmp_path / "z.vec")
    assert back.tobytes() == x.tobytes()
    save_vector(tmp_path / "empty.vec", np.zeros(0, dtype=complex))
    assert load_vector(tmp_path / "empty.vec").shape == (0,)
    save_matrix_coo(tmp_path / "empty.coo", sp.csr_array((3, 2)))
    assert load_matrix_coo(tmp_path / "empty.coo").shape == (3, 2)
    M = np.array([[complex(-0.0, -0.0), 1.5 - 2j]])
    save_dense_block(tmp_path / "z.dense", M)
    assert load_dense_block(tmp_path / "z.dense").tobytes() == M.tobytes()


def test_writers_pin_exact_bytes(tmp_path):
    from gadisolve import save_dense_block
    x = np.array([-0.0, 0.1, 2.0, 1e-300, complex(1 / 3, -1e-300), complex(3.5, -0.0)])
    save_vector(tmp_path / "x.vec", x)
    assert (tmp_path / "x.vec").read_bytes() == (
        b"6\n-0 0\n0.10000000000000001 0\n2 0\n1e-300 0\n"
        b"0.33333333333333331 -1e-300\n3.5 -0\n")
    A = sp.csr_array(np.array([[0.0, 0.1], [0.0, 2.0], [1e-300, 0.0]]))
    A.data[0] = -0.0                     # a stored -0.0; real data writes imaginary 0
    save_matrix_coo(tmp_path / "a.coo", A)
    assert (tmp_path / "a.coo").read_bytes() == b"3 2 3\n0 1 -0 0\n1 1 2 0\n2 0 1e-300 0\n"
    M = np.array([[complex(-0.0, 1.0), 0.1 - 2.5j], [1e-300j, 7.0]])
    save_dense_block(tmp_path / "m.dense", M)
    assert (tmp_path / "m.dense").read_bytes() == (
        b"2 2\n-0 1 0.10000000000000001 -2.5\n0 1e-300 7 0\n")
    save_dense_block(tmp_path / "e.dense", np.zeros((2, 0)))
    assert (tmp_path / "e.dense").read_bytes() == b"2 0\n\n\n"


def test_readers_match_a_line_by_line_parse(tmp_path):
    # reference: the per-line parse the numpy readers replaced
    r = np.random.default_rng(5)
    A = sp.random_array((30, 20), density=0.2, rng=r, format="csr")
    A = A + 1j * A
    save_matrix_coo(tmp_path / "a.coo", A)
    lines = (tmp_path / "a.coo").read_text().splitlines()[1:]
    want = {(int(i), int(j)): complex(float(re), float(im))
            for i, j, re, im in (line.split() for line in lines)}
    B = load_matrix_coo(tmp_path / "a.coo").tocoo()
    assert dict(zip(zip(B.row.tolist(), B.col.tolist()), B.data.tolist())) == want
    x = r.standard_normal(40) * 10.0 ** r.integers(-300, 300, 40) + 1j * r.standard_normal(40)
    save_vector(tmp_path / "x.vec", x)
    lines = (tmp_path / "x.vec").read_text().splitlines()[1:]
    want = np.array([complex(float(re), float(im)) for re, im in (ln.split() for ln in lines)])
    assert load_vector(tmp_path / "x.vec").tobytes() == want.tobytes()


# -- the text formats round-trip bit for bit ------------------------------------

_DOUBLES = st.floats(allow_nan=False, allow_infinity=False)  # subnormals and -0.0 too
_ENTRIES = st.builds(complex, _DOUBLES, _DOUBLES)
_EDGES = [complex(-0.0, 5e-324), complex(0.1, -2.2250738585072009e-308),
          complex(1 / 3, -0.0), complex(-1.7976931348623157e308, 2.0 ** -1074 * 3)]
_ROUND_TRIP = settings(derandomize=True, deadline=None, database=None, max_examples=60)


def _reread(save, load, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f")
        save(path, value)
        return load(path)


def _sorted_entries(A):
    C = sp.coo_array(A)
    order = np.lexsort((C.col, C.row))
    return (C.shape, C.row[order].tolist(), C.col[order].tolist(),
            np.asarray(C.data, dtype=complex)[order].tobytes())


def _coo_cases(shape):
    m, n = shape
    cells = st.dictionaries(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)), _ENTRIES,
                            max_size=m * n) if m and n else st.just({})
    return st.tuples(st.just(shape), cells)


def _blocks(shape):
    size = shape[0] * shape[1]
    return st.lists(_ENTRIES, min_size=size, max_size=size).map(
        lambda v: np.array(v, dtype=complex).reshape(shape))


_SHAPES = st.tuples(st.integers(0, 4), st.integers(0, 4))


@_ROUND_TRIP
@given(st.lists(_ENTRIES, max_size=8))
@example(_EDGES)
def test_vector_format_round_trips_bit_for_bit(entries):
    x = np.array(entries, dtype=complex)
    assert _reread(save_vector, load_vector, x).tobytes() == x.tobytes()


@_ROUND_TRIP
@given(_SHAPES.flatmap(_coo_cases))
@example(((3, 2), dict(zip([(0, 1), (2, 0), (1, 1), (2, 1)], _EDGES))))
def test_coo_format_round_trips_bit_for_bit(case):
    shape, cells = case
    rows, cols = np.array(list(cells), dtype=np.int64).reshape(-1, 2).T
    A = sp.coo_array((np.array(list(cells.values()), dtype=complex), (rows, cols)), shape=shape)
    assert _sorted_entries(_reread(save_matrix_coo, load_matrix_coo, A)) == _sorted_entries(A)


@_ROUND_TRIP
@given(_SHAPES.flatmap(_blocks))
@example(np.zeros((2, 0), dtype=complex))
@example(np.array([_EDGES]))
def test_dense_block_format_round_trips_bit_for_bit(M):
    from gadisolve import load_dense_block, save_dense_block
    back = _reread(save_dense_block, load_dense_block, M)
    assert back.shape == M.shape
    assert back.tobytes() == M.tobytes()
