import math
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from gadisolve import gen_ex241, gen_ex242, gen_ex31, gen_ex421
from gadisolve.problems import ProblemSpec


# -- ex241 ----------------------------------------------------------------------

def test_ex241_smallest_grid_entries():
    system = gen_ex241(1, "h")
    tau = 0.5
    assert np.allclose(system.W.toarray(), [[16.0 + 2 * (3 - np.sqrt(3))]])
    assert np.allclose(system.T.toarray(), [[16.0 + 2 * (3 + np.sqrt(3))]])
    assert abs(system.b[0] - (0.5 - 0.5j)) <= 1e-15
    assert abs(system.b[0] - (1 - 1j) * 1 / (tau * 4)) <= 1e-16


def test_ex241_dimension():
    assert gen_ex241(8).n == 64


def test_ex241_stencil_eigenvalues_analytic():
    m = 4
    h = 1.0 / (m + 1)
    system = gen_ex241(m)
    shift = (3 - np.sqrt(3)) / h
    K = system.W.toarray() - shift * np.eye(m * m)
    # K's eigenvalues are pair sums of the stencil eigenvalues (2-2cos(k pi h))/h^2
    lamV = (2 - 2 * np.cos(np.arange(1, m + 1) * np.pi * h)) / h ** 2
    want = np.sort((lamV[:, None] + lamV[None, :]).ravel())
    got = np.sort(np.linalg.eigvalsh(K))
    assert np.abs(got - want).max() <= 1e-10


def test_ex241_shift_difference_structure():
    system = gen_ex241(3, "h")
    D = (system.W - system.T).toarray()
    off = D - np.diag(np.diag(D))
    assert np.abs(off).max() == 0.0  # the grid part cancels exactly
    tau = 1.0 / 4.0
    assert np.abs(np.diag(D) - (-2 * np.sqrt(3) / tau)).max() <= 1e-12


def test_ex241_tau_modes_and_validation():
    s1 = gen_ex241(2, "h")
    s2 = gen_ex241(2, "500h")
    assert s2.W.toarray()[0, 0] < s1.W.toarray()[0, 0]  # smaller shift for larger tau
    with pytest.raises(ValueError):
        gen_ex241(2, "10h")
    with pytest.raises(ValueError):
        gen_ex241(0)


def test_ex241_unit_stencil_variant():
    # the two variants differ exactly by the 1/h^2 scaling of the grid part
    unit = gen_ex241(2, "h", stencil="unit")
    scaled = gen_ex241(2, "h", stencil="h2")
    h = 1.0 / 3.0
    K_unit = unit.W.toarray() - np.eye(4) * ((3 - np.sqrt(3)) / h)
    K_scaled = scaled.W.toarray() - np.eye(4) * ((3 - np.sqrt(3)) / h)
    assert np.allclose(K_scaled, K_unit / h ** 2)


# -- ex242 ----------------------------------------------------------------------

def test_ex242_smallest_grid_scaled_entries():
    system = gen_ex242(1, 0.0, 0.0)
    # h = 1/2: W = h^2 K = 4, T = 0
    assert np.allclose(system.W.toarray(), [[4.0]])
    assert np.allclose(system.T.toarray(), [[0.0]])


def test_ex242_rhs_from_unscaled_operator():
    m = 3
    system = gen_ex242(m)
    h = 1.0 / (m + 1)
    n = m * m
    W_u = system.W.toarray() / h ** 2
    A_u = W_u + 1j * 100.0 * np.eye(n)
    manual = h ** 2 * (1 + 1j) * (A_u @ np.ones(n))
    assert np.abs(system.b - manual).max() <= 1e-14 * np.abs(manual).max()


def test_ex242_scaling_preserves_solution():
    m = 3
    system = gen_ex242(m)
    h = 1.0 / (m + 1)
    A_scaled = system.dense_matrix()
    A_unscaled = A_scaled / h ** 2
    b_unscaled = system.b / h ** 2
    x_scaled = np.linalg.solve(A_scaled, system.b)
    x_unscaled = np.linalg.solve(A_unscaled, b_unscaled)
    assert np.linalg.norm(x_scaled - x_unscaled) <= 1e-12 * np.linalg.norm(x_unscaled)


def test_ex242_table_row_instance_converges():
    from gadisolve import SolveConfig, SplitParams, default_alpha, run_stationary
    system = gen_ex242(8, 100.0, 100.0, stencil="unit")
    params = SplitParams("gadi", default_alpha(system, "gadi"), 0.01)
    x, report = run_stationary(system, params, SolveConfig(tol=1e-5, max_outer=100))
    assert report.converged


# -- ex31 -----------------------------------------------------------------------

def test_ex31_small_entries():
    p = gen_ex31(2, 0.01)
    c = 100.0 / 9.0
    W = p.W.toarray()
    assert abs(W[0, 0] - (2 + c)) <= 1e-13
    assert abs(W[0, 1] - (-1 + 0.01)) <= 1e-13
    T = p.T.toarray()
    assert abs(T[0, 0] - (2 - c)) <= 1e-13
    assert np.array_equal(p.Q, np.ones((2, 2), dtype=complex))


def test_ex31_rank_one_gram_Q():
    p = gen_ex31(5, 0.1)
    lam = np.sort(np.linalg.eigvalsh(p.Q))
    assert np.abs(lam[:-1]).max() <= 1e-12
    assert abs(lam[-1] - 5.0) <= 1e-12


def test_ex31_validation():
    with pytest.raises(ValueError):
        gen_ex31(0, 0.1)
    with pytest.raises(ValueError):
        gen_ex31(4, 0.0)


# -- ex421 ----------------------------------------------------------------------

def test_ex421_small_entries():
    p = gen_ex421(2)
    assert np.array_equal(p.W.toarray(), np.array([[2.0, -1.0], [-1.0, 2.0]]))
    assert np.array_equal(p.T.toarray(), np.array([[0.5, 0.1], [0.1, 0.5]]))
    assert np.array_equal(p.G, 0.1 * np.eye(2))
    assert np.array_equal(p.Q, np.ones((2, 2), dtype=complex))


def test_ex421_imaginary_part_is_spd():
    p = gen_ex421(4)
    lam = np.linalg.eigvalsh(p.T.toarray())
    want = 0.5 + 0.2 * np.cos(np.arange(1, 5) * np.pi / 5.0)
    assert np.abs(np.sort(lam) - np.sort(want)).max() <= 1e-12
    assert lam.min() > 0


# -- definiteness of the generated families ---------------------------------------

@pytest.mark.parametrize("build,psd_T", [
    (lambda: gen_ex241(3, "h"), True),
    (lambda: gen_ex241(3, "500h"), True),
    (lambda: gen_ex241(3, "h", stencil="unit"), True),
    (lambda: gen_ex242(3), True),
    (lambda: gen_ex242(3, stencil="unit"), True),
    (lambda: gen_ex421(9), True),
])
def test_generated_matrices_are_definite(build, psd_T):
    p = build()
    W = p.W.toarray()
    T = p.T.toarray()
    assert np.linalg.eigvalsh(W).min() > 0
    if psd_T:
        lamT = np.linalg.eigvalsh(T)
        assert lamT.min() >= -1e-12 * max(1.0, abs(lamT).max())


def test_ex31_real_part_spd():
    # the imaginary part of this family is indefinite by construction; only
    # the real part carries the definiteness assumption
    for n, t in ((4, 0.01), (16, 0.1), (32, 0.01)):
        p = gen_ex31(n, t)
        assert np.linalg.eigvalsh(p.W.toarray()).min() > 0


def test_generators_are_deterministic():
    a = gen_ex241(5, "h")
    b = gen_ex241(5, "h")
    assert np.array_equal(a.W.toarray(), b.W.toarray())
    assert np.array_equal(a.T.toarray(), b.T.toarray())
    assert np.array_equal(a.b, b.b)
    pa = gen_ex31(6, 0.1)
    pb = gen_ex31(6, 0.1)
    assert np.array_equal(pa.W.toarray(), pb.W.toarray())
    assert np.array_equal(pa.Q, pb.Q)


# -- ProblemSpec ------------------------------------------------------------------

def test_problem_spec_build_and_label():
    spec = ProblemSpec("ex241", m=4, tau_mode="500h", stencil="unit")
    system = spec.build()
    assert system.n == 16
    assert spec.dimension == 16
    assert "ex241" in spec.label() and "500h" in spec.label()
    spec2 = ProblemSpec("ex421", n=6)
    assert spec2.build().n == 6


def test_system_export_round_trip(tmp_path):
    from gadisolve import load_system, save_system
    system = gen_ex241(3, "h")
    save_system(tmp_path / "sys", system)
    back = load_system(tmp_path / "sys")
    assert np.array_equal(back.W.toarray(), system.W.toarray())
    assert np.array_equal(back.T.toarray(), system.T.toarray())
    assert np.array_equal(back.b, system.b)


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec("nope", m=2)
    with pytest.raises(ValueError):
        ProblemSpec("ex241")  # missing m
    with pytest.raises(ValueError):
        ProblemSpec("ex31")  # missing n


@pytest.mark.parametrize("family, name, value", [
    ("ex241", "m", 2.5), ("ex241", "m", True), ("ex242", "m", "3"), ("ex31", "n", 4.0),
    ("ex421", "n", np.float64(3)), ("ex31", "n", 0)])
def test_problem_spec_rejects_a_size_that_is_not_an_integer_at_least_1(family, name, value):
    tail = re.escape(f"size {name} >= 1, an integer; got {value!r}")
    with pytest.raises(ValueError, match=f"^family {family} needs a (grid|matrix) {tail}$"):
        ProblemSpec(family, **{name: value})


def test_problem_spec_takes_numpy_integer_sizes():
    spec = ProblemSpec("ex241", m=np.int64(3), stencil="unit")
    assert spec.dimension == 9 and spec.label() == "ex241(m=3,tau=h,stencil=unit)"
    assert spec.build().n == 9
    assert ProblemSpec("ex421", n=np.int32(2)).build().n == 2


@pytest.mark.parametrize("family, fields, message", [
    ("ex241", {"m": 4, "tau_mode": "1h"}, "tau_mode must be 'h' or '500h', got '1h'"),
    ("ex241", {"m": 4, "tau_mode": None}, "tau_mode must be 'h' or '500h', got None"),
    ("ex241", {"m": 4, "stencil": "h3"}, "stencil must be 'h2' or 'unit', got 'h3'"),
    ("ex242", {"m": 4, "stencil": ["unit"]}, "stencil must be 'h2' or 'unit', got ['unit']"),
    ("ex31", {"n": 4, "t": "x"}, "t must be a finite real number, got 'x'"),
    ("ex31", {"n": 4, "t": True}, "t must be a finite real number, got True"),
    ("ex31", {"n": 4, "t": math.nan}, "t must be a finite real number, got nan"),
    ("ex31", {"n": 4, "t": 1j}, "t must be a finite real number, got 1j"),
    ("ex242", {"m": 4, "sigma1": math.inf}, "sigma1 must be a finite real number, got inf"),
    ("ex242", {"m": 4, "sigma2": -math.inf}, "sigma2 must be a finite real number, got -inf"),
    ("ex242", {"m": 4, "sigma2": "100"}, "sigma2 must be a finite real number, got '100'")],
    ids=["tau-1h", "tau-none", "stencil-h3", "stencil-list", "t-str", "t-bool", "t-nan",
         "t-complex", "sigma1-inf", "sigma2-minus-inf", "sigma2-str"])
def test_problem_spec_rejects_a_bad_field_when_made(family, fields, message):
    # the one-line error comes at construction, before any warning or build
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ProblemSpec(family, **fields)


def test_generators_reject_the_choices_problem_spec_rejects():
    with pytest.raises(ValueError, match="^tau_mode must be 'h' or '500h', got '1h'$"):
        gen_ex241(4, "1h")
    with pytest.raises(ValueError, match="^stencil must be 'h2' or 'unit', got 'h3'$"):
        gen_ex242(4, stencil="h3")


def test_problem_spec_takes_integer_and_numpy_real_fields():
    spec = ProblemSpec("ex31", n=4, t=1)
    assert spec.label() == "ex31(n=4,t=1)" and spec.build().n == 4
    spec = ProblemSpec("ex242", m=2, sigma1=np.float64(-5.0), sigma2=np.float32(2.5))
    assert spec.label() == "ex242(m=2,s1=-5,s2=2.5,stencil=h2)" and spec.build().n == 4
