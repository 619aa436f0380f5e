"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest perfbench -q

Each check must accept an accurate answer and reject a perturbed one: x
scaled by 1 + 1e-3, a transposed X, the stabilizing instead of the
anti-stabilizing Riccati solution, a file or matrix off by one bit.
"""
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TOL = 1e-5


@pytest.mark.parametrize("A, b", [
    (checks.ex241_matrix(8, "h"), checks.ex241_rhs(8, "h")),
    (checks.ex241_matrix(8, "500h"), checks.ex241_rhs(8, "500h")),
    (checks.ex242_matrix(8, 99.5, 100.5), checks.ex242_rhs(8, 99.5, 100.5)),
])
def test_linear_check_rejects_scaled_solution(A, b):
    x = spla.spsolve(A.tocsc(), b)
    checks.check_linear(A, b, x, TOL)
    with pytest.raises(checks.CheckError):
        checks.check_linear(A, b, x * (1 + 1e-3), TOL)


def test_ex242_rhs_has_the_all_ones_pattern():
    # b = (1+i) A_unscaled 1, so the exact solution is (1+i) times the ones vector
    A, b = checks.ex242_matrix(6, 100.0, 100.0), checks.ex242_rhs(6, 100.0, 100.0)
    x = spla.spsolve(A.tocsc(), b)
    assert np.allclose(x, (1 + 1j) * np.ones(36), rtol=1e-12)


@pytest.mark.parametrize("n, t", [(8, 0.01), (16, 0.1)])
def test_lyapunov_check_rejects_transposed_solution(n, t):
    A = checks.ex31_matrix(n, t)
    Q = np.ones((n, n), dtype=complex)
    X = sla.solve_continuous_lyapunov(A.conj().T, Q)
    checks.check_lyapunov(A, Q, X * (1 + 1e-7), TOL)
    with pytest.raises(checks.CheckError):
        checks.check_lyapunov(A, Q, X.T, TOL)


@pytest.mark.parametrize("n", [4, 8])
def test_riccati_check_rejects_stabilizing_solution(n):
    A, G, Q = checks.ex421_data(n)
    X = checks.anti_stabilizing_care(A, G, Q)
    checks.check_riccati(A, G, Q, 0.5 * (X + X.conj().T), TOL)
    stabilizing = sla.solve_continuous_are(A, np.eye(n), Q, np.linalg.inv(G))
    stabilizing = 0.5 * (stabilizing + stabilizing.conj().T)
    assert np.linalg.norm(A.conj().T @ stabilizing + stabilizing @ A + Q
                          - stabilizing @ G @ stabilizing, 2) <= 1e-8 * n
    with pytest.raises(checks.CheckError, match="real part"):
        checks.check_riccati(A, G, Q, stabilizing, TOL)


def test_file_and_matrix_checks_are_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    x = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    x[3] = complex(-0.0, 0.0)
    path = tmp_path / "x.vec"
    with open(path, "w") as fh:  # the vector exchange format, written apart from the program
        fh.write(f"{x.size}\n")
        fh.writelines(f"{c.real:.17g} {c.imag:.17g}\n" for c in x)
    checks.check_same_vector(checks.read_vector_file(path), x, "x")
    y = x.copy()
    y[10] = np.nextafter(y[10].real, np.inf) + 1j * y[10].imag
    with pytest.raises(checks.CheckError):
        checks.check_same_vector(checks.read_vector_file(path), y, "x")

    A = checks.ex241_matrix(4, "h").real
    B = A.copy()
    B.data[5] = np.nextafter(B.data[5], 0.0)
    checks.check_same_sparse(A.tocoo(), A, "A")
    with pytest.raises(checks.CheckError):
        checks.check_same_sparse(B, A, "A")


def test_self_time_subtracts_direct_children():
    spans = [["a.x", 0.0, 10.0, -1], ["b.y", 1.0, 4.0, 0], ["c.z", 2.0, 3.0, 1],
             ["b.y", 5.0, 6.0, 0]]
    tot = tracing.span_totals(spans)
    assert tot["a.x"] == (1, 10.0, 6.0)
    assert tot["b.y"] == (2, 4.0, 3.0)
    assert tot["c.z"] == (1, 1.0, 1.0)


_TRACED_SCRIPT = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
t = tracing.Tracer(); tracing.install(t); t.active = True
# names bound after install, as a caller that imports late would bind them
from gadisolve import ProblemSpec, SolveConfig, gen_ex31, gen_ex421, solve_lyapunov_gadi
from gadisolve import newton_gadi_riccati
from gadisolve.bench import ParamPolicy, RunConfig, run_grid
spec = ProblemSpec("ex241", m=4, tau_mode="h", stencil="unit")
run_grid(RunConfig((spec,), ("gadi",), ParamPolicy("sweep"), tol=1e-5, inner="exact"))
solve_lyapunov_gadi(gen_ex31(4, 0.01), config=SolveConfig(tol=1e-5, inner="exact"))
newton_gadi_riccati(gen_ex421(4), outer_tol=1e-5, inner_forcing=(0.1, 0.1))
print(json.dumps({k: v[0] for k, v in tracing.layer_metrics(t).items()}))
"""


def test_tracer_sees_calls_through_every_binding():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _TRACED_SCRIPT, HERE], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    m = json.loads(out.stdout.strip().splitlines()[-1])
    assert m["bench.instances"] == 1
    # 21 shifts x 3 relaxations in the sweep, its reported cell, the Lyapunov
    # solve and the shifted Lyapunov solve that starts the Newton iteration
    assert m["splitting.solves"] == 21 * 3 + 1 + 1 + 1
    assert m["splitting.matvecs"] == m["splitting.sweeps"] + m["splitting.solves"]
    assert m["linalg.factor_calls"] >= 2 * m["splitting.solves"]
    assert 0 < m["linalg.factor_distinct_ratio"] < 1   # one shift for three omegas
    assert m["linalg.trisolve_calls"] > 0
    assert m["spectral.shift_calls"] >= 3
    assert m["problems.build_s"] > 0
    assert m["matrixeq.lift_calls"] >= 2 and m["matrixeq.lift_nnz"] > 0
    assert m["matrixeq.newton_steps"] > 0 and m["matrixeq.inner_sweeps"] > 0
    assert m["matrixeq.initial_guess_s"] > 0
    assert m["linalg.krylov_calls"] == 0 and m["linalg.io_bytes"] == 0
