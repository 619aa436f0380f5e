"""Property tests: the n x n half-steps, sweeps and residuals of the matrix
equation solvers against the sparse Kronecker lifts they stand for."""
import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from gadisolve import (LyapunovProblem, NewtonState, RiccatiProblem,
                       SplitParams, build_newton_lift, lift_lyapunov,
                       step, unvec, vec)
from gadisolve.matrixeq import (_eigh, _first_half, _gadi_step, _lifted,
                                _second_half, _sylvester_solver)
from helpers import random_psd, random_spd, symmetrize

TOL = 1e-12
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=40)
INSTANCE = dict(n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
                a=st.floats(0.5, 5.0), om=st.floats(0.0, 1.9))


def rel(x, y):
    return np.linalg.norm(x - y) / max(np.linalg.norm(y), 1e-300)


def cmatrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def lyapunov(rng, n):
    C = cmatrix(rng, n)
    return LyapunovProblem(sp.csr_array(random_spd(rng, n)),
                           sp.csr_array(symmetrize(rng.standard_normal((n, n)))),
                           C + C.conj().T)


def newton(rng, n, a):
    """A Newton step equation whose S = X_k G has 2-norm a / 4, so that its
    lifted second coefficient aI + iT~ - g_lift stays well conditioned."""
    C = cmatrix(rng, n)
    p = RiccatiProblem(sp.csr_array(random_spd(rng, n)), sp.csr_array(random_psd(rng, n)),
                       random_psd(rng, n, 0.1, 1.0).astype(complex), C @ C.conj().T)
    Xk = cmatrix(rng, n)
    Xk = Xk + Xk.conj().T
    Xk *= a / (4.0 * np.linalg.norm(Xk @ p.G, 2))
    state = NewtonState(k=0, X=Xk, A_k=p.dense_A() - p.G @ Xk, Q_k=-Xk @ p.G @ Xk - p.Q)
    return p, state, Xk @ p.G


def lifted_solve(M, r):
    return spla.spsolve(sp.csc_array(M, dtype=complex), r)


@PROPERTY
@given(**INSTANCE)
def test_lyapunov_half_steps_match_lift(n, seed, a, om):
    rng = np.random.default_rng(seed)
    p = lyapunov(rng, n)
    lift = lift_lyapunov(p)
    I = sp.eye_array(n * n)
    R = cmatrix(rng, n)
    want1 = unvec(lifted_solve(a * I + lift.w_lift, vec(R)), n, n)
    assert rel(_first_half(_eigh(p.W), a)(R), want1) <= TOL
    want2 = unvec(lifted_solve(a * I + 1j * lift.t_lift, vec(R)), n, n)
    assert rel(_second_half(p.T, a)(R), want2) <= TOL


@PROPERTY
@given(**INSTANCE)
def test_lyapunov_sweeps_and_residual_match_lift(n, seed, a, om):
    rng = np.random.default_rng(seed)
    p = lyapunov(rng, n)
    lift = lift_lyapunov(p)
    X = cmatrix(rng, n)
    for method in ("gadi", "hss"):
        params = SplitParams(method, a, om)
        sweep = _gadi_step(p, None, p.Q, _first_half(_eigh(p.W), a), _second_half(p.T, a), params)
        want = step(lift.as_system(), params, vec(X))
        assert rel(vec(sweep(X, None)[0]), want) <= TOL
    want = lift.w_lift @ vec(X) + 1j * (lift.t_lift @ vec(X))
    assert rel(vec(_lifted(p, None, X)), want) <= TOL


@PROPERTY
@given(**INSTANCE)
def test_newton_half_step_sweep_and_residual_match_lift(n, seed, a, om):
    rng = np.random.default_rng(seed)
    p, state, S = newton(rng, n, a)
    lift = build_newton_lift(state, p)
    I = sp.eye_array(n * n)
    m1 = a * I + lift.w_lift
    m2 = a * I + 1j * lift.t_lift - lift.g_lift
    R = cmatrix(rng, n)
    half2 = _sylvester_solver(p.T, S, a)
    assert rel(half2(R), unvec(lifted_solve(m2, vec(R)), n, n)) <= TOL

    X = cmatrix(rng, n)
    x = vec(X)
    Sx = 1j * (lift.t_lift @ x) - lift.g_lift @ x
    xh = lifted_solve(m1, a * x - Sx + lift.q)
    want = lifted_solve(m2, Sx - (1 - om) * a * x + (2 - om) * a * xh)
    step = _gadi_step(p, S, state.Q_k, _first_half(_eigh(p.W), a), half2,
                      SplitParams("gadi", a, om))
    assert rel(vec(step(X, None)[0]), want) <= TOL
    assert rel(vec(_lifted(p, S, X)), lift.matvec(x)) <= TOL
