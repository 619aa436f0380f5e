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
from gadisolve.matrixeq import _congruence, _eigh, _EigenSweep, _lyapunov_part, _newton_part
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


def eigen_sweep(p, params, X):
    """The eigen-coordinate sweep of the Lyapunov problem ``p`` and the state
    of the iterate X."""
    sweep = _EigenSweep(_eigh(p.W), p.Q, params, _lyapunov_part(p.T, params), X)
    return sweep, sweep.start


def assert_state_is(p, sweep, state, lift, x):
    """The state holds the iterate x, and its r_U is U^T R U for the lifted
    residual R = q - (w_lift + i t_lift) x, less g_lift x for a Newton lift."""
    n = p.n
    assert rel(vec(sweep.x(state)), x) <= TOL
    r = lift.q - lift.w_lift @ x - 1j * (lift.t_lift @ x)
    if hasattr(lift, "g_lift"):
        r = r + lift.g_lift @ x
    assert rel(state[2], _congruence(_eigh(p.W)[1], unvec(r, n, n))) <= TOL


@PROPERTY
@given(**INSTANCE)
def test_lyapunov_half_steps_match_lift(n, seed, a, om):
    rng = np.random.default_rng(seed)
    p = lyapunov(rng, n)
    lift = lift_lyapunov(p)
    I = sp.eye_array(n * n)
    X = cmatrix(rng, n)
    x = vec(X)
    sweep, state = eigen_sweep(p, SplitParams("gadi", a, om), X)
    Xh_V = sweep.first(state)
    tx = 1j * (lift.t_lift @ x)
    xh = lifted_solve(a * I + lift.w_lift, a * x - tx + lift.q)
    assert rel(vec(sweep.x(sweep.state(Xh_V))), xh) <= TOL
    want = lifted_solve(a * I + 1j * lift.t_lift, tx - (1 - om) * a * x + (2 - om) * a * xh)
    assert_state_is(p, sweep, sweep.second(state, Xh_V), lift, want)


@PROPERTY
@given(**INSTANCE)
def test_lyapunov_sweeps_and_residual_match_lift(n, seed, a, om):
    rng = np.random.default_rng(seed)
    p = lyapunov(rng, n)
    lift = lift_lyapunov(p)
    X = cmatrix(rng, n)
    for method in ("gadi", "hss"):
        params = SplitParams(method, a, om)
        sweep, state = eigen_sweep(p, params, X)
        assert_state_is(p, sweep, state, lift, vec(X))
        new, inner = sweep.step(state, None)
        assert inner == 0
        assert_state_is(p, sweep, new, lift, step(lift.as_system(), params, vec(X)))


@PROPERTY
@given(**INSTANCE)
def test_newton_half_step_sweep_and_residual_match_lift(n, seed, a, om):
    rng = np.random.default_rng(seed)
    p, state, S = newton(rng, n, a)
    lift = build_newton_lift(state, p)
    I = sp.eye_array(n * n)
    params = SplitParams("gadi", a, om)
    X = cmatrix(rng, n)
    x = vec(X)
    sweep = _EigenSweep(_eigh(p.W), state.Q_k, params, _newton_part(p.T.toarray(), S, params), X)
    start = sweep.start
    assert_state_is(p, sweep, start, lift, x)

    Kx = 1j * (lift.t_lift @ x) - lift.g_lift @ x
    xh = lifted_solve(a * I + lift.w_lift, a * x - Kx + lift.q)
    Xh_Z = sweep.first(start)
    assert rel(vec(sweep.x(sweep.state(Xh_Z))), xh) <= TOL
    want = lifted_solve(a * I + 1j * lift.t_lift - lift.g_lift,
                        Kx - (1 - om) * a * x + (2 - om) * a * xh)
    new = sweep.second(start, Xh_Z)
    assert_state_is(p, sweep, new, lift, want)
    swept, inner = sweep.step(start, None)
    assert inner == 0
    assert np.array_equal(swept[0], new[0])
