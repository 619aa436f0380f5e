"""Property tests: the n x n half-steps, sweeps and residuals of the matrix
equation solvers against the sparse Kronecker lifts they stand for."""
from unittest import mock

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from gadisolve import (LyapunovProblem, NewtonState, RiccatiProblem,
                       SplitParams, build_newton_lift, lift_lyapunov, matrixeq,
                       newton_gadi_riccati, step, unvec, vec)
from gadisolve.matrixeq import _congruence, _eigh, _EigenSweep, _lyapunov_part, _newton_part
from helpers import random_orthogonal, random_psd, random_spd, symmetrize

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


def newton_state(p, Xk):
    return NewtonState(k=0, X=Xk, A_k=p.dense_A() - p.G @ Xk, Q_k=-Xk @ p.G @ Xk - p.Q)


def newton(rng, n, a):
    """A Newton step equation whose S = X_k G has 2-norm a / 4, so that its
    lifted second coefficient aI + iT~ - g_lift stays well conditioned."""
    C = cmatrix(rng, n)
    p = RiccatiProblem(sp.csr_array(random_spd(rng, n)), sp.csr_array(random_psd(rng, n)),
                       random_psd(rng, n, 0.1, 1.0).astype(complex), C @ C.conj().T)
    Xk = cmatrix(rng, n)
    Xk = Xk + Xk.conj().T
    Xk *= a / (4.0 * np.linalg.norm(Xk @ p.G, 2))
    return p, newton_state(p, Xk), Xk @ p.G


def near_jordan_newton(rng, n, a):
    """A Newton step equation (n >= 2) whose C = aI - iT - S has an
    eigenvector matrix V far above the bound on ||V||_1 ||V^-1||_1: in a
    random orthogonal basis, S = X_k G is (a / 4) [[0, 1e-10], [1, 0]] (+) 0, a
    near Jordan block, and T = t I. S has 2-norm a / 4, as in :func:`newton`."""
    n = max(n, 2)
    B = random_orthogonal(rng, n)
    g = np.ones(n)
    g[1] = 1e-10
    J = np.zeros((n, n))
    J[0, 1] = J[1, 0] = a / 4.0
    C = cmatrix(rng, n)
    p = RiccatiProblem(sp.csr_array(random_spd(rng, n)),
                       sp.csr_array(rng.uniform(0.0, 1.0) * np.eye(n)),
                       symmetrize((B * g) @ B.T).astype(complex), C @ C.conj().T)
    Xk = symmetrize(B @ J @ B.T).astype(complex)
    return p, newton_state(p, Xk), Xk @ p.G


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
@given(**INSTANCE, near_jordan=st.booleans())
def test_newton_half_step_sweep_and_residual_match_lift(n, seed, a, om, near_jordan):
    # the near-Jordan C fails the eigenbasis bound: its half-steps are the
    # Schur fallback's
    rng = np.random.default_rng(seed)
    p, state, S = (near_jordan_newton if near_jordan else newton)(rng, n, a)
    n = p.n
    lift = build_newton_lift(state, p)
    I = sp.eye_array(n * n)
    params = SplitParams("gadi", a, om)
    X = cmatrix(rng, n)
    x = vec(X)
    part = _newton_part(p.T.toarray(), S, params)
    assert (part[1] is None) == near_jordan
    sweep = _EigenSweep(_eigh(p.W), state.Q_k, params, part, X)
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


def random_riccati(rng, n):
    """W = B B^T + 0.1 I, T the symmetric part of a normal matrix,
    G = g g^H / n + 1e-3 I with g complex normal n x 2, and Q = q q^H with q
    complex normal n x 1."""
    B = rng.standard_normal((n, n))
    T = symmetrize(rng.standard_normal((n, n)))
    g = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    q = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    return RiccatiProblem(B @ B.T + 0.1 * np.eye(n), T,
                          g @ g.conj().T / n + 1e-3 * np.eye(n), q @ q.conj().T)


def newton_outcome(p, x0):
    """How a Newton-GADI solve ends: (converged, per-step inner sweeps) and
    X, or the error's type, message and inner sweep count and no X."""
    try:
        r = newton_gadi_riccati(p, outer_tol=1e-8, max_outer=60, x0=x0)
    except RuntimeError as err:  # InnerSolverError, or a singular step equation
        return (type(err), str(err), getattr(err, "iterations", None)), None
    return (r.converged, [s.inner_iterations for s in r.states]), r.X


@PROPERTY
@given(n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1), zero_start=st.booleans())
def test_newton_eigenbasis_and_schur_half_steps_end_alike(n, seed, zero_start):
    p = random_riccati(np.random.default_rng(seed), n)
    x0 = np.zeros((n, n)) if zero_start else None
    end, X = newton_outcome(p, x0)
    with mock.patch.object(matrixeq, "NEWTON_EIG_COND", 0.0):  # every step takes Schur
        schur_end, schur_X = newton_outcome(p, x0)
    assert end == schur_end
    if X is not None:
        assert rel(X, schur_X) <= 1e-12
