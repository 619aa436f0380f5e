"""The ex241/ex242 preset rows against the exact per-mode oracle.

In both families W and T are diagonalized by the orthonormal 2-D DST-I S, so
every method's residual after k sweeps from x = 0 is g^k (.) S b, with one
factor g_j per mode (``helpers.mode_factors``). That predicts IT and RES of
every row without running a sweep. The rows of table1, table2, fig1 and fig2
are pinned here (every column but CPU), and each row the program writes must
be the oracle's: IT exactly, RES in its printed %.4e, and a swept GADI row the
oracle's best cell of the whole grid.
"""
import csv
import io

import numpy as np
import pytest

from gadisolve import default_alpha
from gadisolve.bench import (METHOD_ALIASES, SWEEP_MAX_OUTER, SWEEP_OMEGAS, BenchmarkRow,
                             _auto_grid, _write_rows, best_cell, build_preset, run_grid)
from gadisolve.problems import ProblemSpec
from gadisolve.spectral import SpectrumSummary, sigma_bound
from helpers import joint_sine_factors, mode_factors, predicted_history

SIZES = (8, 16, 24, 32, 48)

LINEAR_ROWS = {
    "table1": """\
mhss,64,"ex241(m=8,tau=h,stencil=unit)",14.94614645,0,9.0741e-06,20,true
pmhss,64,"ex241(m=8,tau=h,stencil=unit)",1,0,7.9573e-06,21,true
pmhss-vi,64,"ex241(m=8,tau=h,stencil=unit)",14.94614645,0,9.0741e-06,20,true
cri,64,"ex241(m=8,tau=h,stencil=unit)",1,0,3.7427e-06,12,true
tscsp,64,"ex241(m=8,tau=h,stencil=unit)",1,0,9.4399e-06,10,true
mhss,256,"ex241(m=16,tau=h,stencil=unit)",25.25084577,0,6.5470e-06,21,true
pmhss,256,"ex241(m=16,tau=h,stencil=unit)",1,0,8.5287e-06,21,true
pmhss-vi,256,"ex241(m=16,tau=h,stencil=unit)",25.25084577,0,6.5470e-06,21,true
cri,256,"ex241(m=16,tau=h,stencil=unit)",1,0,8.0480e-06,11,true
tscsp,256,"ex241(m=16,tau=h,stencil=unit)",1,0,3.5846e-06,11,true
mhss,576,"ex241(m=24,tau=h,stencil=unit)",35.47746672,0,7.3216e-06,21,true
pmhss,576,"ex241(m=24,tau=h,stencil=unit)",1,0,8.8020e-06,21,true
pmhss-vi,576,"ex241(m=24,tau=h,stencil=unit)",35.47746672,0,7.3216e-06,21,true
cri,576,"ex241(m=24,tau=h,stencil=unit)",1,0,7.2787e-06,11,true
tscsp,576,"ex241(m=24,tau=h,stencil=unit)",1,0,3.8789e-06,11,true
mhss,1024,"ex241(m=32,tau=h,stencil=unit)",45.66906152,0,7.7995e-06,21,true
pmhss,1024,"ex241(m=32,tau=h,stencil=unit)",1,0,8.9746e-06,21,true
pmhss-vi,1024,"ex241(m=32,tau=h,stencil=unit)",45.66906152,0,7.7995e-06,21,true
cri,1024,"ex241(m=32,tau=h,stencil=unit)",1,0,6.8913e-06,11,true
tscsp,1024,"ex241(m=32,tau=h,stencil=unit)",1,0,4.1032e-06,11,true
mhss,2304,"ex241(m=48,tau=h,stencil=unit)",66.00892235,0,8.3560e-06,21,true
pmhss,2304,"ex241(m=48,tau=h,stencil=unit)",1,0,9.1832e-06,21,true
pmhss-vi,2304,"ex241(m=48,tau=h,stencil=unit)",66.00892235,0,8.3560e-06,21,true
cri,2304,"ex241(m=48,tau=h,stencil=unit)",1,0,6.4966e-06,11,true
tscsp,2304,"ex241(m=48,tau=h,stencil=unit)",1,0,4.4234e-06,11,true
gadi,64,"ex241(m=8,tau=h,stencil=unit)",14.94614645,0.1,2.7816e-06,5,true
gadi,256,"ex241(m=16,tau=h,stencil=unit)",25.25084577,0.1,5.1499e-06,4,true
gadi,576,"ex241(m=24,tau=h,stencil=unit)",35.47746672,0.01,2.8625e-06,4,true
gadi,1024,"ex241(m=32,tau=h,stencil=unit)",45.66906152,0.01,8.9936e-07,4,true
gadi,2304,"ex241(m=48,tau=h,stencil=unit)",66.00892235,0.01,6.7286e-06,3,true
gadi,64,"ex241(m=8,tau=500h,stencil=unit)",1.220344639,0,9.3416e-06,25,true
gadi,256,"ex241(m=16,tau=500h,stencil=unit)",0.8017809111,0,8.0381e-06,38,true
gadi,576,"ex241(m=24,tau=500h,stencil=unit)",0.7434170195,0,8.5134e-06,40,true
gadi,1024,"ex241(m=32,tau=500h,stencil=unit)",0.771414844,0,8.7833e-06,38,true
gadi,2304,"ex241(m=48,tau=500h,stencil=unit)",0.8827669893,0,8.7020e-06,33,true
""",
    "table2": """\
mhss,64,"ex242(m=8,s1=100,s2=100,stencil=unit)",1.283111766,0,7.6725e-06,17,true
pmhss,64,"ex242(m=8,s1=100,s2=100,stencil=unit)",1,0,7.6304e-06,17,true
pmhss-vi,64,"ex242(m=8,s1=100,s2=100,stencil=unit)",1.283111766,0,7.6725e-06,17,true
cri,64,"ex242(m=8,s1=100,s2=100,stencil=unit)",1,0,7.6274e-06,17,true
tscsp,64,"ex242(m=8,s1=100,s2=100,stencil=unit)",1,0,1.6440e-08,2,true
mhss,256,"ex242(m=16,s1=100,s2=100,stencil=unit)",0.3596043168,0,7.6749e-06,17,true
pmhss,256,"ex242(m=16,s1=100,s2=100,stencil=unit)",1,0,7.6298e-06,17,true
pmhss-vi,256,"ex242(m=16,s1=100,s2=100,stencil=unit)",0.3596043168,0,7.6749e-06,17,true
cri,256,"ex242(m=16,s1=100,s2=100,stencil=unit)",1,0,7.6285e-06,17,true
tscsp,256,"ex242(m=16,s1=100,s2=100,stencil=unit)",1,0,9.3095e-09,2,true
mhss,576,"ex242(m=24,s1=100,s2=100,stencil=unit)",0.1662788123,0,7.6758e-06,17,true
pmhss,576,"ex242(m=24,s1=100,s2=100,stencil=unit)",1,0,7.6297e-06,17,true
pmhss-vi,576,"ex242(m=24,s1=100,s2=100,stencil=unit)",0.1662788123,0,7.6758e-06,17,true
cri,576,"ex242(m=24,s1=100,s2=100,stencil=unit)",1,0,7.6288e-06,17,true
tscsp,576,"ex242(m=24,s1=100,s2=100,stencil=unit)",1,0,6.8535e-09,2,true
mhss,1024,"ex242(m=32,s1=100,s2=100,stencil=unit)",0.09543043528,0,7.6762e-06,17,true
pmhss,1024,"ex242(m=32,s1=100,s2=100,stencil=unit)",1,0,7.6296e-06,17,true
pmhss-vi,1024,"ex242(m=32,s1=100,s2=100,stencil=unit)",0.09543043528,0,7.6762e-06,17,true
cri,1024,"ex242(m=32,s1=100,s2=100,stencil=unit)",1,0,7.6290e-06,17,true
tscsp,1024,"ex242(m=32,s1=100,s2=100,stencil=unit)",1,0,5.5830e-09,2,true
mhss,2304,"ex242(m=48,s1=100,s2=100,stencil=unit)",0.04328336712,0,7.6766e-06,17,true
pmhss,2304,"ex242(m=48,s1=100,s2=100,stencil=unit)",1,0,7.6295e-06,17,true
pmhss-vi,2304,"ex242(m=48,s1=100,s2=100,stencil=unit)",0.04328336712,0,7.6766e-06,17,true
cri,2304,"ex242(m=48,s1=100,s2=100,stencil=unit)",1,0,7.6291e-06,17,true
tscsp,2304,"ex242(m=48,s1=100,s2=100,stencil=unit)",1,0,4.2512e-09,2,true
gadi,64,"ex242(m=8,s1=100,s2=100,stencil=unit)",1.283111766,0,5.3652e-06,3,true
gadi,256,"ex242(m=16,s1=100,s2=100,stencil=unit)",0.3596043168,0,6.2409e-06,3,true
gadi,576,"ex242(m=24,s1=100,s2=100,stencil=unit)",0.1662788123,0,6.5325e-06,3,true
gadi,1024,"ex242(m=32,s1=100,s2=100,stencil=unit)",0.09543043528,0,6.6786e-06,3,true
gadi,2304,"ex242(m=48,s1=100,s2=100,stencil=unit)",0.04328336712,0,6.8252e-06,3,true
""",
    "fig1": """\
mhss,1024,"ex241(m=32,tau=h,stencil=unit)",45.66906152,0,7.7995e-06,21,true
pmhss,1024,"ex241(m=32,tau=h,stencil=unit)",1,0,8.9746e-06,21,true
cri,1024,"ex241(m=32,tau=h,stencil=unit)",1,0,6.8913e-06,11,true
tscsp,1024,"ex241(m=32,tau=h,stencil=unit)",1,0,4.1032e-06,11,true
gadi,1024,"ex241(m=32,tau=h,stencil=unit)",45.66906152,0.01,8.9936e-07,4,true
""",
    "fig2": """\
mhss,1024,"ex242(m=32,s1=100,s2=100,stencil=unit)",0.09543043528,0,7.6762e-06,17,true
pmhss,1024,"ex242(m=32,s1=100,s2=100,stencil=unit)",1,0,7.6296e-06,17,true
cri,1024,"ex242(m=32,s1=100,s2=100,stencil=unit)",1,0,7.6290e-06,17,true
tscsp,1024,"ex242(m=32,s1=100,s2=100,stencil=unit)",1,0,5.5830e-09,2,true
gadi,1024,"ex242(m=32,s1=100,s2=100,stencil=unit)",0.09543043528,0.01,7.4958e-06,3,true
""",
}


def _printed(rows):
    """The rows as the CSV writer prints them, without the CPU column."""
    out = io.StringIO()
    _write_rows(rows, out)
    return [rec[:7] + rec[8:] for rec in csv.reader(io.StringIO(out.getvalue()))][1:]


def _predicted_row(method, system_factors, alpha, omega, tol, max_sweeps):
    lam, mu, sb, nb = system_factors
    history = predicted_history(mode_factors(method, lam, mu, alpha, omega), sb, nb, tol,
                                max_sweeps)
    it, res = len(history) - 1, history[-1]
    return BenchmarkRow(method, lam.size, "", alpha, omega, res, it, 0.0, res <= tol), history


@pytest.mark.parametrize("preset", sorted(LINEAR_ROWS))
def test_linear_preset_rows_are_the_oracle_rows(preset):
    rows, cells = [], []
    for cfg in build_preset(preset):
        rows += run_grid(cfg)
        cells += [(cfg, spec, method) for spec in cfg.problems for method in cfg.methods]
    assert _printed(rows) == list(csv.reader(LINEAR_ROWS[preset].splitlines()))
    factors = {}
    for row, (cfg, spec, method) in zip(rows, cells):
        system = spec.build()
        if spec.label() not in factors:
            factors[spec.label()] = (*joint_sine_factors(system), np.linalg.norm(system.b))
        name = METHOD_ALIASES.get(method, method)
        want, history = _predicted_row(name, factors[spec.label()], row.alpha, row.omega,
                                       cfg.tol, cfg.max_outer)
        assert (row.it, f"{row.res:.4e}", row.converged) == (
            want.it, f"{want.res:.4e}", want.converged), (row, want)
        # a predicted RES this close to tol would make IT hang on rounding
        for res in history[-2:]:
            assert abs(res - cfg.tol) > 1e-8 * cfg.tol, (row, res)
        if cfg.policy.kind == "sweep":
            grid = [_predicted_row(name, factors[spec.label()], a, w, cfg.tol,
                                   SWEEP_MAX_OUTER)[0]
                    for a in _auto_grid(default_alpha(system, name)) for w in SWEEP_OMEGAS]
            win = best_cell(grid)
            assert (row.alpha, row.omega) == (win.alpha, win.omega), (row, win)


@pytest.mark.parametrize("spec", [
    *(ProblemSpec("ex241", m=m, tau_mode=tau, stencil="unit")
      for tau in ("h", "500h") for m in SIZES),
    *(ProblemSpec("ex242", m=m, stencil="unit") for m in SIZES),
], ids=lambda spec: spec.label())
def test_every_sweep_grid_cell_contracts(spec):
    # the paper's convergence theory at preset scale: on every cell of the
    # 21 x 3 GADI sweep grid each mode contracts, and the HSS radius is the
    # contraction bound sigma(alpha), because the T factor has modulus 1
    system = spec.build()
    lam, mu, _ = joint_sine_factors(system)
    extremes = SpectrumSummary(float(lam.min()), float(lam.max()))
    for a in _auto_grid(default_alpha(system, "gadi")):
        bound = sigma_bound(a, extremes)
        assert abs(np.abs(mode_factors("hss", lam, mu, a)).max() - bound) <= 1e-14 * bound
        for w in SWEEP_OMEGAS:
            assert np.abs(mode_factors("gadi", lam, mu, a, w)).max() < 1.0, (a, w)
