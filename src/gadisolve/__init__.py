"""Splitting iterations for complex symmetric linear systems, with Kronecker
lifted Lyapunov and Newton-GADI Riccati solvers and a benchmark harness."""

from .linalg import (BreakdownError, DirectSolver, InnerSolverError,
                     NotPositiveDefiniteError, cg_hpd, cocg_sym, kron,
                     load_dense_block, load_matrix_coo, load_vector,
                     save_dense_block, save_matrix_coo, save_vector, unvec,
                     vec)
from .splitting import (METHODS, ComplexSymSystem, SolveConfig, SolveReport,
                        SplitParams, default_alpha, run_stationary,
                        run_stationary_grid, step)
from .spectral import (IterationMatrixPair, SpectrumSummary,
                       build_iteration_matrices, eig_extremes_spd,
                       optimal_alpha, sigma_bound, spectral_radius)
from .matrixeq import (LyapunovLift, LyapunovProblem, NewtonLift, NewtonState,
                       RiccatiProblem, RiccatiResult, build_newton_lift,
                       lift_lyapunov, load_lyapunov_problem,
                       load_riccati_problem, lyapunov_residual,
                       newton_gadi_riccati, newton_initial_guess,
                       riccati_residual, save_lyapunov_problem,
                       save_riccati_problem, solve_lyapunov_gadi,
                       solve_lyapunov_hss)
from .problems import (ProblemSpec, gen_ex241, gen_ex242, gen_ex31, gen_ex421,
                       load_system, save_system)

__version__ = "0.1.0"
