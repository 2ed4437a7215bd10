"""Product-integration solver for weakly singular Fredholm equations on S^2.

The second-kind equation phi - integral of h(|x-y|) K(x,y) phi(y) is solved
in two stages: collocation at the nodes of a quadrature rule whose weights
absorb the singular factor h analytically (via Legendre moments of the 1-D
profile), then a natural interpolant evaluated anywhere on the sphere.  The
quality of a rule is measured by its Marcinkiewicz-Zygmund constant.

The weights come from the addition theorem as BLAS products of harmonic
basis matrices.
"""

from .experiments import (DEFAULT_GRID_SEED, DEFAULT_GRID_SIZE,
                          EXPERIMENT_IDS, ExperimentRecord, experiment_f,
                          experiment_kernels, recompute_f, run_experiment)
from .harmonics import eval_basis_matrix, legendre_table
from .moments import (ModifiedMoments, OracleAccuracyWarning, SingularKernel,
                      modified_moments, moments_algebraic, moments_log,
                      moments_mixed, oracle_moments_vector)
from .mz import MZReport, gram_matrix, mz_constant
from .pointsets import (PointFileError, QuadratureRule, bundled_pointset_path,
                        bundled_pointsets, equal_area_points, load_pointset,
                        random_rule, save_pointset)
from .solver import (ContinuousKernel, DiscreteSolution, IllConditionedWarning,
                     NonFiniteInputError, ProblemSpec, SingularSystemError,
                     assemble_system, evaluate_stage2, solve_stage1,
                     uniform_error, weight_matrix)
from .sphere import EvaluationGrid, mesh_norm, uniform_random_points

__version__ = "0.1.0"

__all__ = [
    "EvaluationGrid", "mesh_norm", "uniform_random_points",
    "eval_basis_matrix", "legendre_table",
    "PointFileError", "QuadratureRule", "bundled_pointset_path",
    "bundled_pointsets", "equal_area_points", "load_pointset", "random_rule",
    "save_pointset",
    "MZReport", "gram_matrix", "mz_constant",
    "ModifiedMoments", "OracleAccuracyWarning", "SingularKernel",
    "modified_moments", "moments_algebraic", "moments_log", "moments_mixed",
    "oracle_moments_vector",
    "ContinuousKernel", "DiscreteSolution", "IllConditionedWarning",
    "NonFiniteInputError", "ProblemSpec", "SingularSystemError",
    "assemble_system", "evaluate_stage2", "solve_stage1", "uniform_error",
    "weight_matrix",
    "DEFAULT_GRID_SEED", "DEFAULT_GRID_SIZE", "EXPERIMENT_IDS",
    "ExperimentRecord", "experiment_f", "experiment_kernels", "recompute_f",
    "run_experiment",
    "__version__",
]
