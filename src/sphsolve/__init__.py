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
from .harmonics import (HarmonicBasis, HarmonicIndex, addition_kernel,
                        eval_basis_matrix, eval_harmonic, flat_index,
                        flat_to_index, legendre_P, legendre_table)
from .hyperinterp import (HyperCoefficients, hyper_coefficients,
                          hyper_evaluate, hyper_l2_norm)
from .moments import (ModifiedMoments, OracleAccuracyWarning, SingularKernel,
                      modified_moments, moments_algebraic, moments_log,
                      moments_mixed, moments_one, oracle_moment,
                      oracle_moments_vector, profile_integral)
from .mz import MZReport, gram_matrix, mz_constant, quadrature_error_on_harmonics
from .pointsets import (PointFileError, QuadratureRule, bundled_pointset_path,
                        bundled_pointsets, equal_area_points, load_pointset,
                        random_rule, save_pointset)
from .solver import (ContinuousKernel, DiscreteSolution, IllConditionedWarning,
                     NonFiniteInputError, ProblemSpec, SingularSystemError,
                     assemble_system, evaluate_stage2, solve_stage1,
                     uniform_error, weight_matrix, weight_row)
from .sphere import (EvaluationGrid, euclidean_distance, geodesic_distance,
                     mesh_norm, sphere_point, uniform_random_points)

__version__ = "0.1.0"

__all__ = [
    "EvaluationGrid", "euclidean_distance", "geodesic_distance", "mesh_norm",
    "sphere_point", "uniform_random_points",
    "HarmonicBasis", "HarmonicIndex", "addition_kernel", "eval_basis_matrix",
    "eval_harmonic", "flat_index", "flat_to_index", "legendre_P",
    "legendre_table",
    "PointFileError", "QuadratureRule", "bundled_pointset_path",
    "bundled_pointsets", "equal_area_points", "load_pointset", "random_rule",
    "save_pointset",
    "MZReport", "gram_matrix", "mz_constant", "quadrature_error_on_harmonics",
    "ModifiedMoments", "OracleAccuracyWarning", "SingularKernel",
    "modified_moments", "moments_algebraic", "moments_log", "moments_mixed",
    "moments_one", "oracle_moment", "oracle_moments_vector",
    "profile_integral",
    "HyperCoefficients", "hyper_coefficients", "hyper_evaluate",
    "hyper_l2_norm",
    "ContinuousKernel", "DiscreteSolution", "IllConditionedWarning",
    "NonFiniteInputError", "ProblemSpec", "SingularSystemError",
    "assemble_system", "evaluate_stage2", "solve_stage1", "uniform_error",
    "weight_matrix", "weight_row",
    "DEFAULT_GRID_SEED", "DEFAULT_GRID_SIZE", "EXPERIMENT_IDS",
    "ExperimentRecord", "experiment_f", "experiment_kernels", "recompute_f",
    "run_experiment",
    "__version__",
]
