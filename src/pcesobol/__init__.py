"""Sparse polynomial chaos surrogates and Sobol' sensitivity analysis.

Build sparse chaos expansions of black-box models from Latin hypercube
designs, then read the full ladder of Sobol' indices, error estimates and
univariate effects straight off the coefficients.  A coarse-grid layered
aquifer model (steady flow plus mean lifetime expectancy) ships as the
bundled high-dimensional demonstration black box.
"""

from .probability import Marginal, RandomVector
from .sampling import ExperimentalDesign, lhs, load_responses_csv, nested_lhs_enrich
from .basis import (
    MultiIndexSet,
    count_total_degree,
    enumerate_hyperbolic,
    eval_basis_matrix,
    eval_orthonormal_all,
)
from .evaluation import evaluate_rows
from .regression import (
    FitDiagnostics,
    SparsePce,
    adaptive_fit,
    corrected_loo,
    generalization_error,
    hybrid_fit,
    lar_path,
    loo_error,
)
from .sensitivity import (
    SobolReport,
    SubsampleStudy,
    UnivariateEffect,
    grouped_sums,
    moments,
    repeated_subsample_study,
    screen,
    sobol_first,
    sobol_group,
    sobol_report,
    sobol_second,
    sobol_total,
    total_variance,
    univariate_effect,
)
from . import aquifer

__version__ = "0.1.0"

__all__ = [
    "ExperimentalDesign",
    "FitDiagnostics",
    "Marginal",
    "MultiIndexSet",
    "RandomVector",
    "SobolReport",
    "SparsePce",
    "SubsampleStudy",
    "UnivariateEffect",
    "adaptive_fit",
    "aquifer",
    "corrected_loo",
    "count_total_degree",
    "enumerate_hyperbolic",
    "eval_basis_matrix",
    "eval_orthonormal_all",
    "evaluate_rows",
    "generalization_error",
    "grouped_sums",
    "hybrid_fit",
    "lar_path",
    "lhs",
    "load_responses_csv",
    "loo_error",
    "moments",
    "nested_lhs_enrich",
    "repeated_subsample_study",
    "screen",
    "sobol_first",
    "sobol_group",
    "sobol_report",
    "sobol_second",
    "sobol_total",
    "total_variance",
    "univariate_effect",
]
