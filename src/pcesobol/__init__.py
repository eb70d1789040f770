"""Sparse polynomial chaos surrogates and Sobol' sensitivity analysis.

Build sparse chaos expansions of black-box models from Latin hypercube
designs, then read the full ladder of Sobol' indices, error estimates and
univariate effects straight off the coefficients.  A coarse-grid layered
aquifer model (steady flow plus mean lifetime expectancy) ships as the
bundled high-dimensional demonstration black box, in the ``pcesobol.aquifer``
subpackage: ``from pcesobol import aquifer`` loads it, ``import pcesobol``
does not.

The path from design to fit to indices needs numpy alone.  scipy serves
the aquifer model's solver and the Gaussian ``Marginal.cdf`` and ``ppf``
(which the LHS calls for Gaussian inputs), and is loaded when one of them
is first used, so a process that fits over uniform inputs, the aquifer's
own included, never pays for it.

Importing the package sets each BLAS and OpenMP thread-count variable the
user has not set to 1 (see ``evaluation``).  A degree sweep's fits run on
one forked worker per core, and one BLAS thread each keeps them from
competing for the cores.  A BLAS library reads these variables once, when
numpy loads it, so they pin its threads only when this package is imported
before numpy, as the ``pcesobol`` command does; otherwise, unless the
variables were set before numpy loaded, the fits run in this process.
Subprocesses, such as external-model commands, inherit the variables
either way.
"""

# first: the evaluation module pins BLAS threads before numpy loads
from .evaluation import evaluate_rows
from .probability import Marginal, RandomVector
from .sampling import ExperimentalDesign, lhs, load_responses_csv, nested_lhs_enrich
from .basis import (
    MultiIndexSet,
    count_total_degree,
    enumerate_hyperbolic,
    eval_basis_matrix,
    eval_orthonormal_all,
)
from .regression import (
    FitDiagnostics,
    SparsePce,
    adaptive_fit,
    adaptive_fit_draws,
    generalization_error,
    hybrid_fit,
    lar_path,
    loo_error,
)
from .sensitivity import (
    SobolReport,
    SubsampleStudy,
    moments,
    repeated_subsample_study,
    sobol_first,
    sobol_report,
    sobol_second,
    sobol_total,
    total_variance,
    univariate_effect,
)

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
    "adaptive_fit",
    "adaptive_fit_draws",
    "aquifer",
    "count_total_degree",
    "enumerate_hyperbolic",
    "eval_basis_matrix",
    "eval_orthonormal_all",
    "evaluate_rows",
    "generalization_error",
    "hybrid_fit",
    "lar_path",
    "lhs",
    "load_responses_csv",
    "loo_error",
    "moments",
    "nested_lhs_enrich",
    "repeated_subsample_study",
    "sobol_first",
    "sobol_report",
    "sobol_second",
    "sobol_total",
    "total_variance",
    "univariate_effect",
]
