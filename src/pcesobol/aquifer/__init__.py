"""Desk-scale 15-layer aquifer cross-section: flow and mean lifetime expectancy.

The bundled model maps a 78-entry parameter vector (five properties per
layer plus three boundary hydraulic gradients) to the scalar mean lifetime
expectancy averaged over the target zone, in years.  ``evaluate`` is the
black box handed to the sensitivity pipeline.

Importing this package loads the model description (``model``: numpy and
PyYAML only), so the demo random vector and parameter names cost no
scipy.  The solver's names (``evaluate``, ``solve_flow`` and the rest) are
served from ``solver``, which loads ``scipy.sparse``, on their first use.
A caller that maps model rows over forked workers resolves
``aquifer.evaluate`` before the map, so the workers inherit the solver
rather than each import it.
"""

from .model import (
    CrossSectionModel,
    Layer,
    BoundarySegment,
    ModelParameters,
    default_model,
    nominal_parameters,
    parameter_names,
    random_vector,
    validate_parameters,
    LAYER_PROPERTIES,
)

# served by __getattr__ from .solver, which imports scipy.sparse
_SOLVER_NAMES = (
    "ConvergenceError",
    "FlowField",
    "MleField",
    "OutflowBudget",
    "evaluate",
    "outflow_budget",
    "solve_flow",
    "solve_mle",
    "write_fields",
)

__all__ = [
    "BoundarySegment",
    "CrossSectionModel",
    "LAYER_PROPERTIES",
    "Layer",
    "ModelParameters",
    "default_model",
    "nominal_parameters",
    "parameter_names",
    "random_vector",
    "validate_parameters",
    *_SOLVER_NAMES,
]


def __getattr__(name):
    if name in _SOLVER_NAMES:
        from . import solver

        return getattr(solver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SOLVER_NAMES))
