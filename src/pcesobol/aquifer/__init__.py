"""Desk-scale 15-layer aquifer cross-section: flow and mean lifetime expectancy.

The bundled model maps a 78-entry parameter vector (five properties per
layer plus three boundary hydraulic gradients) to the scalar mean lifetime
expectancy averaged over the target zone, in years.  ``evaluate`` is the
black box handed to the sensitivity pipeline.
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
from .solver import (
    ConvergenceError,
    FlowField,
    MleField,
    OutflowBudget,
    evaluate,
    outflow_budget,
    solve_flow,
    solve_mle,
    write_fields,
)

__all__ = [
    "BoundarySegment",
    "ConvergenceError",
    "CrossSectionModel",
    "FlowField",
    "LAYER_PROPERTIES",
    "Layer",
    "MleField",
    "ModelParameters",
    "OutflowBudget",
    "default_model",
    "evaluate",
    "nominal_parameters",
    "outflow_budget",
    "parameter_names",
    "random_vector",
    "solve_flow",
    "solve_mle",
    "validate_parameters",
    "write_fields",
]
