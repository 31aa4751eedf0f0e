"""Finite-size min-entropy uncertainty bounds for qubit measurements.

Closed-form certified rates and minimal block lengths for two-basis (BB84)
and three-basis (six-state) measurement protocols, exact conditional
entropies of finite probability tables, a desk-scale density-operator
simulator producing those tables, and brute-force verification suites for
the tight relations the bounds rest on.
"""

from .bounds import (
    InfeasibleRateError,
    RateResult,
    legacy_epsilon,
    legacy_min_n,
    min_n_for_rate,
    plain_minentropy_rate_bb84,
    renyi_to_smooth_min_entropy,
    rate_bb84,
    rate_six,
    renyi_floor,
)
from .entropy import (
    binary_entropy,
    cond_min_entropy,
    cond_renyi_entropy,
    cond_shannon_entropy,
    renyi_power_sum,
)
from .families import MeasurementFamily
from .simulator import (
    DensityOperator,
    EnsembleMember,
    StateEnsemble,
    bloch_state,
    measurement_operator,
    outcome_table,
    post_measurement_state,
    product_eigenstate,
    random_densities,
    random_density,
)
from .tables import ConditionalTable, Context, load_table, table_from_json_dict, uniform_table
from .verify import (
    FigureRow,
    VerificationReport,
    additivity_trial,
    ensemble_trial,
    figure_rows,
    grid_search_min,
    curvature_gap,
    curvature_gap_series,
    curvature_gap_sweep,
    six_state_surface,
    bb84_surface,
    bloch_power_sum,
    endpoint_curvature,
    midpoint_curvature,
    stationary_signs,
    surface_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "ConditionalTable",
    "Context",
    "DensityOperator",
    "EnsembleMember",
    "FigureRow",
    "InfeasibleRateError",
    "MeasurementFamily",
    "RateResult",
    "StateEnsemble",
    "VerificationReport",
    "additivity_trial",
    "binary_entropy",
    "bloch_power_sum",
    "bloch_state",
    "cond_min_entropy",
    "cond_renyi_entropy",
    "cond_shannon_entropy",
    "ensemble_trial",
    "figure_rows",
    "grid_search_min",
    "legacy_epsilon",
    "legacy_min_n",
    "curvature_gap",
    "curvature_gap_series",
    "curvature_gap_sweep",
    "load_table",
    "six_state_surface",
    "measurement_operator",
    "min_n_for_rate",
    "outcome_table",
    "plain_minentropy_rate_bb84",
    "post_measurement_state",
    "product_eigenstate",
    "bb84_surface",
    "renyi_to_smooth_min_entropy",
    "random_densities",
    "random_density",
    "rate_bb84",
    "rate_six",
    "renyi_floor",
    "renyi_power_sum",
    "endpoint_curvature",
    "midpoint_curvature",
    "stationary_signs",
    "surface_entropy",
    "table_from_json_dict",
    "uniform_table",
]
