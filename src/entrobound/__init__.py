"""Finite-size min-entropy uncertainty bounds for qubit measurements.

Closed-form certified rates and minimal block lengths for two-basis (BB84)
and three-basis (six-state) measurement protocols, exact conditional
entropies of finite probability tables, a desk-scale density-operator
simulator producing those tables, and brute-force verification suites for
the tight relations the bounds rest on.

Exports load their module on first access (PEP 562), so importing the
package, or only the bound layer, does not import numpy.
"""

import importlib

# Module of each export, loaded on first access.
_EXPORTS = {
    "bounds": (
        "FigureRow", "InfeasibleRateError", "RateResult", "binary_entropy", "figure_rows",
        "legacy_epsilon", "legacy_min_n", "min_n_for_rate", "plain_minentropy_rate_bb84",
        "rate_bb84", "rate_six", "renyi_floor", "renyi_to_smooth_min_entropy",
    ),
    "entropy": ("cond_min_entropy", "cond_renyi_entropy", "cond_shannon_entropy", "renyi_power_sum"),
    "families": ("MeasurementFamily",),
    "simulator": (
        "DensityOperator", "EnsembleMember", "StateEnsemble", "bloch_state",
        "measurement_operator", "outcome_table", "post_measurement_state", "product_eigenstate",
        "random_densities", "random_density",
    ),
    "tables": ("ConditionalTable", "Context", "load_table", "table_from_json_dict", "uniform_table"),
    "verify": (
        "VerificationReport", "additivity_trial", "bb84_surface", "bloch_power_sum",
        "curvature_gap", "curvature_gap_series", "curvature_gap_sweep", "endpoint_curvature",
        "ensemble_trial", "grid_search_min", "midpoint_curvature", "six_state_surface",
        "stationary_signs", "surface_entropy",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:  # submodule names too: ``from entrobound import cli`` then imports it
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
