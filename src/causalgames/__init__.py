"""Causal games: interventions, mechanised graphs, equilibria, and queries.

Each layer module runs on first use.  Importing the package registers every
layer in ``sys.modules`` and binds it here without running its code; the
first attribute read of a layer runs it, as does reading one of the names
below from the package.  So a CLI command runs only the layers it calls.
"""

import importlib.util
import sys

# layer -> the names the package exports from it
_EXPORTS = {
    "errors": (
        "GameError", "GameFileError", "InterventionError", "QueryError",
        "ValidationError", "SolverError",
    ),
    "model": (
        "CHANCE", "DECISION", "UTILITY", "CausalGame", "JointDistribution",
        "PolicyProfile", "TabularCPD", "Variable", "induced_joint", "param_node",
        "rule_node", "tabulate", "validate_game",
    ),
    "kernel": ("enumerate_pure_rules", "expected_utility"),
    "graphs": (
        "BEST_RESPONSE", "MechanisedGraph", "Path", "RationalityRelation",
        "build_mechanised_graph", "reachability_paths", "relevant_mechanisms",
    ),
    "equilibrium": (
        "BehavioralFamily", "RationalOutcomeSet", "behavioral_nash_small",
        "best_responses", "optimal_commitment", "pure_nash",
        "verify_rational_outcome",
    ),
    "interventions": (
        "AddVariable", "CompoundIntervention", "Decomposition", "FixMechanism",
        "FixObject", "RemoveVariable", "SideEffectReport", "apply_all",
        "apply_journaled", "apply_primitive", "decompose",
        "incentive_invariant", "invert", "make_add_edge", "make_remove_edge",
        "minimum_intervention_set", "predicted_edge_removals", "side_effects",
    ),
    "queries": (
        "QueryJob", "QueryResult", "check_spec_env", "classify_visibility",
        "evaluate_query", "parse_query",
    ),
    "gamefile": ("load_game", "parse_game", "serialize_game"),
    "scenarios": ("Scenario", "load_scenario", "parse_scenario"),
    "dot": ("export_dot",),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = list(_LAYER_OF)
__version__ = "0.1.0"


def _register(layer):
    """Put ``layer`` in ``sys.modules`` unexecuted; its first attribute read
    runs it."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# ``cli`` stays eager: ``python -m causalgames.cli`` warns when it finds
# the module in ``sys.modules`` before running it
for _layer in _EXPORTS:
    globals()[_layer] = _register(_layer)
del _layer


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    return sorted({*globals(), *__all__})
