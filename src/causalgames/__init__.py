"""Causal games: interventions, mechanised graphs, equilibria, and queries."""

from .errors import (
    GameError,
    GameFileError,
    InterventionError,
    QueryError,
    ValidationError,
    SolverError,
)
from .model import (
    CHANCE,
    DECISION,
    UTILITY,
    CausalGame,
    JointDistribution,
    PolicyProfile,
    TabularCPD,
    Variable,
    enumerate_pure_rules,
    expected_utility,
    induced_joint,
    tabulate,
    validate_game,
)
from .graphs import (
    BEST_RESPONSE,
    MechanisedGraph,
    Path,
    RationalityRelation,
    build_mechanised_graph,
    param_node,
    reachability_paths,
    relevant_mechanisms,
    rule_node,
)
from .equilibrium import (
    BehavioralFamily,
    RationalOutcomeSet,
    behavioral_nash_small,
    best_responses,
    optimal_commitment,
    pure_nash,
    verify_rational_outcome,
)
from .interventions import (
    AddVariable,
    CompoundIntervention,
    Decomposition,
    FixMechanism,
    FixObject,
    RemoveVariable,
    SideEffectReport,
    apply_all,
    apply_journaled,
    apply_primitive,
    decompose,
    incentive_invariant,
    invert,
    make_add_edge,
    make_remove_edge,
    minimum_intervention_set,
    predicted_edge_removals,
    side_effects,
)
from .queries import (
    QueryJob,
    QueryResult,
    check_spec_env,
    classify_visibility,
    evaluate_query,
    parse_query,
)
from .gamefile import (
    Scenario,
    load_game,
    load_scenario,
    parse_game,
    parse_scenario,
    serialize_game,
)
from .dot import export_dot

__version__ = "0.1.0"
