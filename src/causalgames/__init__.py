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
    games_equal,
    induced_joint,
    tabulate,
    validate_game,
)
from .graphs import (
    BEST_RESPONSE,
    MechanisedGraph,
    Path,
    RationalityRelation,
    active_paths,
    build_mechanised_graph,
    d_separated,
    independent_mechanised_graph,
    object_graph,
    param_node,
    r_relevant,
    reachability_paths,
    relevant_mechanisms,
    rule_node,
)
from .equilibrium import (
    BehavioralFamily,
    RationalOutcomeSet,
    behavioral_nash_small,
    best_responses,
    commitment_value,
    optimal_commitment,
    pure_nash,
    sample_rational_outcome,
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
    add_edge,
    apply_all,
    apply_journaled,
    apply_primitive,
    decompose,
    decompose_fix_object,
    incentive_invariant,
    invert,
    make_add_edge,
    make_remove_edge,
    minimum_intervention_set,
    predicted_edge_removals,
    remove_edge,
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
