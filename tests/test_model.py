import argparse
import copy
import dataclasses
import gc
import importlib
import inspect
import itertools
import math
import pickle
import pkgutil
import random
import re
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalgames import (
    AddVariable,
    CausalGame,
    FixMechanism,
    FixObject,
    PolicyProfile,
    RemoveVariable,
    TabularCPD,
    ValidationError,
    Variable,
    apply_all,
    apply_primitive,
    enumerate_pure_rules,
    evaluate_query,
    expected_utility,
    export_dot,
    induced_joint,
    pure_nash,
    tabulate,
    validate_game,
)
from causalgames import kernel, model
from causalgames.cli import _job_from_scenario, resolve_game, resolve_scenario
from causalgames.errors import InterventionError, SolverError
from causalgames.model import _check_cpd, violations
from helpers import (
    GAME_GENERATORS,
    brute_force_joint,
    expected_utility_from_joint,
    fan_game,
    fraction_expected_utility,
    random_full_profile,
    random_game,
    random_multi_decision_game,
    random_rich_game,
    reference_pure_rules,
    unplanned_contract,
)


def test_fixtures_validate(job_market, effortville, prisoners, stackelberg):
    for game in (job_market, effortville, prisoners, stackelberg):
        assert validate_game(game) == []


def test_bad_row_sum_reported(prisoners):
    bad = TabularCPD(
        "U1",
        ("D1", "D2"),
        {
            ("C", "C"): (0.9, 0.0, 0.0, 0.0),
            ("C", "D"): (1.0, 0.0, 0.0, 0.0),
            ("D", "C"): (0.0, 0.0, 0.0, 1.0),
            ("D", "D"): (0.0, 1.0, 0.0, 0.0),
        },
    )
    game = CausalGame(
        prisoners.n_agents,
        prisoners.variables,
        prisoners.parents,
        {**prisoners.cpds, "U1": bad},
    )
    report = validate_game(game)
    assert len(report) == 1
    assert "sums to" in report[0] and "U1" in report[0]


def test_cycle_reported():
    variables = (
        Variable("D1", "decision", ("a", "b"), 1),
        Variable("D2", "decision", ("a", "b"), 2),
        Variable("U1", "utility", (0, 1), 1),
        Variable("U2", "utility", (0, 1), 2),
    )
    parents = {"D1": ("D2",), "D2": ("D1",), "U1": (), "U2": ()}
    cpds = {
        "U1": TabularCPD("U1", (), {(): (1.0, 0.0)}),
        "U2": TabularCPD("U2", (), {(): (1.0, 0.0)}),
    }
    report = validate_game(CausalGame(2, variables, parents, cpds))
    assert any("cycle" in v for v in report)


def test_utility_leaf_enforced():
    variables = (
        Variable("U1", "utility", (0, 1), 1),
        Variable("X", "chance", ("a", "b")),
        Variable("D1", "decision", ("a", "b"), 1),
    )
    parents = {"U1": (), "X": ("U1",), "D1": ()}
    cpds = {
        "U1": TabularCPD("U1", (), {(): (0.5, 0.5)}),
        "X": TabularCPD(
            "X", ("U1",), {(0,): (0.5, 0.5), (1,): (0.5, 0.5)}
        ),
    }
    report = validate_game(CausalGame(1, variables, parents, cpds))
    assert any("leaves" in v for v in report)


def test_duplicate_names_stay_listed_and_are_reported():
    """The name index keeps the first of two variables of one name, but
    ``names`` lists both, in a built game and in one derived from it, and
    the validator reports the duplicate in each."""
    first = Variable("X", "chance", ("a", "b"))
    variables = (first, Variable("X", "chance", ("c",)), Variable("U", "utility", (0, 1), 1))
    cpds = {
        "X": TabularCPD("X", (), {(): (0.5, 0.5)}),
        "U": TabularCPD("U", (), {(): (1.0, 0.0)}),
    }
    game = CausalGame(1, variables, {}, cpds)
    derived = game._derive(cpds={**cpds, "U": TabularCPD("U", (), {(): (0.0, 1.0)})})
    for g in (game, derived):
        assert g.names() == ("X", "X", "U")
        assert g.variable("X") is first
        assert "X: duplicate variable name" in validate_game(g)


def test_point_mass_joint(stackelberg):
    profile = PolicyProfile(
        {
            "D1": stackelberg.delta_rule("D1", "T"),
            "D2": stackelberg.delta_rule("D2", "L"),
        }
    )
    joint = induced_joint(stackelberg, profile)
    assert joint.prob({"U1": 2, "U2": 1}) == pytest.approx(1.0, abs=1e-12)
    assert joint.prob({"D1": "T", "D2": "L"}) == pytest.approx(1.0, abs=1e-12)


def test_joint_normalises_and_matches_nested_loop_oracle():
    rng = random.Random(20)
    for _ in range(25):
        game = random_game(rng)
        profile = random_full_profile(rng, game)
        joint = induced_joint(game, profile)
        assert sum(joint.table.values()) == pytest.approx(1.0, abs=1e-9)
        oracle = brute_force_joint(game, profile)
        keys = set(joint.table) | set(oracle)
        for k in keys:
            assert joint.table.get(k, 0.0) == pytest.approx(
                oracle.get(k, 0.0), abs=1e-12
            )


def test_signalling_outcome_probability(job_market):
    # worker studies iff hard-working, firm offers iff degree
    profile = PolicyProfile(
        {
            "D1": TabularCPD(
                "D1", ("T",), {("h",): (1.0, 0.0), ("l",): (0.0, 1.0)}
            ),
            "D2": TabularCPD(
                "D2", ("D1",), {("g",): (1.0, 0.0), ("ng",): (0.0, 1.0)}
            ),
        }
    )
    joint = induced_joint(job_market, profile)
    # hand product: P(T=h) * pi1(g|h) * pi2(j|g) = 0.5 * 1 * 1
    assert joint.prob({"T": "h", "D1": "g", "D2": "j"}) == pytest.approx(0.5)


def test_partial_profile_rejected(job_market):
    partial = PolicyProfile({"D1": job_market.delta_rule("D1", "g")})
    with pytest.raises(ValidationError, match="missing decision rule for D2"):
        induced_joint(job_market, partial)
    with pytest.raises(ValidationError, match="missing decision rule for D2"):
        expected_utility(job_market, partial, 1)


def test_expected_utility_reference_values(stackelberg):
    pure = PolicyProfile(
        {
            "D1": stackelberg.delta_rule("D1", "T"),
            "D2": stackelberg.delta_rule("D2", "L"),
        }
    )
    assert expected_utility(stackelberg, pure, 1) == pytest.approx(2.0)
    mixed = PolicyProfile(
        {
            "D1": TabularCPD("D1", (), {(): (0.5, 0.5)}),
            "D2": stackelberg.delta_rule("D2", "R"),
        }
    )
    assert expected_utility(stackelberg, mixed, 1) == pytest.approx(3.5)


def test_constant_utility_gives_zero():
    variables = (
        Variable("D1", "decision", ("a", "b"), 1),
        Variable("U1", "utility", (0,), 1),
    )
    parents = {"D1": (), "U1": ("D1",)}
    cpds = {
        "U1": TabularCPD("U1", ("D1",), {("a",): (1.0,), ("b",): (1.0,)})
    }
    game = CausalGame(1, variables, parents, cpds)
    profile = PolicyProfile({"D1": game.delta_rule("D1", "a")})
    assert expected_utility(game, profile, 1) == 0.0


def test_a_decision_with_a_table_is_object_fixed():
    """A table for a decision pins it: the one fact is stored in ``cpds``."""
    variables = (
        Variable("D", "decision", ("a", "b"), 1),
        Variable("E", "decision", ("x", "y"), 1),
        Variable("U", "utility", (0, 1), 1),
    )
    parents = {"D": (), "E": (), "U": ("D", "E")}
    matched = {("a", "x"), ("b", "y")}
    domains = {v.name: v.domain for v in variables}
    cpds = {
        "D": TabularCPD("D", (), {(): (0.0, 1.0)}),
        "U": tabulate(
            "U", ("D", "E"), domains.__getitem__,
            lambda at: (0.0, 1.0) if (at["D"], at["E"]) in matched else (1.0, 0.0),
        ),
    }
    game = CausalGame(1, variables, parents, cpds)
    assert validate_game(game) == []
    assert game.object_fixed == {"D"} and game.free_decisions() == ("E",)
    dot = export_dot(game, "independent_mechanised")
    assert '"PI_D" -> "D"' not in dot and '"PI_E" -> "E"' in dot
    # D is the constant b, so only E = y is an equilibrium; were D free,
    # (a, x) would be one too
    [eq] = pure_nash(game).outcomes
    assert eq.decisions() == ("E",) and eq["E"].table == {(): (0.0, 1.0)}
    free = CausalGame(1, variables, parents, {"U": cpds["U"]})
    assert len(pure_nash(free).outcomes) == 2


def test_unknown_agent_rejected(prisoners):
    profile = PolicyProfile(
        {
            "D1": prisoners.delta_rule("D1", "D"),
            "D2": prisoners.delta_rule("D2", "D"),
        }
    )
    with pytest.raises(ValidationError, match="agent"):
        expected_utility(prisoners, profile, 3)


def test_expected_utility_linear_in_rule_entries(job_market):
    firm = job_market.delta_rule("D2", "j")

    def worker(p):
        return TabularCPD(
            "D1", ("T",), {("h",): (p, 1.0 - p), ("l",): (0.3, 0.7)}
        )

    def eu(p):
        return expected_utility(
            job_market, PolicyProfile({"D1": worker(p), "D2": firm}), 1
        )

    assert eu(0.5) == pytest.approx((eu(0.0) + eu(1.0)) / 2.0, abs=1e-12)


def test_pure_rule_enumeration_counts(job_market, prisoners):
    assert len(enumerate_pure_rules(prisoners, "D1")) == 2
    assert len(enumerate_pure_rules(job_market, "D1")) == 4
    assert len(enumerate_pure_rules(job_market, "D2")) == 4


def test_pure_rule_enumeration_unique_and_deterministic(job_market):
    rules = enumerate_pure_rules(job_market, "D1")
    tables = [tuple(sorted(r.table.items())) for r in rules]
    assert len(set(tables)) == len(tables)
    assert tables == [
        tuple(sorted(r.table.items()))
        for r in enumerate_pure_rules(job_market, "D1")
    ]
    assert all(
        p in (0.0, 1.0) for r in rules for row in r.table.values() for p in row
    )
    with pytest.raises(ValidationError):
        enumerate_pure_rules(job_market, "U1")


def _decision_game(actions, parent_domains):
    """One decision of agent 1 with ``actions``, seeing one uniform chance
    variable per entry of ``parent_domains``."""
    names = tuple(f"X{i}" for i in range(len(parent_domains)))
    variables = [Variable(x, "chance", dom) for x, dom in zip(names, parent_domains)]
    variables.append(Variable("D", "decision", actions, 1))
    cpds = {x: TabularCPD.uniform(x, dom) for x, dom in zip(names, parent_domains)}
    return CausalGame(1, tuple(variables), {"D": names}, cpds)


def test_pure_rule_enumeration_matches_reference():
    """The solvers' one-hot stack, viewed as rules, is the product
    enumeration in order: every decision of the four fixture games, a
    3-action decision with two parents, a parentless decision, and a
    one-action decision with 7 binary parents (128 contexts, more than the
    64 dimensions ``np.indices`` allows)."""
    cases = [
        (resolve_game(name), d)
        for name in FIXTURE_GAMES for d in resolve_game(name).decisions()
    ]
    cases += [
        (_decision_game(("x", "y", "z"), [("a", "b"), ("c", "d", "e")]), "D"),
        (_decision_game(("x", "y", "z"), []), "D"),
        (_decision_game(("only",), [("a", "b")] * 7), "D"),
    ]
    assert len(cases) == 11
    for game, d in cases:
        assert enumerate_pure_rules(game, d) == reference_pure_rules(game, d)
    assert [len(enumerate_pure_rules(g, d)) for g, d in cases[-3:]] == [729, 3, 1]


def test_tabulate_lays_contexts_out_as_the_game_and_the_kernel_do():
    """``tabulate`` visits contexts in ``CausalGame.contexts`` order, hands
    each row function its parent values by name, and its rows read in that
    order are the rows of ``_cpd_tensor``'s array."""
    games = [gen(random.Random(seed)) for seed in range(20)
             for gen in (random_game, random_multi_decision_game, random_rich_game)]
    checked = 0
    for game in games:
        for name, cpd in game.cpds.items():
            parents = game.parents_of(name)
            seen = []

            def row(at):
                seen.append(at)
                return cpd.row(tuple(at[p] for p in parents))

            again = tabulate(name, parents, game.domain, row)
            assert list(again.table) == game.contexts(name)
            assert seen == [dict(zip(parents, c)) for c in game.contexts(name)]
            array = kernel._cpd_tensor(game, name, cpd)
            rows = array.reshape(-1, len(game.domain(name))).tolist()
            assert rows == [list(r) for r in again.table.values()]
            checked += bool(parents)
    assert checked > 100


def test_expected_utility_matches_joint_on_rich_games():
    """Variable elimination against the joint table it replaces.

    Shuffled declaration orders, zero-probability rows, two utilities for
    agent 1, none for agent 3, an imposed rule and an object-fixed decision.
    """
    for seed in range(80):
        rng = random.Random(seed)
        game = random_rich_game(rng)
        assert validate_game(game) == []
        if seed % 2:
            profile = random_full_profile(rng, game)
        else:  # pure rules put zeros in the free decisions' rows too
            profile = PolicyProfile({
                d: rng.choice(reference_pure_rules(game, d))
                for d in game.free_decisions()
            })
        joint = induced_joint(game, profile)
        for agent in (1, 2):
            assert expected_utility(game, profile, agent) == pytest.approx(
                expected_utility_from_joint(game, joint, agent), abs=1e-12
            )
        assert expected_utility(game, profile, 3) == 0.0


FIXTURE_GAMES = ("effortville", "job_market", "prisoners_dilemma", "stackelberg")
FIXTURE_SCENARIOS = (
    "commitment_private", "commitment_revealed", "effortville_policy",
    "reward_hidden", "reward_reversed",
)


def test_expected_utility_exact_on_fixtures():
    """Every pure profile and three mixed ones of each of the nine fixtures
    (a scenario's game with all its interventions applied), against exact
    rational arithmetic."""
    games = [resolve_game(name) for name in FIXTURE_GAMES]
    for name in FIXTURE_SCENARIOS:
        scenario = resolve_scenario(name)
        games.append(
            apply_all(scenario.game, [iv for _, iv in scenario.interventions])
        )
    rng = random.Random(9)
    for game in games:
        decisions = game.free_decisions()
        profiles = [
            PolicyProfile(dict(zip(decisions, combo)))
            for combo in itertools.product(
                *[reference_pure_rules(game, d) for d in decisions]
            )
        ]
        profiles += [random_full_profile(rng, game) for _ in range(3)]
        for profile in profiles:
            for agent in range(1, game.n_agents + 1):
                exact = fraction_expected_utility(game, profile, agent)
                got = Fraction(expected_utility(game, profile, agent))
                assert abs(got - exact) <= Fraction(1, 10**12)


# -- per-name validation --------------------------------------------------------


def _descendants(game, name):
    seen, stack = set(), [name]
    while stack:
        for child in game.children_of(stack.pop()):
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


def _values(game, name):
    """``name``'s domain; an unknown name (an edited-in parent) has one value."""
    return game.domain(name) if game.has_variable(name) else ("?",)


def _with_parent(game, name, extra):
    """``extra`` appended to ``name``'s parents; a table of ``name`` is
    re-keyed with its rows copied across ``extra``'s values, so only the
    edge itself can be at fault."""
    parents = game.parents_of(name) + (extra,)
    values = _values(game, extra)

    def extended(cpd):
        rows = {ctx + (x,): row for ctx, row in cpd.table.items() for x in values}
        return TabularCPD(name, parents, rows)

    pinned = {
        attr: {**getattr(game, attr), name: extended(getattr(game, attr)[name])}
        for attr in ("cpds", "rule_fixes")
        if name in getattr(game, attr)
    }
    return replace(game, parents={**game.parents, name: parents}, **pinned)


def _edit(rng, game):
    """One unchecked edit of ``game`` and the name it touches (or None when
    no variable suits the edit drawn)."""
    names = game.names()
    name = rng.choice(names)
    kind = rng.choice([
        "utility_parent", "unknown_parent", "duplicate_parent", "cycle_parent",
        "valid_parent", "corrupt_row", "missing_row", "free_decision_cpd",
        "committed_decision_cpd", "ghost_table", "valid_table",
    ])
    if kind == "utility_parent":
        pool = [u for u in names if game.kind(u) == "utility" and u != name]
        return (_with_parent(game, name, rng.choice(pool)), name) if pool else None
    if kind == "unknown_parent":
        return _with_parent(game, name, "ghost"), name
    if kind == "duplicate_parent":
        if not game.parents_of(name):
            return None
        return _with_parent(game, name, rng.choice(game.parents_of(name))), name
    if kind in ("cycle_parent", "valid_parent"):
        below = _descendants(game, name) | {name}
        if kind == "cycle_parent":
            pool = sorted(below)
        else:
            pool = [
                n for n in names
                if n not in below and n not in game.parents_of(name)
                and game.kind(n) != "utility"
            ]
        return (_with_parent(game, name, rng.choice(pool)), name) if pool else None
    if kind in ("free_decision_cpd", "committed_decision_cpd"):
        pool = game.free_decisions() if kind == "free_decision_cpd" else [
            d for d in game.rule_fixes if d not in game.cpds
        ]
        if not pool:
            return None
        d = rng.choice(sorted(pool))
        cpd = TabularCPD.uniform(
            d, game.domain(d), game.parents_of(d), lambda p: _values(game, p)
        )
        return replace(game, cpds={**game.cpds, d: cpd}), d
    if kind == "ghost_table":
        return replace(game, cpds={**game.cpds, "ghost": game.cpds[rng.choice(sorted(game.cpds))]}), "ghost"
    attr = "rule_fixes" if name in game.rule_fixes else "cpds"
    if name not in getattr(game, attr) or not getattr(game, attr)[name].table:
        return None
    cpd = getattr(game, attr)[name]
    rows = dict(cpd.table)
    ctx = rng.choice(sorted(rows, key=repr))
    n = len(game.domain(name))
    if kind == "missing_row":
        del rows[ctx]
    elif kind == "valid_table":
        rows = {c: (0.0,) * (n - 1) + (1.0,) for c in rows}
    else:
        rows[ctx] = rng.choice([
            (rows[ctx][0] + 0.5,) + rows[ctx][1:],
            (float("nan"),) + rows[ctx][1:],
            (-0.25, 1.25) + (0.0,) * (n - 2),
            rows[ctx][:-1],
        ])
    table = TabularCPD(name, cpd.parents, rows)
    return replace(game, **{attr: {**getattr(game, attr), name: table}}), name


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.integers(1, 3))
def test_violations_on_edited_names_agree_with_validate_game(seed, rich, edits):
    """Unchecked edits to one to three variables of a valid game: the
    report on the edited names is empty exactly when the whole game's is."""
    rng = random.Random(seed)
    game = (random_rich_game if rich else random_game)(rng)
    assert validate_game(game) == [] and violations(game, game.names()) == []
    names = []
    for _ in range(edits):
        edited = _edit(rng, game)
        if edited is not None:
            game, name = edited
            names.append(name)
    assert (violations(game, names) == []) == (validate_game(game) == [])


def test_violations_report_the_rule_at_fault(job_market):
    assert violations(_with_parent(job_market, "U2", "U1"), ["U2"]) == [
        "U2: utility U1 cannot be a parent (utility variables must be leaves)"
    ]
    assert violations(_with_parent(job_market, "T", "D2"), ["T"]) == [
        "object-level graph has a cycle: T -> D1 -> D2 -> T"
    ]
    gone = replace(
        job_market, variables=job_market.variables[1:],
        parents={k: ps for k, ps in job_market.parents.items() if k != "T"},
    )
    assert violations(gone, ["T"]) == [
        "D1: unknown parent 'T'", "U1: unknown parent 'T'", "U2: unknown parent 'T'",
    ]


def test_a_table_for_an_unknown_name_is_refused(stackelberg):
    """Every key of ``cpds`` is checked: a table keyed by a name that is no
    variable is a violation of that name."""
    ghost = replace(stackelberg, cpds={**stackelberg.cpds, "ghost": stackelberg.cpds["U1"]})
    report = ["table for unknown variable 'ghost'"]
    assert validate_game(ghost) == report
    assert violations(ghost, ["ghost"]) == report
    assert violations(ghost, ["D1"]) == []


def test_a_decision_is_free_committed_or_object_fixed(stackelberg):
    """A decision with both a table and an imposed rule is refused by
    ``validate_game`` and by ``violations`` on the decision; either one
    alone is valid."""
    rule = TabularCPD.uniform(
        "D1", stackelberg.domain("D1"), stackelberg.parents_of("D1"), stackelberg.domain
    )
    pinned = replace(stackelberg, cpds={**stackelberg.cpds, "D1": rule})
    committed = replace(stackelberg, rule_fixes={"D1": rule})
    assert validate_game(pinned) == validate_game(committed) == []
    assert violations(pinned, ["D1"]) == violations(committed, ["D1"]) == []
    both = replace(pinned, rule_fixes={"D1": rule})
    report = ["D1: decision has both a table and an imposed rule"]
    assert validate_game(both) == report
    assert violations(both, ["D1"]) == report


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(GAME_GENERATORS))
def test_utilities_of_is_the_declaration_order_scan(rng, make):
    """``utilities_of`` lists an agent's utilities in declaration order, and
    none for an agent that owns no utility, on seeded games and on the games
    derived from them by adding a utility, removing one or refitting one's
    table."""

    def scan(game, agent):
        return tuple(v.name for v in game.variables if v.kind == "utility" and v.agent == agent)

    game = make(rng)
    owner = rng.randint(1, game.n_agents)
    reads = rng.choice([v.name for v in game.variables if v.kind != "utility"])
    added = Variable("U_new", "utility", (0, 1), owner)
    cpd = TabularCPD.uniform("U_new", (0, 1), (reads,), game.domain)
    at = rng.randint(0, len(game.variables))
    games = [game, apply_primitive(game, AddVariable(added, (reads,), (), cpd, index=at))]
    utilities = [v.name for v in game.variables if v.kind == "utility"]
    if utilities:
        u = rng.choice(utilities)
        games.append(apply_primitive(game, RemoveVariable(u)))
        games.append(apply_primitive(game, FixMechanism(f"THETA_{u}", game.cpds[u])))
    for g in games:
        for agent in range(g.n_agents + 2):
            assert g.utilities_of(agent) == scan(g, agent)
    assert game.utilities_of(0) == game.utilities_of(game.n_agents + 1) == ()
    assert random_rich_game(rng).utilities_of(3) == ()  # agent 3 owns none


@pytest.mark.parametrize("rows, report", [
    ({}, []),
    ({("l", "nj"): (-0.25, 0.0, 1.25, 0.0)},
     ["U2: row ('l', 'nj') has a negative entry"]),
    ({("l", "nj"): (0.0, float("nan"), 1.0, 0.0)},
     ["U2: row ('l', 'nj') has a non-finite entry"]),
    ({("l", "j"): (float("inf"), 0.0, 0.0, 0.0)},
     ["U2: row ('l', 'j') has a non-finite entry"]),
    ({("l", "nj"): (0.5, 0.5)}, ["U2: row ('l', 'nj') has 2 entries, domain has 4"]),
    ({("l", "nj"): (0.5, 0.5, 0.5, 0.5), ("h", "nj"): (-0.5, 1.5, 0.0, 0.0)},
     ["U2: row ('h', 'nj') has a negative entry",
      "U2: row ('l', 'nj') sums to 2.0, not 1"]),
    ({("l", "x"): (1.0, 0.0, 0.0, 0.0)}, ["U2: CPD row for unknown context ('l', 'x')"]),
    ({("l", "nj"): (1e308, 1e308, 0.0, 0.0)}, ["U2: row ('l', 'nj') sums to inf, not 1"]),
    ({("l", "nj"): None}, ["U2: missing CPD row for context ('l', 'nj')"]),
    ({("l", "nj"): None, ("l", "x"): (1.0, 0.0, 0.0, 0.0)},
     ["U2: missing CPD row for context ('l', 'nj')",
      "U2: CPD row for unknown context ('l', 'x')"]),
], ids=[
    "valid", "negative", "nan", "inf", "short", "two_faults", "unknown_context",
    "overflowing_sum", "missing", "missing_for_unknown",
])
def test_check_cpd_reports_each_faulty_row(job_market, rows, report):
    """A row summing to 1 with a negative entry, a non-finite entry, a short
    row, a finite row whose sum overflows, a missing row (``None`` drops it)
    and an unknown one are each reported, one line per fault in context
    order."""
    table = {**job_market.cpds["U2"].table, **rows}
    table = {ctx: row for ctx, row in table.items() if row is not None}
    cpd = TabularCPD("U2", ("T", "D2"), table)
    assert _check_cpd(job_market, cpd, "U2") == report


# -- the contraction kernel -------------------------------------------------------


def _reference_contraction(factors, keep):
    """One ``np.einsum`` over every factor: the product summed onto ``keep``,
    length 1 where no factor carries a kept label."""
    ids, args, size = {}, [], {}
    for scope, array in factors:
        args += [array, [ids.setdefault(x, len(ids)) for x in scope]]
        size.update(zip(scope, array.shape))
    out = np.einsum(*args, [ids[x] for x in keep if x in ids])
    return out.reshape([size.get(x, 1) for x in keep])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_planned_and_direct_contractions_agree(data):
    """Random factor sets, with labels of size 1 and kept labels that no
    factor carries: the greedy plan (``DIRECT_SPACE`` 0) and the single
    einsum (``DIRECT_SPACE`` unbounded) both match one einsum over all
    factors."""
    labels = ["a", "b", "c", "d", "e", ("rule", "d"), ("leaf",), "f"]
    n = data.draw(st.integers(1, len(labels)))
    labels = labels[:n]
    size = {x: data.draw(st.integers(1, 3)) for x in labels}
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    factors = []
    for _ in range(data.draw(st.integers(1, 6))):
        scope = tuple(data.draw(st.lists(st.sampled_from(labels), unique=True)))
        factors.append((scope, rng.random([size[x] for x in scope]) + 0.5))
    keep = tuple(data.draw(st.lists(st.sampled_from(labels), unique=True)))
    want = _reference_contraction(factors, keep)
    steps = []
    for space in (0, 1 << 62):
        with mock.patch.object(model, "DIRECT_SPACE", space), \
                mock.patch.object(np, "einsum", wraps=np.einsum) as einsum:
            got = kernel._contract(factors, keep)
        steps.append(einsum.call_count)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    # ``DIRECT_SPACE`` is in the plan's key, so each setting runs its own
    # plan: one einsum per summed-out label and one more, or a single one
    summed = {x for scope, _ in factors for x in scope} - set(keep)
    assert steps == [len(summed) + 1, 1]


def _plan_of(factors, keep):
    """The plan ``kernel._contract`` follows for ``factors`` onto ``keep``."""
    signature = tuple((scope, array.shape) for scope, array in factors)
    return kernel._plan(signature, keep, model.DIRECT_SPACE)


def _reachable(root):
    """Every object reachable from ``root`` by the garbage collector's
    references, ``root`` included."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) not in seen:
            seen[id(obj)] = obj
            stack.extend(gc.get_referents(obj))
    return list(seen.values())


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_kept_plans_contract_bit_identically_to_the_unplanned_kernel(data):
    """Random factor sets, with labels of size 1, kept labels that no factor
    carries, both label kinds and sometimes more factors than one einsum
    takes, under ``DIRECT_SPACE`` 0, as set and unbounded: the first
    contraction plans, the second reuses that plan, the third reuses it on
    fresh arrays of the same shapes.  Each equals the kernel that plans per
    call exactly, and the kept plan holds only tuples, ints and strings."""
    labels = ["a", "b", "c", ("rule", "c"), "d", ("rule", "d"), ("leaf",), "e"]
    size = {x: data.draw(st.integers(1, 3)) for x in labels}
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.one_of(st.integers(1, 6), st.integers(60, 70)))
    width = len(labels) if n <= 6 else 2  # the reference's sublists stop near 256 characters
    scopes = [
        tuple(data.draw(st.lists(st.sampled_from(labels), unique=True, max_size=width)))
        for _ in range(n)
    ]
    keep = tuple(data.draw(st.lists(st.sampled_from(labels), unique=True)))
    space = data.draw(st.sampled_from([0, model.DIRECT_SPACE, 1 << 62]))

    def draw_factors():
        return [(s, rng.random([size[x] for x in s]) + 0.5) for s in scopes]

    factors = draw_factors()
    kernel._plan.cache_clear()
    with mock.patch.object(model, "DIRECT_SPACE", space):
        want = unplanned_contract(factors, keep)
        cold = kernel._contract(factors, keep)
        assert kernel._plan.cache_info()[:2] == (0, 1)  # (hits, misses)
        cached = kernel._contract(factors, keep)
        fresh = draw_factors()
        again = kernel._contract(fresh, keep)
        assert kernel._plan.cache_info()[:2] == (2, 1)
        plan = _plan_of(factors, keep)
        assert np.array_equal(again, unplanned_contract(fresh, keep))
    for got in (cold, cached):
        assert got.shape == want.shape and np.array_equal(got, want)
    assert {type(obj) for obj in _reachable(plan)} <= {tuple, int, str}


def _one_value_chain_game(links):
    """``X0 -> ... -> X{links-1} -> U <- D``: one-value chance variables, so
    the index space is tiny while the factors number ``links + 2``."""
    xs = [f"X{i}" for i in range(links)]
    parents = {x: tuple(xs[i - 1:i]) for i, x in enumerate(xs)}
    cpds = {x: TabularCPD(x, parents[x], {("x",) * len(parents[x]): (1.0,)}) for x in xs}
    cpds["U"] = TabularCPD("U", (xs[-1], "D"), {
        ("x", "a"): (1.0, 0.0), ("x", "b"): (0.0, 1.0),
    })
    return CausalGame(
        1,
        tuple(Variable(x, "chance", ("x",)) for x in xs)
        + (Variable("D", "decision", ("a", "b"), 1), Variable("U", "utility", (0, 1), 1)),
        {**parents, "D": (), "U": (xs[-1], "D")},
        cpds,
    )


def _one_value_decisions_game(count):
    """``count`` one-value decisions, all parents of one utility: each is a
    stacked factor with two labels, its rule axis and itself."""
    ds = [f"D{i}" for i in range(count)]
    return CausalGame(
        1,
        tuple(Variable(d, "decision", ("only",), 1) for d in ds)
        + (Variable("U", "utility", (0, 2), 1),),
        {**{d: () for d in ds}, "U": tuple(ds)},
        {"U": TabularCPD("U", tuple(ds), {("only",) * count: (0.25, 0.75)})},
    )


def test_contractions_past_numpys_einsum_limits_are_planned():
    """numpy takes at most 52 labels and 31 operands (1.x; 63 in 2.x) in one
    einsum.  An 80-link chain carries 82 factors and 82 labels over an index
    space of 4; 27 stacked one-value decisions carry 54 labels on 28
    factors; 70 factors split between two labels.  Each is contracted."""
    chain = _one_value_chain_game(80)
    assert validate_game(chain) == []
    [eq] = pure_nash(chain).outcomes
    assert eq["D"].table == {(): (0.0, 1.0)}
    assert expected_utility(chain, eq, 1) == 1.0
    wide = _one_value_decisions_game(27)
    assert validate_game(wide) == []
    [eq] = pure_nash(wide).outcomes
    assert expected_utility(wide, eq, 1) == 1.5
    many = [((x,), np.array([1.0, 0.5])) for x in "ab" for _ in range(35)]
    assert kernel._contract(many, ()) == pytest.approx((1.0 + 0.5 ** 35) ** 2, rel=1e-12)


def test_a_step_past_einsums_label_cap_is_a_solver_error():
    """Summing out ``X`` of a 62-child fan multiplies 63 factors over 63
    labels, past the 52 one einsum takes (numpy 1.x refuses ``U``'s
    63-axis table first).  The error is raised again on a second call:
    no plan is kept for it."""
    game = fan_game(62)
    assert validate_game(game) == []
    for _ in range(2):
        with pytest.raises(SolverError, match="numpy"):
            expected_utility(game, PolicyProfile({}), 1)


def test_a_step_past_numpys_sublist_length_is_contracted():
    """Six one-value roots, each read by every link of a 40-link one-value
    chain into the utility: one einsum over 47 factors whose integer
    sublists numpy refuses as too long (about 330 characters)."""
    ys = [f"Y{i}" for i in range(6)]
    cs = [f"C{i}" for i in range(40)]
    parents = {**{y: () for y in ys}, "U": (cs[-1],)}
    parents.update({c: (*ys, *cs[i - 1:i]) for i, c in enumerate(cs)})
    cpds = {n: TabularCPD(n, parents[n], {("x",) * len(parents[n]): (1.0,)})
            for n in ys + cs}
    cpds["U"] = TabularCPD("U", (cs[-1],), {("x",): (0.25, 0.75)})
    game = CausalGame(
        1,
        tuple(Variable(n, "chance", ("x",)) for n in ys + cs)
        + (Variable("U", "utility", (0, 1), 1),),
        parents,
        cpds,
    )
    assert validate_game(game) == []
    assert expected_utility(game, PolicyProfile({}), 1) == 0.75


def test_the_plan_cache_keeps_the_last_plan_cache_plans():
    kernel._plan.cache_clear()
    for n in range(1, model.PLAN_CACHE + 2):
        kernel._contract([(("a",), np.ones(n))], ())
    info = kernel._plan.cache_info()
    assert (info.misses, info.currsize) == (model.PLAN_CACHE + 1, model.PLAN_CACHE)


@pytest.mark.parametrize("n", [64, 70])
def test_a_table_past_numpys_axis_cap_is_a_solver_error(n):
    game = fan_game(n)
    assert validate_game(game) == []
    with pytest.raises(SolverError, match=r"the table of U needs \d+ axes"):
        expected_utility(game, PolicyProfile({}), 1)


def test_a_rule_stack_past_numpys_axis_cap_is_a_solver_error():
    """A decision reading 63 one-value variables has two pure rules, but
    their stack has 65 axes."""
    ys = [f"Y{i}" for i in range(63)]
    game = CausalGame(
        1,
        tuple(Variable(y, "chance", ("y",)) for y in ys)
        + (Variable("D", "decision", ("a", "b"), 1), Variable("U", "utility", (0, 1), 1)),
        {**{y: () for y in ys}, "D": tuple(ys), "U": ("D",)},
        {**{y: TabularCPD(y, (), {(): (1.0,)}) for y in ys},
         "U": TabularCPD("U", ("D",), {("a",): (1.0, 0.0), ("b",): (0.0, 1.0)})},
    )
    assert validate_game(game) == []
    with pytest.raises(SolverError, match="the rule stack of D needs 65 axes"):
        pure_nash(game)


def test_a_step_past_einsums_operand_cap_is_multiplied_in_chunks():
    """Each chunk folds the first ``most`` operands into one, so ``n``
    operands take ``ceil((n - most) / (most - 1))`` chunks before the
    step itself: 2 under numpy 1.x (``most`` 31), 1 under 2.x (63)."""
    most = kernel._max_axes() - 1
    ones = [(("a",), np.ones(2))] * 70
    scaled = [(("a",), np.array([1.0, 0.9]))] * 70 + [(("b",), np.arange(3.0))]
    assert kernel._contract(ones, ()) == 2.0
    got = kernel._contract(scaled, ("b",))
    np.testing.assert_allclose(got, (1.0 + 0.9 ** 70) * np.arange(3.0), rtol=1e-12)
    for factors, keep in ((ones, ()), (scaled, ("b",))):
        steps, _ = _plan_of(factors, keep)
        assert len(steps) == 1 + math.ceil((len(factors) - most) / (most - 1))


def _two_layouts():
    """Two games sharing one CPD object for ``Y``, whose parent ``X`` lists
    its domain in opposite orders; ``Y`` copies ``X`` and ``U`` pays 1 when
    ``Y`` is ``a``, so each game's expected utility is ``P(X = a) = 0.8``."""
    shared = TabularCPD("Y", ("X",), {("a",): (1.0, 0.0), ("b",): (0.0, 1.0)})
    u = TabularCPD("U", ("Y",), {("a",): (0.0, 1.0), ("b",): (1.0, 0.0)})
    games = []
    for dom, row in ((("a", "b"), (0.8, 0.2)), (("b", "a"), (0.2, 0.8))):
        games.append(CausalGame(
            1,
            (Variable("X", "chance", dom), Variable("Y", "chance", ("a", "b")),
             Variable("U", "utility", (0, 1), 1)),
            {"X": (), "Y": ("X",), "U": ("Y",)},
            {"X": TabularCPD("X", (), {(): row}), "Y": shared, "U": u},
        ))
    return shared, games


def test_a_shared_cpd_gets_one_array_per_layout():
    shared, games = _two_layouts()
    for order in (games, games[::-1]):
        for game in order:
            assert expected_utility(game, PolicyProfile({}), 1) == pytest.approx(0.8)
    first, second = (kernel._cpd_tensor(g, "Y", shared) for g in games)
    assert first.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert second.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert len(vars(shared)["_arrays"]) == 2


def test_kept_arrays_are_read_only(job_market):
    pure_nash(job_market)
    kept = [a for cpd in job_market.cpds.values() for a in vars(cpd)["_arrays"].values()]
    kept += [array for _, array in kernel.utility_factors(job_market, [1, 2])]
    assert kept and not any(a.flags.writeable for a in kept)
    with pytest.raises(ValueError, match="read-only"):
        kept[0][...] = 0.0


def test_a_copy_made_after_a_solve_answers_alike():
    game = resolve_game("job_market")
    solved = pure_nash(game).outcomes
    copied = copy.deepcopy(game)
    assert not any("_arrays" in vars(cpd) for cpd in copied.cpds.values())
    again = pure_nash(copied).outcomes
    assert [repr(p) for p in again] == [repr(p) for p in solved]
    for profile in solved:
        for agent in (1, 2):
            assert expected_utility(copied, profile, agent) == expected_utility(
                game, profile, agent
            )


def test_no_kept_array_crosses_operations(monkeypatch):
    """One query on each of two fresh deep copies of a scenario, as the
    benchmark runs each operation: the second builds every table again,
    and within one query the tables are reused."""
    scenario = resolve_scenario("reward_hidden")
    built, calls = [], []
    tensor = kernel._cpd_tensor

    def counted(*args, **kwargs):
        array = tensor(*args, **kwargs)
        calls.append(array)
        if not any(array is b for b in built):
            built.append(array)
        return array

    monkeypatch.setattr(kernel, "_cpd_tensor", counted)
    answers, per_copy = [], []
    for _ in range(2):
        job = _job_from_scenario(copy.deepcopy(scenario), argparse.Namespace(
            seed=None, epsilon=None))
        before = len(built)
        answers.append(evaluate_query(job))
        per_copy.append(built[before:])
    first, second = per_copy
    assert first and len(first) == len(second)
    assert not {id(a) for a in first} & {id(a) for a in second}
    assert len(calls) > len(built)
    assert answers[0].verdict == answers[1].verdict
    assert [leaf.value for leaf in answers[0].leaves] == [
        leaf.value for leaf in answers[1].leaves
    ]


# -- the numeric policy -----------------------------------------------------------


def _public_callables():
    """Each public function and class of the package and its modules, and
    each class's public methods, by qualified name."""
    import causalgames

    modules = [causalgames] + [
        importlib.import_module(f"causalgames.{m.name}")
        for m in pkgutil.iter_modules(causalgames.__path__)
    ]
    found = {}
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj):
                continue
            if not getattr(obj, "__module__", "").startswith("causalgames"):
                continue
            found[obj.__qualname__] = obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if not attr.startswith("_") and inspect.isfunction(member):
                        found[member.__qualname__] = member
    return found


def test_no_public_callable_overrides_the_numeric_policy():
    """Every tolerance is a constant at the top of ``model``: no public
    callable takes one per call, nor a ``relation``, nor an optional
    ``decision`` that only restates what its other arguments fix, nor a
    grid ``step``: commitment has one exact solver, ``optimal_commitment(game,
    leader)``, and an equilibrium set holds its outcomes and families only.
    ``verify_rational_outcome`` keeps ``eps``: the tests check candidates
    with it at ``VERIFY_EPS`` and at other values."""
    from causalgames.equilibrium import RationalOutcomeSet

    callables = _public_callables()
    assert "verify_rational_outcome" in callables and "validate_game" in callables
    knobs = set()
    for name, obj in callables.items():
        try:
            params = inspect.signature(obj).parameters.values()
        except ValueError:  # a builtin with no signature
            continue
        for p in params:
            optional = p.default is not inspect.Parameter.empty
            if p.name in ("eps", "tol", "relation", "grid_step", "step") or (
                p.name == "decision" and optional
            ):
                knobs.add(f"{name}.{p.name}")
    assert knobs == {"verify_rational_outcome.eps"}
    commit = inspect.signature(callables["optimal_commitment"]).parameters
    assert list(commit) == ["game", "leader"]
    assert [f.name for f in dataclasses.fields(RationalOutcomeSet)] == ["outcomes", "families"]


# -- records --------------------------------------------------------------------

RECORD_MODULES = ("model", "graphs", "equilibrium", "interventions", "queries", "scenarios")


def _record_classes():
    """Every dataclass a package module defines, by module then name."""
    found = []
    for name in RECORD_MODULES:
        module = importlib.import_module(f"causalgames.{name}")
        found += [
            obj for _, obj in sorted(vars(module).items())
            if isinstance(obj, type) and dataclasses.is_dataclass(obj)
            and obj.__module__ == module.__name__
        ]
    return found


def _record_samples():
    """Record instances reachable from a solve, a staged query, a scenario's
    interventions and their inverses, a joint, paths and a parsed formula."""
    from causalgames import (
        BEST_RESPONSE, AddVariable, FixMechanism, FixObject, RemoveVariable, apply_journaled,
        behavioral_nash_small, build_mechanised_graph, decompose, parse_query,
        reachability_paths, side_effects,
    )

    game = resolve_game("job_market")
    scenario = resolve_scenario("commitment_revealed")
    job = _job_from_scenario(scenario, argparse.Namespace(seed=None, epsilon=None))
    steps = [p for _, c in scenario.interventions for p in c.steps]
    add = AddVariable(
        Variable("N", "chance", ("a", "b")), (), ("D1",),
        cpd=TabularCPD("N", (), {(): (0.5, 0.5)}),
    )
    commit = FixMechanism("PI_D1", game.delta_rule("D1", "g"))
    pin = FixObject("D1", (), TabularCPD.delta("D1", "g", game.domain("D1")))
    applied = [apply_journaled(game, p)[1] for p in (add, commit, pin)]
    steps += applied + [p.inverse for p in applied]
    steps.append(RemoveVariable("N"))
    roots = [
        game, scenario, job, evaluate_query(job), BEST_RESPONSE,
        pure_nash(game), behavioral_nash_small(game), job.decomposition(),
        decompose(scenario.game, scenario.interventions, scenario.visibility),
        side_effects(scenario.game, steps[0]), build_mechanised_graph(game),
        reachability_paths(game, "PI_D1", "PI_D2"), steps,
        induced_joint(game, pure_nash(game).outcomes[0]),
        parse_query("forall ne: not P(D2=j) >= 0.5 and E[1] > 1 + 2 * 0.5 or E[total] < 3"),
    ]
    samples, seen, todo = {}, set(), list(roots)
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if dataclasses.is_dataclass(obj):
            samples.setdefault(type(obj), []).append(obj)
            todo += [getattr(obj, f.name) for f in dataclasses.fields(obj)]
        elif isinstance(obj, dict):
            todo += [*obj.keys(), *obj.values()]
        elif isinstance(obj, (list, tuple, frozenset, set)):
            todo += obj
    return samples


def _reference(cls):
    """``cls`` rebuilt by ``make_dataclass(frozen=True)``: the methods
    ``dataclasses`` generates, over the same fields."""
    return dataclasses.make_dataclass(
        cls.__name__,
        [
            (f.name, f.type, dataclasses.field(
                default=f.default, default_factory=f.default_factory,
                compare=f.compare, hash=f.hash, repr=f.repr,
            ))
            for f in dataclasses.fields(cls)
        ],
        frozen=True,
    )


def _outcome(thunk):
    try:
        return "value", thunk()
    except Exception as exc:  # the two classes must fail alike too
        return type(exc).__name__, str(exc)


def test_records_behave_as_generated_frozen_dataclasses():
    """Each record agrees with a ``make_dataclass(frozen=True)`` twin on
    equality, hashing, ``repr``, refused assignment and deletion,
    ``replace``, defaults, refused arguments, its signature and its
    docstring."""
    import ast

    classes = _record_classes()
    assert len(classes) == 29
    samples = _record_samples()
    assert set(classes) <= set(samples), set(classes) - set(samples)
    for cls in classes:
        ref = _reference(cls)
        twin = {id(x): ref(**{f.name: getattr(x, f.name) for f in dataclasses.fields(cls)})
                for x in samples[cls]}
        for x in samples[cls]:
            rx = twin[id(x)]
            assert repr(x) == repr(rx).replace(ref.__qualname__, cls.__qualname__, 1)
            assert _outcome(lambda: hash(x)) == _outcome(lambda: hash(rx))
            for y in samples[cls][:8]:
                assert (x == y) == (rx == twin[id(y)])
            assert x.__eq__(rx) is NotImplemented
            name = dataclasses.fields(cls)[0].name
            for act in (lambda o: setattr(o, name, None), lambda o: delattr(o, name),
                        lambda o: setattr(o, "other", None)):
                assert _outcome(lambda: act(x)) == _outcome(lambda: act(rx))
                assert _outcome(lambda: act(x))[0] == "FrozenInstanceError"
            same = replace(x)
            assert type(same) is cls and same == x
            assert replace(rx) == rx
            required = {
                f.name: getattr(x, f.name) for f in dataclasses.fields(cls)
                if f.default is f.default_factory is dataclasses.MISSING
            }
            shown = repr(ref(**required)).replace(ref.__qualname__, cls.__qualname__, 1)
            assert repr(cls(**required)) == repr(cls(*required.values())) == shown
            args = [getattr(x, f.name) for f in dataclasses.fields(cls)]
            for bad in ({"args": [*args, None]}, {"args": []},
                        {"args": args, "kwargs": {name: args[0]}},
                        {"args": args[:1], "kwargs": {"bogus": 1}}):
                for c in (cls, ref):
                    call = lambda: c(*bad["args"], **bad.get("kwargs", {}))
                    assert _outcome(call)[0] == "TypeError"
        params = inspect.signature(cls).parameters.values()
        ref_params = inspect.signature(ref).parameters.values()
        assert [(p.name, repr(p.default)) for p in params] == [
            (p.name, repr(p.default)) for p in ref_params
        ]
        tree = ast.parse(inspect.getsource(inspect.getmodule(cls)))
        [node] = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls.__name__]
        written = ast.get_docstring(node, clean=False)
        assert cls.__doc__ == (written if written is not None else ref.__doc__)


def test_replace_method_matches_dataclasses_replace():
    """``__replace__``, which ``copy.replace`` calls on Python 3.13, builds
    what ``dataclasses.replace`` builds, and refuses what it refuses."""
    for cls, xs in _record_samples().items():
        first = dataclasses.fields(cls)[0].name
        for x in xs:
            for changes in ({}, {first: getattr(xs[-1], first)}, {"bogus": 1}):
                got = _outcome(lambda: x.__replace__(**changes))
                assert got == _outcome(lambda: replace(x, **changes))
                assert got[0] == "TypeError" or type(got[1]) is cls


def test_first_introspection_from_threads_matches_an_eager_dataclass():
    """Threads racing to read a fresh record's fields for the first time all
    get those an eagerly decorated twin has, and the class is left as it
    was."""

    def fields_of(cls):
        return [
            (f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash,
             f.compare) for f in dataclasses.fields(cls)
        ]

    @dataclasses.dataclass(frozen=True)
    class Eager:
        name: str
        table: dict = dataclasses.field(default_factory=dict, compare=False)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            @model._record
            class Lazy:
                name: str
                table: dict = model.field(default_factory=dict, compare=False)

            before = dict(vars(Lazy))
            start, seen = threading.Barrier(8), []

            def read():
                start.wait(timeout=10)
                seen.append(fields_of(Lazy))

            threads = [threading.Thread(target=read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert seen == [fields_of(Eager)] * 8
            assert dict(vars(Lazy)) == before
    finally:
        sys.setswitchinterval(switch)


@pytest.mark.parametrize("protocol", [2, pickle.HIGHEST_PROTOCOL])
def test_records_survive_a_pickle_round_trip(protocol):
    for cls, xs in _record_samples().items():
        for x in xs:
            back = pickle.loads(pickle.dumps(x, protocol))
            assert type(back) is cls and back == x


@pytest.mark.parametrize("protocol", [2, pickle.HIGHEST_PROTOCOL])
def test_a_solved_game_answers_alike_after_a_pickle_round_trip(protocol):
    from causalgames import build_mechanised_graph

    game = resolve_game("job_market")
    answers = pure_nash(game), build_mechanised_graph(game)
    back = pickle.loads(pickle.dumps(game, protocol))
    assert back == game
    assert (pure_nash(back), build_mechanised_graph(back)) == answers


def _added(*, parents=(), children=()):
    return AddVariable(Variable("N", "chance", ("a", "b")), parents, children)


@pytest.mark.parametrize(
    "build, error, owner, key, value",
    [
        (lambda g: Variable("X", "chance", "ab"), ValidationError, "X", "domain", "ab"),
        (lambda g: TabularCPD("X", "AB", {}), ValidationError, "X", "parents", "AB"),
        (lambda g: TabularCPD.delta("X", "a", "ab"), ValidationError, "X", "domain", "ab"),
        (lambda g: TabularCPD.uniform("X", "ab"), ValidationError, "X", "domain", "ab"),
        (lambda g: tabulate("X", "AB", g.domain, None), ValidationError, "X", "parents", "AB"),
        (lambda g: CausalGame(g.n_agents, g.variables, {**g.parents, "D2": "D1"}, g.cpds),
         ValidationError, "D2", "parents", "D1"),
        (lambda g: apply_all(g, [FixObject("D2", "D1")]),
         InterventionError, "D2", "parents", "D1"),
        (lambda g: _added(parents="D1"), InterventionError, "N", "parents", "D1"),
        (lambda g: _added(children="D1"), InterventionError, "N", "children", "D1"),
    ],
    ids=["Variable.domain", "TabularCPD.parents", "TabularCPD.delta", "TabularCPD.uniform",
         "tabulate", "CausalGame.parents", "FixObject.parents", "AddVariable.parents",
         "AddVariable.children"],
)
def test_a_bare_string_is_refused_where_names_or_values_are_listed(
    job_market, build, error, owner, key, value
):
    """A string is a sequence of one-letter strings: ``"ab"`` given as a
    domain or a parent list names the field and the string, not ``a``
    and ``b``."""
    message = f"{owner}: {key!r} must be a sequence, not the string {value!r}"
    with pytest.raises(error, match=re.escape(message)):
        build(job_market)


def test_a_copied_cpd_drops_its_kept_arrays(job_market):
    cpd = job_market.cpds["U1"]
    kernel._cpd_tensor(job_market, "U1", cpd)
    assert "_arrays" in vars(cpd)
    copied = copy.deepcopy(cpd)
    assert "_arrays" not in vars(copied) and copied == cpd
