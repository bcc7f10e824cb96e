import argparse
import copy
import importlib
import inspect
import itertools
import pkgutil
import random
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalgames import (
    CausalGame,
    PolicyProfile,
    TabularCPD,
    ValidationError,
    Variable,
    apply_all,
    enumerate_pure_rules,
    evaluate_query,
    expected_utility,
    induced_joint,
    pure_nash,
    validate_game,
)
from causalgames import model
from causalgames.cli import _job_from_scenario, resolve_game, resolve_scenario
from causalgames.errors import SolverError
from causalgames.model import _check_cpd, violations
from helpers import (
    brute_force_joint,
    expected_utility_from_joint,
    fan_game,
    fraction_expected_utility,
    random_full_profile,
    random_game,
    random_rich_game,
    reference_pure_rules,
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
        "valid_table",
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
    if kind == "free_decision_cpd":
        free = game.free_decisions()
        if not free:
            return None
        d = rng.choice(free)
        contexts = itertools.product(*(_values(game, p) for p in game.parents_of(d)))
        cpd = TabularCPD.uniform(d, game.domain(d), game.parents_of(d), contexts)
        return replace(game, cpds={**game.cpds, d: cpd}), d
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
    for space in (0, 1 << 62):
        with mock.patch.object(model, "DIRECT_SPACE", space):
            got = model._contract(factors, keep)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


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
    assert model._contract(many, ()) == pytest.approx((1.0 + 0.5 ** 35) ** 2, rel=1e-12)


def test_a_step_past_einsums_label_cap_is_a_solver_error():
    """Summing out ``X`` of a 62-child fan multiplies 63 factors over 63
    labels, past the 52 one einsum takes (numpy 1.x refuses ``U``'s
    63-axis table first)."""
    game = fan_game(62)
    assert validate_game(game) == []
    with pytest.raises(SolverError, match="numpy"):
        expected_utility(game, PolicyProfile({}), 1)


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
    assert model._contract([(("a",), np.ones(2))] * 70, ()) == 2.0
    scaled = [(("a",), np.array([1.0, 0.9]))] * 70 + [(("b",), np.arange(3.0))]
    got = model._contract(scaled, ("b",))
    np.testing.assert_allclose(got, (1.0 + 0.9 ** 70) * np.arange(3.0), rtol=1e-12)


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
    first, second = (model._cpd_tensor(g, "Y", shared) for g in games)
    assert first.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert second.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert len(vars(shared)["_arrays"]) == 2


def test_kept_arrays_are_read_only(job_market):
    pure_nash(job_market)
    kept = [a for cpd in job_market.cpds.values() for a in vars(cpd)["_arrays"].values()]
    kept += [array for _, array in model.utility_factors(job_market, [1, 2])]
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
    tensor = model._cpd_tensor

    def counted(*args, **kwargs):
        array = tensor(*args, **kwargs)
        calls.append(array)
        if not any(array is b for b in built):
            built.append(array)
        return array

    monkeypatch.setattr(model, "_cpd_tensor", counted)
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
    ``decision`` that only restates what its other arguments fix.
    ``verify_rational_outcome`` keeps ``eps``: the tests check candidates
    with it at ``VERIFY_EPS`` and at other values."""
    callables = _public_callables()
    assert "verify_rational_outcome" in callables and "cpds_equal" in callables
    knobs = set()
    for name, obj in callables.items():
        try:
            params = inspect.signature(obj).parameters.values()
        except ValueError:  # a builtin with no signature
            continue
        for p in params:
            optional = p.default is not inspect.Parameter.empty
            if p.name in ("eps", "tol", "relation") or (
                p.name == "decision" and optional
            ):
                knobs.add(f"{name}.{p.name}")
    assert knobs == {"verify_rational_outcome.eps"}
