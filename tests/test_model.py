import itertools
import random
from fractions import Fraction

import pytest

from causalgames import (
    CausalGame,
    PolicyProfile,
    TabularCPD,
    ValidationError,
    Variable,
    apply_all,
    enumerate_pure_rules,
    expected_utility,
    induced_joint,
    validate_game,
)
from causalgames.cli import resolve_game, resolve_scenario
from helpers import (
    brute_force_joint,
    expected_utility_from_joint,
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
