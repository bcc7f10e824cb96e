"""Acceptance suite: every contract criterion at its stated tolerance.

Each test prints one [criterion N] PASS line after its assertions; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import itertools
import random

import networkx as nx
import pytest

from causalgames import (
    CompoundIntervention,
    FixMechanism,
    FixObject,
    PolicyProfile,
    TabularCPD,
    apply_journaled,
    apply_primitive,
    best_responses,
    build_mechanised_graph,
    check_spec_env,
    decompose,
    expected_utility,
    induced_joint,
    invert,
    make_remove_edge,
    minimum_intervention_set,
    optimal_commitment,
    pure_nash,
    verify_rational_outcome,
)
from causalgames.graphs import _reachable
from causalgames.queries import QueryJob, evaluate_query
from helpers import (
    agent_view,
    decompose_fix_object,
    games_equal,
    numeric_conditional_independence,
    object_view,
    random_cbn,
    random_distribution,
    random_full_profile,
    random_game,
)


def note(n, message):
    print(f"[criterion {n:02d}] PASS  {message}")


def hard_fix(game, target, value):
    return FixObject(target, (), TabularCPD.delta(target, value, game.domain(target)))


def payoffs(game, profile):
    return tuple(
        expected_utility(game, profile, a) for a in range(1, game.n_agents + 1)
    )


def test_criterion_01_mechanised_graph_exact(job_market):
    mg = build_mechanised_graph(job_market)
    assert mg.inter_mechanism_edges == frozenset(
        {
            ("THETA_T", "PI_D1"),
            ("THETA_U1", "PI_D1"),
            ("PI_D2", "PI_D1"),
            ("THETA_T", "PI_D2"),
            ("THETA_U2", "PI_D2"),
            ("PI_D1", "PI_D2"),
        }
    )
    note(1, "signalling game's strategic-relevance edges match exactly")


def test_criterion_02_side_effect_of_hard_decision_fix(job_market):
    from causalgames import side_effects

    fix = hard_fix(job_market, "D1", "g")
    report = side_effects(job_market, fix)
    assert report.removed == frozenset({("PI_D1", "PI_D2")})
    assert report.added == frozenset()
    fixed = apply_primitive(job_market, fix)
    assert build_mechanised_graph(fixed).inter_mechanism_edges == frozenset(
        {
            ("THETA_T", "PI_D1"),
            ("THETA_U1", "PI_D1"),
            ("PI_D2", "PI_D1"),
            ("THETA_T", "PI_D2"),
            ("THETA_U2", "PI_D2"),
        }
    )
    note(2, "forcing the degree removes exactly the worker-to-firm rule edge")


def test_criterion_03_pure_equilibria_exact(prisoners, stackelberg):
    pd = pure_nash(prisoners)
    assert len(pd.outcomes) == 1
    assert pd.outcomes[0]["D1"].row(()) == (0.0, 1.0)
    assert pd.outcomes[0]["D2"].row(()) == (0.0, 1.0)
    assert payoffs(prisoners, pd.outcomes[0]) == (-2.0, -2.0)
    st = pure_nash(stackelberg)
    assert len(st.outcomes) == 1
    assert st.outcomes[0]["D1"].row(()) == (1.0, 0.0)
    assert st.outcomes[0]["D2"].row(()) == (1.0, 0.0)
    assert expected_utility(stackelberg, st.outcomes[0], 1) == 2.0
    note(3, "dilemma solves to mutual defection, base game to (top,left)")


def test_criterion_04_environment_modification(job_market, effortville):
    outcomes = pure_nash(effortville).outcomes
    assert len(outcomes) == 3
    multiset = sorted(payoffs(effortville, p) for p in outcomes)
    assert multiset == [(4.0, 3.0), (5.0, 3.0), (5.0, 3.0)]
    env = FixMechanism("THETA_T", job_market.delta_cpd("T", "h"))
    assert check_spec_env(job_market, [env], "D2=j")
    assert check_spec_env(job_market, [], "D2=j")
    assert not check_spec_env(job_market, [], "D2=j", include_behavioral=True)
    # an event may be given as a mapping
    assert check_spec_env(job_market, [env], {"D2": "j"})
    assert not check_spec_env(job_market, [], {"D2": "j"}, include_behavioral=True)
    note(4, "three equilibria with the listed payoffs; spec check behaves")


def test_criterion_05_commitment_suite(stackelberg):
    half = TabularCPD("D1", (), {(): (0.5, 0.5)})
    committed = apply_primitive(stackelberg, FixMechanism("PI_D1", half))
    response = best_responses(committed, 2, PolicyProfile({}))
    assert len(response) == 1
    value = expected_utility(committed, response[0], 1)
    assert value == pytest.approx(3.5, abs=1e-9)

    rule_b = stackelberg.delta_rule("D1", "B")
    revealed = QueryJob(
        game=stackelberg,
        interventions=(("commit", FixMechanism("PI_D1", rule_b)),),
        visibility={2: ("commit",)},
        query="sampled: E[1]",
    )
    assert evaluate_query(revealed).verdict == pytest.approx(3.0, abs=1e-9)

    private = QueryJob(
        game=stackelberg,
        interventions=(("commit", FixMechanism("PI_D1", rule_b)),),
        visibility={},
        query="sampled: E[1]",
    )
    assert evaluate_query(private).verdict == pytest.approx(2.0, abs=1e-9)

    rule, value = optimal_commitment(stackelberg, 1)
    assert rule.row(())[0] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert value == pytest.approx(11.0 / 3.0, abs=1e-9)
    note(5, "mixed commitment 3.5, revealed 3, private 2, optimum (2/3, 11/3)")


def _reward_interventions():
    u1 = TabularCPD(
        "U1",
        ("D1", "D2"),
        {
            ("C", "C"): (0.0, 0.0, 0.0, 1.0),
            ("C", "D"): (1.0, 0.0, 0.0, 0.0),
            ("D", "C"): (0.0, 0.0, 0.0, 1.0),
            ("D", "D"): (0.0, 1.0, 0.0, 0.0),
        },
    )
    u2 = TabularCPD(
        "U2",
        ("D1", "D2"),
        {
            ("C", "C"): (0.0, 0.0, 0.0, 1.0),
            ("C", "D"): (0.0, 0.0, 0.0, 1.0),
            ("D", "C"): (1.0, 0.0, 0.0, 0.0),
            ("D", "D"): (0.0, 1.0, 0.0, 0.0),
        },
    )
    return (
        ("reward1", FixMechanism("THETA_U1", u1)),
        ("reward2", FixMechanism("THETA_U2", u2)),
    )


def test_criterion_06_partially_visible_rewards(prisoners):
    hidden = QueryJob(
        game=prisoners,
        interventions=_reward_interventions(),
        visibility={1: ("reward1", "reward2"), 2: ()},
        query="sampled: E[total]",
        mix_ties=True,
    )
    assert evaluate_query(hidden).verdict == pytest.approx(-4.5, abs=1e-9)
    dec = hidden.decomposition()
    assert [sorted(s.agents) for s in dec.stages] == [[2], [1]]
    assert [len(s.primitives) for s in dec.stages] == [0, 2]

    reversed_job = QueryJob(
        game=prisoners,
        interventions=_reward_interventions(),
        visibility={1: ("reward1", "reward2"), 2: ()},
        query="sampled: E[total]",
        mix_ties=True,
        merge_common=False,
        agent_order=(1, 2),
    )
    assert evaluate_query(reversed_job).verdict == pytest.approx(-4.5, abs=1e-9)
    dec = reversed_job.decomposition()
    assert [sorted(s.agents) for s in dec.stages] == [[1], [2]]
    assert [len(s.primitives) for s in dec.stages] == [2, 2]
    note(6, "both reward stagings give expected total -4.5 under mixed ties")


def test_criterion_07_minimum_intervention_set(job_market):
    assert minimum_intervention_set(job_market, "PI_D1", "PI_D2") == ("D1",)
    note(7, "breaking the worker-to-firm rule dependency needs exactly {D1}")


def test_criterion_08_fix_equals_remove_then_add():
    rng = random.Random(808)
    for trial in range(200):
        game = random_game(rng)
        target = rng.choice([v.name for v in game.variables])
        if game.kind(target) == "decision":
            fix = hard_fix(game, target, rng.choice(game.domain(target)))
        else:
            dom = game.domain(target)
            fix = FixObject(
                target,
                (),
                TabularCPD(target, (), {(): random_distribution(rng, len(dom))}),
            )
        direct = apply_primitive(game, fix)
        staged = game
        for step in decompose_fix_object(game, fix):
            staged = apply_primitive(staged, step)
        assert games_equal(direct, staged)
        profile = random_full_profile(rng, direct)
        j1 = induced_joint(direct, profile)
        j2 = induced_joint(staged, profile)
        keys = set(j1.table) | set(j2.table)
        assert all(
            abs(j1.table.get(k, 0.0) - j2.table.get(k, 0.0)) <= 1e-12
            for k in keys
        )
    note(8, "200 random games: object fix equals remove-then-add to 1e-12")


def test_criterion_09_d_separation_vs_numeric_oracle():
    """The reachable-set search separates exactly where networkx does, and
    each separation holds in the joint."""
    rng = random.Random(909)
    checked = 0
    for _ in range(200):
        game = random_cbn(rng)
        joint = induced_joint(game, PolicyProfile({}))
        view = object_view(game)
        names = list(game.names())
        domains = {n: game.domain(n) for n in names}
        for i, x in enumerate(names):
            for z in names[i + 1:]:
                rest = [n for n in names if n not in (x, z)]
                for r in range(len(rest) + 1):
                    for given in itertools.combinations(rest, r):
                        reached = _reachable(game, {x}, frozenset(given))[0]
                        separated = z not in reached
                        assert separated == nx.is_d_separator(view, {x}, {z}, set(given))
                        if separated:
                            checked += 1
                            assert numeric_conditional_independence(
                                joint.table,
                                names,
                                domains,
                                {x},
                                {z},
                                set(given),
                                tol=1e-7,
                            )
    assert checked > 0
    note(9, f"200 random networks: {checked} separations, no false claims")


def test_criterion_10_round_trips_and_non_commutativity(job_market):
    rng = random.Random(1010)
    for _ in range(50):
        game = random_game(rng)
        d = rng.choice(game.decisions())
        prims = [hard_fix(game, d, rng.choice(game.domain(d)))]
        chance = [v.name for v in game.variables if v.kind == "chance"]
        if chance:
            c = rng.choice(chance)
            prims.append(hard_fix(game, c, rng.choice(game.domain(c))))
        compound = CompoundIntervention(tuple(prims))
        g2, applied = compound.apply(game)
        g3, _ = applied.invert().apply(g2)
        assert games_equal(game, g3)
        single, japplied = apply_journaled(game, prims[0])
        assert games_equal(game, apply_primitive(single, invert(japplied)))
    do_a = hard_fix(job_market, "T", "h")
    do_b = hard_fix(job_market, "T", "l")
    ab = apply_primitive(apply_primitive(job_market, do_a), do_b)
    ba = apply_primitive(apply_primitive(job_market, do_b), do_a)
    assert not games_equal(ab, ba)
    note(10, "fix/unfix and compose/invert restore games; orders differ")


def test_criterion_11_decomposition_reproduces_agent_views(job_market):
    pool = [
        ("env", FixMechanism("THETA_T", job_market.delta_cpd("T", "h"))),
        ("force", hard_fix(job_market, "D1", "g")),
        ("hide", make_remove_edge(job_market, "D1", "D2")),
    ]
    labels = [lab for lab, _ in pool]
    rng = random.Random(1111)
    for _ in range(60):
        visibility = {
            a: tuple(lab for lab in labels if rng.random() < 0.5)
            for a in (1, 2)
        }
        dec = decompose(job_market, pool, visibility)
        for agent, stage_index in dec.agent_stage.items():
            staged = job_market
            for stage in dec.stages[: stage_index + 1]:
                for prim in stage.primitives:
                    staged = apply_primitive(staged, prim)
                assert games_equal(stage.game, staged)
            view = agent_view(job_market, pool, visibility, agent)
            assert games_equal(staged, view)
    note(11, "staged games equal each agent's visible game on random maps")


def test_criterion_12_mixed_equilibrium_prior_identified(job_market):
    # The firm mixes after seeing no degree only if its posterior belief in a
    # hard worker is exactly the indifference point; solve for that posterior
    # and then for the prior that produces it under the worker's 1/2 mixture.
    def firm_gain_from_offering(q):
        return (3 * q + (-2) * (1 - q)) - ((-1) * q + 0 * (1 - q))

    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if firm_gain_from_offering(mid) < 0:
            lo = mid
        else:
            hi = mid
    posterior = (lo + hi) / 2
    assert posterior == pytest.approx(1.0 / 3.0, abs=1e-12)

    def posterior_no_degree(prior):
        w_hard, w_lazy = 0.5, 0.0
        return (prior * (1 - w_hard)) / (
            prior * (1 - w_hard) + (1 - prior) * (1 - w_lazy)
        )

    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if posterior_no_degree(mid) < posterior:
            lo = mid
        else:
            hi = mid
    prior = (lo + hi) / 2
    assert prior == pytest.approx(0.5, abs=1e-12)
    assert job_market.cpds["T"].row(())[0] == pytest.approx(prior, abs=1e-12)

    profile = PolicyProfile(
        {
            "D1": TabularCPD(
                "D1", ("T",), {("h",): (0.5, 0.5), ("l",): (0.0, 1.0)}
            ),
            "D2": TabularCPD(
                "D2", ("D1",), {("g",): (1.0, 0.0), ("ng",): (0.8, 0.2)}
            ),
        }
    )
    assert verify_rational_outcome(job_market, profile)
    hire_probability = induced_joint(job_market, profile).prob({"D2": "j"})
    assert hire_probability == pytest.approx(17.0 / 20.0, abs=1e-12)
    assert abs(hire_probability - 0.9) > 1e-3
    note(
        12,
        "mixed equilibrium needs prior 1/2; hire probability is 0.85, "
        "not the reported 0.9",
    )
