import copy
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from causalgames import (
    AddVariable,
    CausalGame,
    CompoundIntervention,
    FixMechanism,
    FixObject,
    InterventionError,
    PolicyProfile,
    QueryJob,
    RemoveVariable,
    TabularCPD,
    Variable,
    apply_all,
    apply_journaled,
    apply_primitive,
    decompose,
    evaluate_query,
    incentive_invariant,
    induced_joint,
    invert,
    make_add_edge,
    make_remove_edge,
    minimum_intervention_set,
    predicted_edge_removals,
    reachability_paths,
    side_effects,
    tabulate,
    validate_game,
)
from causalgames.graphs import rule_node
from causalgames.interventions import as_compound
from causalgames.model import _dependency_order
from helpers import (
    agent_view,
    decompose_fix_object,
    reference_decompose,
    dense_to_utility_game,
    games_equal,
    is_minimum_hitting_set,
    mechanism_node,
    object_fixes,
    path_criterion_removals,
    random_distribution,
    random_full_profile,
    random_game,
    random_multi_decision_game,
    random_rich_game,
)


def hard_fix(game, target, value):
    return FixObject(target, (), TabularCPD.delta(target, value, game.domain(target)))


def theta_fix(game, variable, value):
    return FixMechanism(f"THETA_{variable}", game.delta_cpd(variable, value))


# -- apply ----------------------------------------------------------------------


def test_hard_decision_fix_severs_edges(job_market):
    fixed = apply_primitive(job_market, hard_fix(job_market, "D1", "g"))
    assert fixed.parents_of("D1") == ()
    assert "D1" in fixed.object_fixed
    assert fixed.cpds["D1"].row(()) == (1.0, 0.0)
    # rule node isolated, observation edge gone; everything else intact
    assert fixed.parents_of("D2") == ("D1",)
    assert fixed.parents_of("U1") == ("T", "D1", "D2")


def test_mechanism_fix_keeps_graph(job_market):
    fixed = apply_primitive(job_market, theta_fix(job_market, "T", "h"))
    assert fixed.parents == job_market.parents
    assert fixed.cpds["T"].row(()) == (1.0, 0.0)
    assert fixed.variables == job_market.variables


def test_identity_fix_is_identity(job_market):
    identity = FixObject("T", (), job_market.cpds["T"])
    assert games_equal(job_market, apply_primitive(job_market, identity))


def test_mechanism_fix_cannot_change_parents(job_market):
    cpd = TabularCPD("U2", ("D2",), {("j",): (0, 0, 0, 1), ("nj",): (0, 0, 1, 0)})
    with pytest.raises(InterventionError, match="parent set"):
        apply_primitive(job_market, FixMechanism("THETA_U2", cpd))


def test_non_finite_mechanism_row_rejected(job_market):
    nan_prior = TabularCPD("T", (), {(): (float("nan"), 1.0)})
    with pytest.raises(InterventionError, match="non-finite"):
        apply_primitive(job_market, FixMechanism("THETA_T", nan_prior))
    inf_prior = TabularCPD("T", (), {(): (float("inf"), 0.0)})
    with pytest.raises(InterventionError, match="non-finite"):
        apply_primitive(job_market, FixObject("T", (), inf_prior))


def test_dangling_parent_rejected(job_market):
    with pytest.raises(InterventionError, match="unknown parent"):
        apply_primitive(
            job_market,
            FixObject("T", ("ghost",), TabularCPD("T", ("ghost",), {})),
        )


def test_remove_missing_variable_rejected(job_market):
    with pytest.raises(InterventionError, match="unknown variable"):
        apply_primitive(job_market, RemoveVariable("ghost"))


def test_utility_stays_a_leaf(job_market):
    with pytest.raises(InterventionError, match="utility U1 cannot be a parent"):
        apply_primitive(job_market, make_add_edge(job_market, "U1", "U2"))
    coin = TabularCPD("N", ("U1",), {(u,): (0.5, 0.5) for u in job_market.domain("U1")})
    with pytest.raises(InterventionError, match="utility U1 cannot be a parent"):
        apply_primitive(job_market, AddVariable(Variable("N", "chance", ("u", "v")), ("U1",), (), coin))
    bonus = Variable("B", "utility", (0, 1), 1)
    with pytest.raises(InterventionError, match="U1: utility B cannot be a parent"):
        apply_primitive(
            job_market,
            AddVariable(bonus, (), ("U1",), TabularCPD("B", (), {(): (0.5, 0.5)})),
        )


def test_rule_fix_needs_a_committed_or_pinned_decision(job_market):
    rule = job_market.delta_rule("D2", "j")
    with pytest.raises(InterventionError, match="D2 is free"):
        apply_primitive(job_market, FixObject("D2", ("D1",), rule_fix=rule))


@pytest.mark.parametrize("target", ["X_D1", "D1", "PIX_D1"])
def test_malformed_mechanism_target_is_an_intervention_error(job_market, target):
    with pytest.raises(InterventionError, match="is not a mechanism node name"):
        apply_primitive(job_market, FixMechanism(target, None))


def test_rule_fix_on_a_chance_variable_is_a_missing_cpd(job_market):
    """Only a decision has a rule; a chance variable given one and no
    table is refused as a table-less variable, not pointed at a rule node."""
    rule = TabularCPD("T", (), {(): (0.5, 0.5)})
    with pytest.raises(InterventionError, match="^T: missing CPD$"):
        apply_primitive(job_market, FixObject("T", (), rule_fix=rule))


def test_object_fixed_decision_child_keeps_a_valid_table(job_market):
    pinned = apply_primitive(
        job_market, FixObject("D2", ("D1",), job_market.delta_rule("D2", "j"))
    )
    noise = AddVariable(
        Variable("N", "chance", ("u", "v")), (), ("D2",),
        cpd=TabularCPD("N", (), {(): (0.3, 0.7)}),
    )
    g2, applied = apply_journaled(pinned, noise)
    assert validate_game(g2) == []
    assert g2.cpds["D2"].parents == ("D1", "N")
    assert games_equal(apply_primitive(g2, invert(applied)), pinned)
    # D1 is free, so D2's table needs a replacement without it
    u1 = TabularCPD.uniform("U1", pinned.domain("U1"), ("T", "D2"), pinned.domain)
    with pytest.raises(InterventionError, match="child D2 needs an explicit"):
        apply_primitive(pinned, RemoveVariable("D1", child_cpds={"U1": u1}))
    d2 = TabularCPD("D2", (), {(): (0.5, 0.5)})
    g3, applied = apply_journaled(
        pinned, RemoveVariable("D1", child_cpds={"U1": u1, "D2": d2})
    )
    assert validate_game(g3) == []
    assert games_equal(apply_primitive(g3, invert(applied)), pinned)


def _three_parent_child():
    """Chance ``C`` with parents ``A``, ``Y``, ``B``, each root binary."""
    variables = tuple(Variable(n, "chance", ("0", "1")) for n in ("A", "B", "Y", "C"))
    rows = {
        ctx: (0.1 + 0.1 * k, 0.9 - 0.1 * k)
        for k, ctx in enumerate(itertools.product("01", repeat=3))
    }
    return __import__("causalgames").CausalGame(
        1,
        variables,
        {"A": (), "B": (), "Y": (), "C": ("A", "Y", "B")},
        {
            "A": TabularCPD("A", (), {(): (0.5, 0.5)}),
            "B": TabularCPD("B", (), {(): (0.5, 0.5)}),
            "Y": TabularCPD("Y", (), {(): (0.25, 0.75)}),
            "C": TabularCPD("C", ("A", "Y", "B"), rows),
        },
    )


def test_remove_marginalises_into_a_reordered_parent_tuple():
    game = _three_parent_child()
    kept = apply_primitive(game, RemoveVariable("Y"))
    swapped = apply_primitive(game, RemoveVariable("Y", child_parents={"C": ("B", "A")}))
    assert swapped.parents_of("C") == ("B", "A")
    for a, b in itertools.product("01", repeat=2):
        assert swapped.cpds["C"].row((b, a)) == kept.cpds["C"].row((a, b))


def test_removal_replacement_table_sets_the_parent_order():
    """A removal's replacement table may order the child's remaining
    parents itself; the inverse restores the game exactly, and an order
    that drops or adds a parent is refused."""
    game = _three_parent_child()
    permuted = TabularCPD("C", ("B", "A"), {
        (b, a): (0.2 + 0.2 * int(a), 0.8 - 0.2 * int(a))
        for a, b in itertools.product("01", repeat=2)
    })
    removed, applied = apply_journaled(
        game, RemoveVariable("Y", child_cpds={"C": permuted})
    )
    assert removed.parents_of("C") == ("B", "A")
    assert removed.cpds["C"] is permuted
    assert validate_game(removed) == []
    assert games_equal(apply_primitive(removed, invert(applied)), game)
    for order in (("A",), ("B", "A", "Y")):
        short = TabularCPD.uniform("C", ("0", "1"), order, lambda _: "01")
        with pytest.raises(InterventionError, match="parent order for C must cover"):
            apply_primitive(game, RemoveVariable("Y", child_cpds={"C": short}))


# -- inversion --------------------------------------------------------------------


def test_unfix_restores_decision(job_market):
    g2, applied = apply_journaled(job_market, hard_fix(job_market, "D1", "g"))
    restored = apply_primitive(g2, invert(applied))
    assert games_equal(job_market, restored)
    assert restored.parents_of("D1") == ("T",)


def test_reward_inverse_restores_tables(prisoners):
    reward = FixMechanism(
        "THETA_U1",
        TabularCPD(
            "U1",
            ("D1", "D2"),
            {
                ("C", "C"): (0.0, 0.0, 0.0, 1.0),
                ("C", "D"): (1.0, 0.0, 0.0, 0.0),
                ("D", "C"): (0.0, 0.0, 0.0, 1.0),
                ("D", "D"): (0.0, 1.0, 0.0, 0.0),
            },
        ),
    )
    g2, applied = apply_journaled(prisoners, reward)
    assert not games_equal(prisoners, g2)
    inverse = invert(applied)
    assert games_equal(prisoners, apply_primitive(g2, inverse))
    assert inverse.cpd.table == prisoners.cpds["U1"].table


def test_identity_inverse_is_identity(job_market):
    identity = FixObject("T", (), job_market.cpds["T"])
    g2, applied = apply_journaled(job_market, identity)
    assert games_equal(job_market, apply_primitive(g2, invert(applied)))


def test_invert_requires_journal(job_market):
    with pytest.raises(InterventionError, match="journal"):
        invert(hard_fix(job_market, "D1", "g"))


def test_compound_round_trips_random_games():
    rng = random.Random(31)
    for _ in range(30):
        game = random_game(rng)
        prims = []
        chance = [v.name for v in game.variables if v.kind == "chance"]
        if chance:
            target = rng.choice(chance)
            prims.append(hard_fix(game, target, rng.choice(game.domain(target))))
        d = rng.choice(game.decisions())
        prims.append(hard_fix(game, d, rng.choice(game.domain(d))))
        compound = CompoundIntervention(tuple(prims))
        g2, applied = compound.apply(game)
        g3, _ = applied.invert().apply(g2)
        assert games_equal(game, g3)


def test_non_commutativity_witness(job_market):
    do_a = hard_fix(job_market, "T", "h")
    do_b = hard_fix(job_market, "T", "l")
    ab = apply_primitive(apply_primitive(job_market, do_a), do_b)
    ba = apply_primitive(apply_primitive(job_market, do_b), do_a)
    assert not games_equal(ab, ba)
    assert ab.cpds["T"].table != ba.cpds["T"].table


# -- derived edge interventions -----------------------------------------------------


def test_remove_edge_marginalises(job_market):
    g2 = apply_primitive(job_market, make_remove_edge(job_market, "T", "U2"))
    assert g2.parents_of("U2") == ("D2",)
    # hand-marginalised with P(T=h)=0.5 over domain (-2, -1, 0, 3)
    assert g2.cpds["U2"].row(("j",)) == pytest.approx((0.5, 0.0, 0.0, 0.5))
    assert g2.cpds["U2"].row(("nj",)) == pytest.approx((0.0, 0.5, 0.5, 0.0))


def test_add_then_remove_edge_round_trip(job_market):
    # chance source and target: duplication then marginalisation of the
    # still-ignored parent restores the original table exactly
    variables = (
        Variable("A", "chance", ("x", "y")),
        Variable("B", "chance", ("u", "v")),
    )
    cpds = {
        "A": TabularCPD("A", (), {(): (0.3, 0.7)}),
        "B": TabularCPD("B", (), {(): (0.6, 0.4)}),
    }
    game = __import__("causalgames").CausalGame(1, variables, {"A": (), "B": ()}, cpds)
    g2 = apply_primitive(game, make_add_edge(game, "A", "B"))
    assert g2.parents_of("B") == ("A",)
    g3 = apply_primitive(g2, make_remove_edge(g2, "A", "B"))
    assert games_equal(game, g3)
    # decision target round trip: only the information set changes
    seeing = apply_primitive(job_market, make_add_edge(job_market, "T", "D2"))
    g4 = apply_primitive(seeing, make_remove_edge(seeing, "T", "D2"))
    assert games_equal(job_market, g4)
    # removing a dependency on a free decision demands a replacement table
    g5 = apply_primitive(job_market, make_add_edge(job_market, "D1", "U2"))
    with pytest.raises(InterventionError, match="replacement"):
        make_remove_edge(g5, "D1", "U2")


def test_add_edge_cycle_rejected(job_market):
    g2 = apply_primitive(job_market, make_add_edge(job_market, "T", "D2"))
    with pytest.raises(InterventionError, match="cycle"):
        apply_primitive(g2, make_add_edge(g2, "D2", "T"))


def test_add_existing_edge_rejected(job_market):
    with pytest.raises(InterventionError, match="already present"):
        make_add_edge(job_market, "T", "D1")
    with pytest.raises(InterventionError, match="not present"):
        make_remove_edge(job_market, "T", "D2")


def test_remove_edge_from_decision_source_needs_replacement(job_market):
    with pytest.raises(InterventionError, match="replacement"):
        make_remove_edge(job_market, "D1", "U1")


def test_edge_edits_keep_an_object_fixed_decision_pinned(stackelberg):
    pinned = apply_primitive(stackelberg, hard_fix(stackelberg, "D2", "R"))
    seeing = apply_primitive(pinned, make_add_edge(pinned, "D1", "D2"))
    assert seeing.object_fixed == {"D2"}
    assert seeing.free_decisions() == ("D1",)
    assert seeing.cpds["D2"].table == {("T",): (0.0, 1.0), ("B",): (0.0, 1.0)}
    # a source with a table marginalises out, and the pin survives both edits
    both = apply_primitive(
        pinned, FixObject("D1", (), TabularCPD.uniform("D1", ("T", "B")))
    )
    added = apply_primitive(both, make_add_edge(both, "D1", "D2"))
    assert games_equal(apply_primitive(added, make_remove_edge(added, "D1", "D2")), both)
    # a free source has no distribution to marginalise over
    with pytest.raises(
        InterventionError, match="cannot marginalise D1 out of D2: D1 is a free decision"
    ):
        make_remove_edge(seeing, "D1", "D2")


def test_edge_deletion_refusals_speak_of_the_edge():
    """Deleting an edge removes no variable, so its refusal names none."""
    free = random_rich_game(random.Random(2))
    assert "D2" in free.free_decisions() and "D4" in free.object_fixed
    with pytest.raises(InterventionError) as exc:
        make_remove_edge(free, "D2", "D4")
    assert str(exc.value) == (
        "cannot marginalise D2 out of D4: D2 is a free decision; "
        "child D4 needs an explicit replacement CPD"
    )
    # a committed source has a distribution, its rule, but here that rule
    # conditions on D1, which U1b does not see
    committed = random_rich_game(random.Random(1))
    assert committed.rule_fixes["D3"].parents == ("X1", "D1")
    with pytest.raises(InterventionError) as exc:
        make_remove_edge(committed, "D3", "U1b")
    assert str(exc.value) == (
        "cannot marginalise D3 out of U1b: its CPD conditions on ['D1']; "
        "child U1b needs an explicit replacement CPD"
    )


def test_committed_source_marginalises_under_its_rule():
    game = random_rich_game(random.Random(14))
    rule = game.rule_fixes["D3"]
    assert rule.parents == ("D1",) and game.parents_of("U1a") == ("D3", "D1", "X1")
    old = game.cpds["U1a"]
    cut = apply_primitive(game, make_remove_edge(game, "D3", "U1a"))
    assert cut.parents_of("U1a") == ("D1", "X1") and cut.rule_fixes == game.rule_fixes
    assert validate_game(cut) == []
    for d1, x1 in itertools.product(game.domain("D1"), game.domain("X1")):
        want = [
            sum(rule.row((d1,))[k] * old.row((y, d1, x1))[i]
                for k, y in enumerate(game.domain("D3")))
            for i in range(len(game.domain("U1a")))
        ]
        assert cut.cpds["U1a"].row((d1, x1)) == pytest.approx(want, abs=1e-15)
    # removing the committed decision marginalises it out of the children
    # that see D1, given a replacement for D4, which does not see it; the
    # inverse puts back the rule and every table
    assert set(game.children_of("D3")) == {"U1a", "U2", "D4"}
    assert game.parents_of("D4") == ("D3", "X1")
    d4 = TabularCPD.uniform("D4", game.domain("D4"), ("X1",), game.domain)
    gone, applied = apply_journaled(game, RemoveVariable("D3", {"D4": d4}))
    assert not gone.has_variable("D3") and "D3" not in gone.rule_fixes
    assert gone.cpds["U1a"] == cut.cpds["U1a"] and gone.cpds["D4"] == d4
    assert games_equal(apply_primitive(gone, invert(applied)), game)


def test_free_decision_child_takes_no_replacement_table(job_market):
    """A replacement table would pin the free decision D1, and the inverse
    could not unpin it; an object fix is the way to pin it."""
    table = TabularCPD.uniform("D1", job_market.domain("D1"))
    with pytest.raises(InterventionError, match="cannot give free decision D1"):
        apply_primitive(job_market, RemoveVariable("T", child_cpds={"D1": table}))


# -- remove-then-add decomposition ---------------------------------------------------


def test_fix_object_equals_remove_then_add(job_market):
    fix = hard_fix(job_market, "D1", "g")
    direct = apply_primitive(job_market, fix)
    staged = job_market
    for step in decompose_fix_object(job_market, fix):
        staged = apply_primitive(staged, step)
    assert games_equal(direct, staged)


def test_fix_object_decomposition_random_games():
    rng = random.Random(77)
    for _ in range(50):
        game = random_game(rng)
        candidates = [v.name for v in game.variables]
        target = rng.choice(candidates)
        if game.kind(target) == "decision":
            fix = hard_fix(game, target, rng.choice(game.domain(target)))
        else:
            dom = game.domain(target)
            from helpers import random_distribution

            fix = FixObject(
                target, (), TabularCPD(target, (), {(): random_distribution(rng, len(dom))})
            )
        direct = apply_primitive(game, fix)
        staged = game
        for step in decompose_fix_object(game, fix):
            staged = apply_primitive(staged, step)
        assert games_equal(direct, staged)
        for _ in range(2):
            profile = random_full_profile(rng, direct)
            j1 = induced_joint(direct, profile)
            j2 = induced_joint(staged, profile)
            keys = set(j1.table) | set(j2.table)
            assert all(
                abs(j1.table.get(k, 0.0) - j2.table.get(k, 0.0)) <= 1e-12
                for k in keys
            )


def test_add_variable_keeps_joint_until_reparameterised(job_market):
    noise = Variable("N", "chance", ("u", "v"))
    add = AddVariable(
        noise, (), ("U2",), cpd=TabularCPD("N", (), {(): (0.3, 0.7)})
    )
    g2 = apply_primitive(job_market, add)
    assert g2.parents_of("U2") == ("T", "D2", "N")
    profile = PolicyProfile(
        {
            "D1": job_market.delta_rule("D1", "g"),
            "D2": job_market.delta_rule("D2", "j"),
        }
    )
    before = induced_joint(job_market, profile)
    after = induced_joint(g2, profile)
    for inst, p in before.table.items():
        marg = sum(
            q
            for k, q in after.table.items()
            if k[: len(inst)] == inst
        )
        assert marg == pytest.approx(p, abs=1e-12)


def test_add_variable_acyclicity(job_market):
    bad = AddVariable(
        Variable("N", "chance", ("u", "v")),
        ("D2",),
        ("T",),
        cpd=TabularCPD("N", ("D2",), {("j",): (1, 0), ("nj",): (0, 1)}),
    )
    with pytest.raises(InterventionError, match="cycle"):
        apply_primitive(job_market, bad)


@pytest.mark.parametrize("variable, message", [
    (Variable("N", "decision", ("a", "b"), 7),
     "N: decision variable needs an agent in 1..2"),
    (Variable("N", "chance", ("a", "a")), "N: duplicate domain values"),
    (Variable("N", "chance", ("a", "b"), 1),
     "N: chance variable must not have an agent"),
], ids=["decision_agent", "duplicate_domain", "chance_agent"])
def test_add_variable_checks_the_variable(job_market, variable, message):
    """The applier rejects what validate_game would, with the same message."""
    cpd = None
    if variable.kind == "chance":
        row = (1.0,) + (0.0,) * (len(variable.domain) - 1)
        cpd = TabularCPD("N", (), {(): row})
    with pytest.raises(InterventionError) as err:
        apply_primitive(job_market, AddVariable(variable, (), (), cpd=cpd))
    assert str(err.value) == message
    inserted = replace(
        job_market,
        variables=job_market.variables + (variable,),
        cpds={**job_market.cpds, **({"N": cpd} if cpd else {})},
    )
    assert message in validate_game(inserted)


# -- side effects ----------------------------------------------------------------------


def test_side_effects_of_hard_decision_fix(job_market):
    report = side_effects(job_market, hard_fix(job_market, "D1", "g"))
    assert report.removed == frozenset({("PI_D1", "PI_D2")})
    assert report.added == frozenset()


def test_side_effects_of_mechanism_fix_empty(job_market):
    report = side_effects(job_market, theta_fix(job_market, "T", "h"))
    assert report.empty


def test_side_effects_of_identity_empty(job_market):
    identity = FixObject("T", (), job_market.cpds["T"])
    assert side_effects(job_market, identity).empty


def test_path_criterion_matches_rebuild(job_market, stackelberg):
    cases = [
        (job_market, hard_fix(job_market, "D1", "g")),
        (job_market, make_remove_edge(job_market, "D1", "D2")),
        (job_market, make_remove_edge(job_market, "T", "U2")),
        (stackelberg, hard_fix(stackelberg, "D1", "T")),
    ]
    rng = random.Random(13)
    for _ in range(30):
        game = random_game(rng)
        d = rng.choice(game.decisions())
        cases.append((game, hard_fix(game, d, rng.choice(game.domain(d)))))
    for game, fix in cases:
        predicted = predicted_edge_removals(game, fix)
        actual = side_effects(game, fix).removed
        assert predicted <= actual
    # on the bundled hard decision fix the criterion is exact
    assert predicted_edge_removals(
        job_market, hard_fix(job_market, "D1", "g")
    ) == set(side_effects(job_market, hard_fix(job_market, "D1", "g")).removed)


def test_predicted_removals_match_path_criterion(job_market, stackelberg):
    rng = random.Random(31)
    games = [job_market, stackelberg]
    games += [random_game(rng) for _ in range(40)]
    games += [random_multi_decision_game(rng) for _ in range(20)]
    games += [apply_primitive(g, hard_fix(g, g.decisions()[0], "a")) for g in games[2:22]]
    games += [dense_to_utility_game(n) for n in (3, 6, 9)]
    verdicts = set()
    for game in games:
        for fix in object_fixes(game, rng):
            predicted = predicted_edge_removals(game, fix)
            assert predicted == path_criterion_removals(game, fix)
            verdicts.add(bool(predicted))
    assert verdicts == {True, False}


def test_removed_edge_side_effect(job_market):
    report = side_effects(job_market, make_remove_edge(job_market, "D1", "D2"))
    assert ("PI_D1", "PI_D2") in report.removed


# -- minimum intervention sets ------------------------------------------------------------


def test_minimum_set_signalling(job_market):
    assert minimum_intervention_set(job_market, "PI_D1", "PI_D2") == ("D1",)


def test_minimum_set_simultaneous(stackelberg):
    result = minimum_intervention_set(stackelberg, "PI_D1", "PI_D2")
    assert result == ("D1",)
    paths = reachability_paths(stackelberg, "PI_D1", "PI_D2")
    sets = [
        frozenset(h for _, h in p.edges() if h in stackelberg.names())
        for p in paths
    ]
    assert is_minimum_hitting_set(result, sets)


def test_minimum_set_single_path():
    variables = (
        Variable("D1", "decision", ("a", "b"), 1),
        Variable("D2", "decision", ("a", "b"), 2),
        Variable("U2", "utility", (0, 1), 2),
    )
    parents = {"D1": (), "D2": ("D1",), "U2": ("D2",)}
    cpds = {
        "U2": TabularCPD("U2", ("D2",), {("a",): (1, 0), ("b",): (0, 1)})
    }
    game = __import__("causalgames").CausalGame(2, variables, parents, cpds)
    # single observation path PI_D1 -> D1; forced hit on its head
    assert minimum_intervention_set(game, "PI_D1", "PI_D2") == ("D1",)


def test_minimum_set_is_the_first_minimum_hitting_set():
    rng = random.Random(41)
    games = [random_game(rng) for _ in range(200)]
    games += [random_multi_decision_game(rng) for _ in range(200)]
    pairs = 0
    for game in games:
        objects = set(game.names())
        for d in game.decisions():
            target = rule_node(d)
            for mech in {mechanism_node(game, v) for v in game.names()} - {target}:
                paths = reachability_paths(game, mech, target)
                if not paths:
                    continue
                sets = [{h for _, h in p.edges() if h in objects} for p in paths]
                result = minimum_intervention_set(game, mech, target)
                assert is_minimum_hitting_set(result, sets)
                # ties go to the first name in sort order
                assert not any(
                    all(u in s for s in sets) for u in objects if u < result[0]
                )
                pairs += 1
    assert pairs > 1500


def test_minimum_set_requires_paths(job_market):
    with pytest.raises(InterventionError, match="already absent"):
        minimum_intervention_set(job_market, "THETA_U2", "PI_D1")


# -- incentive invariance ---------------------------------------------------------------


def test_hiding_education_is_not_invariant(job_market):
    assert not incentive_invariant(
        job_market, make_remove_edge(job_market, "D1", "D2")
    )


def test_mechanism_fix_is_invariant(job_market):
    assert incentive_invariant(job_market, theta_fix(job_market, "T", "h"))


def test_identity_is_invariant(job_market):
    identity = FixObject("T", (), job_market.cpds["T"])
    assert incentive_invariant(job_market, identity)


# -- decompose ---------------------------------------------------------------------------


def _reward_compound(prisoners):
    cc_free_u1 = TabularCPD(
        "U1",
        ("D1", "D2"),
        {
            ("C", "C"): (0.0, 0.0, 0.0, 1.0),
            ("C", "D"): (1.0, 0.0, 0.0, 0.0),
            ("D", "C"): (0.0, 0.0, 0.0, 1.0),
            ("D", "D"): (0.0, 1.0, 0.0, 0.0),
        },
    )
    cc_free_u2 = TabularCPD(
        "U2",
        ("D1", "D2"),
        {
            ("C", "C"): (0.0, 0.0, 0.0, 1.0),
            ("C", "D"): (0.0, 0.0, 0.0, 1.0),
            ("D", "C"): (1.0, 0.0, 0.0, 0.0),
            ("D", "D"): (0.0, 1.0, 0.0, 0.0),
        },
    )
    return CompoundIntervention(
        (FixMechanism("THETA_U1", cc_free_u1), FixMechanism("THETA_U2", cc_free_u2))
    )


def test_decompose_hidden_reward(prisoners):
    reward = _reward_compound(prisoners)
    dec = decompose(prisoners, [("reward", reward)], {1: ("reward",), 2: ()})
    assert len(dec.stages) == 2
    assert dec.stages[0].primitives == ()
    assert dec.stages[0].agents == frozenset({2})
    assert len(dec.stages[1].primitives) == 2
    assert dec.stages[1].agents == frozenset({1})


def test_decompose_reversed_reward(prisoners):
    reward = _reward_compound(prisoners)
    dec = decompose(
        prisoners,
        [("reward", reward)],
        {1: ("reward",), 2: ()},
        agent_order=[1, 2],
        merge_common=False,
    )
    assert len(dec.stages) == 2
    assert dec.stages[0].agents == frozenset({1})
    assert len(dec.stages[0].primitives) == 2
    assert dec.stages[1].agents == frozenset({2})
    # second stage holds the inverses; final state is the original game
    assert len(dec.stages[1].primitives) == 2
    assert games_equal(dec.final_game, prisoners)


def test_decompose_applies_each_label_once(prisoners, job_market, monkeypatch):
    """One application per common label, per label of each group's extras
    and per unseen label: undo steps are listed, never applied."""
    applied = []
    original = CompoundIntervention.apply

    def counted(self, game):
        applied.append(self)
        return original(self, game)

    monkeypatch.setattr(CompoundIntervention, "apply", counted)
    reward = [("reward", _reward_compound(prisoners))]
    decompose(prisoners, reward, {1: ("reward",), 2: ()})
    assert applied == [reward[0][1]]
    applied.clear()
    reversed_ = decompose(
        prisoners, reward, {1: ("reward",), 2: ()},
        agent_order=[1, 2], merge_common=False,
    )
    assert applied == [reward[0][1]]
    assert len(reversed_.stages[1].primitives) == 2  # the undo, listed

    pool = [
        ("env", theta_fix(job_market, "T", "h")),
        ("force", hard_fix(job_market, "D1", "g")),
        ("hide", make_remove_edge(job_market, "D1", "D2")),
    ]
    visibility = {1: ("env", "force"), 2: ("env",)}
    for merge_common, order in (
        (True, ["env", "force", "hide"]),  # common, agent 1's extra, unseen
        (False, ["env", "force", "env", "hide"]),  # agent 1, agent 2, unseen
    ):
        applied.clear()
        decompose(job_market, pool, visibility, merge_common=merge_common)
        assert applied == [as_compound(dict(pool)[lab]) for lab in order]


def test_decompose_shared_visibility_single_stage(job_market):
    env = theta_fix(job_market, "T", "h")
    dec = decompose(
        job_market, [("env", env)], {1: ("env",), 2: ("env",)}
    )
    assert len(dec.stages) == 1
    assert dec.stages[0].agents == frozenset({1, 2})
    assert len(dec.stages[0].primitives) == 1


def test_decompose_unknown_label_rejected(job_market):
    env = theta_fix(job_market, "T", "h")
    with pytest.raises(InterventionError, match="unknown"):
        decompose(job_market, [("env", env)], {1: ("ghost",)})


def test_decompose_stray_visibility_key_rejected(job_market):
    env = [("env", theta_fix(job_market, "T", "h"))]
    for key in (0, 3, "1", None):
        with pytest.raises(InterventionError) as exc:
            decompose(job_market, env, {1: ("env",), key: ()})
        assert str(exc.value) == (
            f"visibility keys must be agent indices in 1..2, got {key!r}"
        )


def test_decompose_refuses_a_bare_string_of_labels(job_market):
    """A visibility value is a list of labels: a string is not split into
    one-letter labels, whether or not those name interventions."""
    pool = [("a", theta_fix(job_market, "T", "h")), ("b", theta_fix(job_market, "T", "l"))]
    for seen in ("a", "ab", "abc"):
        with pytest.raises(InterventionError) as exc:
            decompose(job_market, pool, {1: seen})
        assert str(exc.value) == (
            f"visibility of agent 1 must be a list of labels, got {seen!r}"
        )


@pytest.mark.parametrize(
    "call, kind",
    [
        (lambda g: apply_all(g, ["x"]), "str"),
        (lambda g: incentive_invariant(g, "abc"), "str"),
        (lambda g: evaluate_query(QueryJob(game=g, interventions=(("l", "x"),))), "str"),
        (lambda g: apply_all(g, [5]), "int"),
        (lambda g: apply_all(g, [None]), "NoneType"),
        (lambda g: side_effects(g, 5), "int"),
    ],
    ids=["apply_all-str", "invariant-str", "query-str", "apply_all-int",
         "apply_all-None", "side_effects-int"],
)
def test_what_is_no_intervention_is_refused_by_its_type(job_market, call, kind):
    """A string is not iterated into one-letter interventions and a value
    that is neither an intervention nor a list of them is not iterated at
    all: each is one ``InterventionError`` naming the type, not the value."""
    with pytest.raises(InterventionError) as exc:
        call(job_market)
    assert str(exc.value) == (
        f"an intervention must be a primitive, a compound or a list of them, got type {kind}"
    )


def test_decompose_matches_reference(job_market):
    """Every visibility of a three-label pool on both agents, in both agent
    orders and both modes, stages as the two-builder reference does."""
    pool = [
        ("env", theta_fix(job_market, "T", "h")),
        ("force", hard_fix(job_market, "D1", "g")),
        ("hide", make_remove_edge(job_market, "D1", "D2")),
    ]
    subsets = [
        tuple(lab for (lab, _), kept in zip(pool, keep) if kept)
        for keep in itertools.product((False, True), repeat=len(pool))
    ]
    for seen1, seen2 in itertools.product(subsets, repeat=2):
        visibility = {1: seen1, 2: seen2}
        for order, merge_common in itertools.product(([1, 2], [2, 1]), (True, False)):
            args = (job_market, pool, visibility, order, merge_common)
            assert decompose(*args) == reference_decompose(*args)


def test_decompose_satisfies_agent_views(job_market):
    pool = [
        ("env", theta_fix(job_market, "T", "h")),
        ("force", hard_fix(job_market, "D1", "g")),
        ("hide", make_remove_edge(job_market, "D1", "D2")),
    ]
    rng = random.Random(4)
    labels = [lab for lab, _ in pool]
    for _ in range(40):
        visibility = {
            a: tuple(lab for lab in labels if rng.random() < 0.5)
            for a in (1, 2)
        }
        for merge_common in (True, False):
            dec = decompose(job_market, pool, visibility, merge_common=merge_common)
            for agent, j in dec.agent_stage.items():
                staged = job_market
                for stage in dec.stages[: j + 1]:
                    for prim in stage.primitives:
                        staged = apply_primitive(staged, prim)
                    assert games_equal(stage.game, staged)
                expected = agent_view(
                    job_market, pool, visibility, agent, merge_common
                )
                assert games_equal(staged, expected)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans(), st.booleans())
def test_every_agent_stage_indexes_a_stage(rng, multi, merge_common):
    """Every agent gets a stage, and the stage it gets is one of the
    decomposition's, so ``classify_visibility`` always reads a prefix of
    the stages: on seeded games, with object fixes of up to three distinct
    variables and random visibility, with common labels merged or not."""
    game = random_multi_decision_game(rng) if multi else random_game(rng)
    by_target = {}
    for fix in object_fixes(game, rng):
        by_target.setdefault(fix.target, []).append(fix)
    targets = rng.sample(sorted(by_target), min(3, len(by_target)))
    pool = [(f"i{k}", rng.choice(by_target[t])) for k, t in enumerate(targets)]
    agents = range(1, game.n_agents + 1)
    visibility = {a: [lab for lab, _ in pool if rng.random() < 0.5] for a in agents}
    dec = decompose(game, pool, visibility, merge_common=merge_common)
    assert set(dec.agent_stage) == set(agents)
    assert all(0 <= j < len(dec.stages) for j in dec.agent_stage.values())


# -- the algebra as a state machine ----------------------------------------------------


def _random_cpd(rng, game, name, parents):
    """A random table for ``name`` over ``parents`` (one-hot a third of the time)."""
    n = len(game.domain(name))

    def row(_):
        if rng.random() < 1 / 3:
            hot = rng.randrange(n)
            return tuple(float(k == hot) for k in range(n))
        return random_distribution(rng, n)

    return tabulate(name, parents, game.domain, row)


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return tuple(items)


class InterventionAlgebra(RuleBasedStateMachine):
    """Random primitive steps on random games.

    Each step is applied with its inverse recorded; the inverse must restore
    the game exactly, so must the inverse of the last k steps taken as one
    compound, every game reached must validate, an object fix must
    equal its remove-then-add rewrite, and a decomposition of a random
    labelled pool must reproduce every agent's view stage by stage.
    Steps the algebra rejects (cycles, committed information sets, missing
    replacement tables) leave the game as it was.  A derived game shares
    what it did not change with the game it came from, so every game kept
    must still equal its deep copy taken when it was reached, and the index
    of the current one must equal a freshly built game's.
    """

    @initialize(seed=st.integers(0, 2**32 - 1), rich=st.booleans())
    def start(self, seed, rich):
        self.rng = random.Random(seed)
        self.game = (random_rich_game if rich else random_game)(self.rng)
        self.added = 0
        self.snapshot = copy.deepcopy(self.game)
        self.history = []  # (game before, applied primitive, its snapshot) per step

    def _apply(self, prim):
        before = self.game
        try:
            after, applied = apply_journaled(before, prim)
        except InterventionError:
            return
        assert games_equal(apply_primitive(after, invert(applied)), before)
        if isinstance(prim, FixObject):
            try:
                staged = before
                for step in decompose_fix_object(before, prim):
                    staged = apply_primitive(staged, step)
            except InterventionError as exc:
                # remove-then-add cannot detach a committed decision child
                assert "committed decision" in str(exc)
            else:
                assert games_equal(staged, after)
        self.history.append((before, applied, self.snapshot))
        self.game = after
        self.snapshot = copy.deepcopy(after)

    @rule(data=st.data())
    def invert_last_steps(self, data):
        """Undo the last k steps at once: an ordered compound inverts in reverse."""
        if not self.history:
            return
        k = data.draw(st.integers(1, len(self.history)))
        earlier, _, snapshot = self.history[-k]
        steps = CompoundIntervention(tuple(ap for _, ap, _ in self.history[-k:]))
        restored = apply_all(self.game, [steps.invert()])
        assert games_equal(restored, earlier)
        self.game, self.snapshot = earlier, snapshot
        del self.history[-k:]

    @invariant()
    def stays_valid(self):
        assert validate_game(self.game) == []

    @invariant()
    def kept_games_are_unchanged(self):
        """No step wrote into a mapping an earlier game shares."""
        for before, _, snapshot in self.history:
            assert before == snapshot
        assert self.game == self.snapshot

    @invariant()
    def index_matches_a_fresh_build(self):
        g = self.game
        fresh = CausalGame(g.n_agents, g.variables, g.parents, g.cpds, g.rule_fixes)
        assert g._by_name == fresh._by_name
        assert g._children == fresh._children
        assert g.decisions() == fresh.decisions()
        assert g.names() == fresh.names()

    @invariant()
    def each_decision_is_free_committed_or_pinned(self):
        game = self.game
        free = set(game.free_decisions())
        for d in game.decisions():
            states = (d in free, d in game.rule_fixes, d in game.object_fixed)
            assert sum(states) == 1, (d, states)

    @rule(data=st.data())
    def fix_object(self, data):
        rng, game = self.rng, self.game
        target = data.draw(st.sampled_from(game.names()))
        pool = [n for n in game.names() if n != target and game.kind(n) != "utility"]
        parents = [q for q in game.parents_of(target) if rng.random() < 0.7]
        if pool and rng.random() < 0.3:
            extra = rng.choice(pool)
            if extra not in parents:
                parents.append(extra)
        parents = _shuffled(rng, parents)
        mode = "pin"
        if game.kind(target) == "decision":
            mode = data.draw(st.sampled_from(["pin", "rewire", "recommit"]))
        table = _random_cpd(rng, game, target, parents)
        if mode == "pin":
            self._apply(FixObject(target, parents, table))
        elif mode == "rewire":
            self._apply(FixObject(target, parents))
        else:
            self._apply(FixObject(target, parents, rule_fix=table))

    @rule(data=st.data())
    def fix_mechanism(self, data):
        rng, game = self.rng, self.game
        target = data.draw(st.sampled_from(game.names()))
        if game.kind(target) != "decision":
            cpd = _random_cpd(rng, game, target, game.parents_of(target))
            self._apply(FixMechanism(f"THETA_{target}", cpd))
        elif target in game.rule_fixes and data.draw(st.booleans()):
            self._apply(FixMechanism(f"PI_{target}", None))
        else:
            cpd = _random_cpd(rng, game, target, game.parents_of(target))
            self._apply(FixMechanism(f"PI_{target}", cpd))

    @rule(data=st.data())
    def add_variable(self, data):
        rng, game = self.rng, self.game
        self.added += 1
        name = f"N{self.added}"
        kind = data.draw(st.sampled_from(["chance", "decision"]))
        state = data.draw(st.sampled_from(["free", "committed", "pinned"]))
        agent = rng.randint(1, game.n_agents) if kind == "decision" else None
        variable = Variable(name, kind, ("p", "q", "r")[: rng.randint(2, 3)], agent)
        order, _ = _dependency_order(game.names(), game.parents)
        cut = rng.randint(0, len(order))
        upstream = [n for n in order[:cut] if game.kind(n) != "utility"]
        parents = tuple(rng.sample(upstream, min(len(upstream), rng.randint(0, 2))))
        downstream = order[cut:]
        children = tuple(rng.sample(downstream, min(len(downstream), rng.randint(0, 3))))
        shape = replace(
            game,
            variables=game.variables + (variable,),
            parents={**game.parents, name: parents},
        )
        cpd = rule_fix = None
        if kind == "chance" or state == "pinned":
            cpd = _random_cpd(rng, shape, name, parents)
        elif state == "committed":
            rule_fix = _random_cpd(rng, shape, name, parents)
        child_cpds, child_parents = {}, {}
        for child in children:
            order = _shuffled(rng, game.parents_of(child) + (name,))
            if child in game.cpds:
                if rng.random() < 0.5:
                    ext = replace(shape, parents={**shape.parents, child: order})
                    child_cpds[child] = _random_cpd(rng, ext, child, order)
            elif rng.random() < 0.5:
                child_parents[child] = order
        self._apply(AddVariable(
            variable, parents, children, cpd=cpd, child_cpds=child_cpds,
            child_parents=child_parents, rule_fix=rule_fix,
            index=rng.randint(0, len(game.variables)),
        ))

    @rule(data=st.data())
    def remove_variable(self, data):
        rng, game = self.rng, self.game
        if len(game.variables) <= 3:
            return
        # decisions half the time: their rule state must survive re-adding
        pool = game.decisions() or game.names()
        if data.draw(st.booleans()):
            pool = game.names()
        self._remove(data.draw(st.sampled_from(pool)))

    @rule(data=st.data())
    def remove_observed_decision(self, data):
        """Commit, pin or keep a decision another decision observes; remove it."""
        if len(self.game.decisions()) < 2:
            return
        d, e = data.draw(st.permutations(self.game.decisions()))[:2]
        if d not in self.game.parents_of(e):
            self._apply(make_add_edge(self.game, d, e))
        mode = data.draw(st.sampled_from(["commit", "pin", "keep"]))
        table = _random_cpd(self.rng, self.game, d, self.game.parents_of(d))
        if mode == "commit":
            self._apply(FixMechanism(f"PI_{d}", table))
        elif mode == "pin":
            self._apply(FixObject(d, self.game.parents_of(d), table))
        self._remove(d)

    def _remove(self, target):
        rng, game = self.rng, self.game
        child_cpds, child_parents = {}, {}
        for child in game.children_of(target):
            remaining = tuple(q for q in game.parents_of(child) if q != target)
            if rng.random() < 0.5:
                remaining = _shuffled(rng, remaining)
                child_parents[child] = remaining
            if child in game.cpds and (target not in game.cpds or rng.random() < 0.3):
                child_cpds[child] = _random_cpd(rng, game, child, remaining)
        self._apply(RemoveVariable(target, child_cpds, child_parents))

    @rule(data=st.data())
    def edge(self, data):
        game = self.game
        src = data.draw(st.sampled_from(game.names()))
        dst = data.draw(st.sampled_from(game.names()))
        try:
            if src in game.parents_of(dst):
                prim = make_remove_edge(game, src, dst)
            else:
                prim = make_add_edge(game, src, dst)
        except InterventionError:
            return
        self._apply(prim)

    @rule(data=st.data())
    def decompose_pool(self, data):
        rng, game = self.rng, self.game
        pool = []
        for target in rng.sample(game.names(), min(3, len(game.names()))):
            parents = tuple(q for q in game.parents_of(target) if rng.random() < 0.7)
            if game.kind(target) != "decision":
                if parents == game.parents_of(target):
                    cpd = _random_cpd(rng, game, target, parents)
                    pool.append(FixMechanism(f"THETA_{target}", cpd))
                else:
                    pool.append(FixObject(target, parents, _random_cpd(rng, game, target, parents)))
            elif target in game.object_fixed or rng.random() < 0.5:
                pool.append(FixObject(target, parents, _random_cpd(rng, game, target, parents)))
            elif target in game.rule_fixes:
                pool.append(FixMechanism(f"PI_{target}", None))
            else:
                cpd = _random_cpd(rng, game, target, game.parents_of(target))
                pool.append(FixMechanism(f"PI_{target}", cpd))
        labelled = [(f"i{k}", prim) for k, prim in enumerate(pool)]
        labels = [lab for lab, _ in labelled]
        agents = list(range(1, game.n_agents + 1))
        # one label, when drawn, is hidden from everyone: an unseen stage
        hidden = data.draw(st.sampled_from([None, *labels]))
        visibility = {
            a: tuple(lab for lab in labels if rng.random() < 0.5 and lab != hidden)
            for a in agents
        }
        merge_common = data.draw(st.booleans())
        agent_order = _shuffled(rng, agents)
        dec = decompose(game, labelled, visibility, agent_order, merge_common)
        assert dec == reference_decompose(
            game, labelled, visibility, agent_order, merge_common
        )
        staged = game
        for stage in dec.stages:
            for prim in stage.primitives:
                staged = apply_primitive(staged, prim)
            assert games_equal(stage.game, staged)
        assert games_equal(dec.final_game, staged)
        for agent, j in dec.agent_stage.items():
            expected = agent_view(game, labelled, visibility, agent, merge_common)
            assert games_equal(dec.stages[j].game, expected)


def test_intervention_algebra_state_machine():
    run_state_machine_as_test(
        InterventionAlgebra,
        settings=settings(
            max_examples=100,
            stateful_step_count=15,
            derandomize=True,
            deadline=None,
            suppress_health_check=list(HealthCheck),
        ),
    )
