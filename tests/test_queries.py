import argparse
import copy
import random
from dataclasses import replace as dc_replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalgames import (
    AddVariable,
    CompoundIntervention,
    FixMechanism,
    FixObject,
    InterventionError,
    PolicyProfile,
    QueryError,
    QueryJob,
    RemoveVariable,
    SolverError,
    TabularCPD,
    Variable,
    apply_all,
    apply_primitive,
    check_spec_env,
    classify_visibility,
    evaluate_query,
    expected_utility,
    induced_joint,
    parse_query,
    pure_nash,
)
from causalgames import equilibrium, interventions, kernel, model, queries
from causalgames.cli import _job_from_scenario, main, resolve_scenario
from causalgames.equilibrium import RationalOutcomeSet
from causalgames.kernel import event_factor, expectations, utility_factors
from causalgames.model import DECISION
from causalgames.queries import Chain, Const, Prefix, Prob, Utility
from helpers import (
    brute_force_joint,
    expected_utility_from_joint,
    random_full_profile,
    random_game,
    random_multi_decision_game,
    random_rich_game,
)


# -- parsing ---------------------------------------------------------------------


def test_parse_forall_comparison():
    q = parse_query("forall ne: E[1] >= 2")
    assert q.mode == "forall"
    assert isinstance(q.body, Chain)
    assert q.body.ops == (">=",)
    assert q.body.operands == (Utility(1), Const(2.0))


def test_parse_exists_probability():
    q = parse_query("exists ne: P(D2=j) = 1")
    assert q.mode == "exists"
    assert q.body.operands[0] == Prob((("D2", "j"),))


def test_parse_sampled_total():
    q = parse_query("sampled: E[total] > -5")
    assert q.mode == "sampled"
    assert q.body.operands == (Utility("total"), Const(-5.0))


def test_minus_after_an_operand_subtracts():
    """A ``-`` right after a number, a name, ``]`` or ``)`` is subtraction;
    elsewhere it still starts a negative number or a domain value."""
    diff = Chain(("-",), (Utility(1), Const(1.0)))
    assert parse_query("forall ne: E[1]-1 >= 0").body == Chain((">=",), (diff, Const(0.0)))
    assert parse_query("sampled: 2-1").body == Chain(("-",), (Const(2.0), Const(1.0)))
    assert parse_query("sampled: P(D1=C)-1").body.ops == ("-",)
    assert parse_query("sampled: E[1]*-2").body == Chain(("*",), (Utility(1), Const(-2.0)))
    assert parse_query("exists ne: P(D1=-1) = 1").body.operands[0] == Prob((("D1", "-1"),))


def test_parse_connectives_and_arithmetic():
    q = parse_query("forall ne: not P(D1=g) > 1 and E[1] + 2 * E[2] <= 10")
    assert q.mode == "forall"
    # chains of one level are flat, and a run of prefixes is counted
    body = parse_query("forall ne: not not - - E[1] - 2 + 3 * 4 * 5 < 0 and E[2] = 1").body
    assert body == Chain(("and",), (
        Prefix("not", 2, Chain(("<",), (
            Chain(("-", "+"), (
                Prefix("-", 2, Utility(1)),
                Const(2.0),
                Chain(("*", "*"), (Const(3.0), Const(4.0), Const(5.0))),
            )),
            Const(0.0),
        ))),
        Chain(("=",), (Utility(2), Const(1.0))),
    ))


def test_parse_errors_carry_position():
    with pytest.raises(QueryError, match="column"):
        parse_query("forall ne: E[1] >=")
    with pytest.raises(QueryError, match="forall"):
        parse_query("E[1] >= 2")
    with pytest.raises(QueryError, match="comparison"):
        parse_query("forall ne: E[1] and E[2] >= 0")
    with pytest.raises(QueryError, match="expected an agent index or 'total', got '1e999'"):
        parse_query("sampled: E[1e999]")


_ATOMS = {"E[1]": 1.5, "E[2]": -2.0, "E[total]": -0.5, "P(D1=C)": 0.25, "P(D1=D)": 0.75}


@st.composite
def _formulas(draw):
    """A formula in the query grammar, or a bare expression, as text: runs
    of ``not`` and of unary ``-``, and every operator."""
    def joined(part, ops, most, sep=" "):
        text = part()
        for _ in range(draw(st.integers(0, most - 1))):
            text += sep + draw(st.sampled_from(ops)) + sep + part()
        return text

    def factor():
        base = draw(st.sampled_from([*_ATOMS, "2", "0.5", "-3", "1e1"]))
        return "- " * draw(st.integers(0, 3)) + base

    def expr():
        sep = draw(st.sampled_from([" ", ""]))
        return joined(lambda: joined(factor, ["*"], 3, sep), ["+", "-"], 4, sep)

    def negated():
        cmp = draw(st.sampled_from(["<", "<=", "=", ">=", ">"]))
        return "not " * draw(st.integers(0, 3)) + f"{expr()} {cmp} {expr()}"

    if draw(st.booleans()):
        return expr()
    return joined(lambda: joined(negated, ["and"], 3), ["or"], 3)


@settings(max_examples=300, deadline=None)
@given(_formulas())
def test_formulas_evaluate_as_python_does(text):
    """At epsilon 0 a formula's value is Python's for the same text, whose
    precedence (or < and < not < comparison < + - < * < unary -) is the
    grammar's."""
    want = eval(text.replace(" = ", " == "), {
        "E": {1: _ATOMS["E[1]"], 2: _ATOMS["E[2]"], "total": _ATOMS["E[total]"]},
        "total": "total", "C": "C", "D": "D",
        "P": lambda D1: _ATOMS[f"P(D1={D1})"],
    })
    body = parse_query(f"sampled: {text}").body
    got = queries._evaluate(body, lambda n: _ATOMS[_atom_text(n)], 0.0)
    assert got == want and isinstance(got, bool) == isinstance(want, bool)


def _atom_text(node):
    if isinstance(node, Prob):
        return "P(" + ",".join(f"{v}={t}" for v, t in node.event) + ")"
    return f"E[{node.agent}]"


def test_query_rejects_unknown_entities(prisoners):
    job = QueryJob(game=prisoners, query="forall ne: P(D9=j) = 1")
    with pytest.raises(QueryError, match="unknown variable"):
        evaluate_query(job)
    job = QueryJob(game=prisoners, query="forall ne: E[7] >= 0")
    with pytest.raises(QueryError, match="unknown agent"):
        evaluate_query(job)


# -- reward scenarios ---------------------------------------------------------------


def reward_interventions(prisoners):
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
    return [
        ("reward1", FixMechanism("THETA_U1", u1)),
        ("reward2", FixMechanism("THETA_U2", u2)),
    ]


def test_hidden_reward_mixture_value(prisoners):
    job = QueryJob(
        game=prisoners,
        interventions=tuple(reward_interventions(prisoners)),
        visibility={1: ("reward1", "reward2"), 2: ()},
        query="sampled: E[total]",
        mix_ties=True,
    )
    result = evaluate_query(job)
    assert result.verdict == pytest.approx(-4.5, abs=1e-9)


def test_reversed_reward_mixture_value(prisoners):
    job = QueryJob(
        game=prisoners,
        interventions=tuple(reward_interventions(prisoners)),
        visibility={1: ("reward1", "reward2"), 2: ()},
        query="sampled: E[total]",
        mix_ties=True,
        merge_common=False,
        agent_order=(1, 2),
    )
    result = evaluate_query(job)
    assert result.verdict == pytest.approx(-4.5, abs=1e-9)


def test_hidden_reward_exhaustive_leaves(prisoners):
    job = QueryJob(
        game=prisoners,
        interventions=tuple(reward_interventions(prisoners)),
        visibility={1: ("reward1", "reward2"), 2: ()},
        query="forall ne: E[total]",
    )
    result = evaluate_query(job)
    assert sorted(result.leaf_values) == pytest.approx([-5.0, -4.0])
    assert result.verdict is None  # leaves disagree, no single value


# -- commitment scenarios --------------------------------------------------------------


def commit_job(stackelberg, visibility, query="sampled: E[1]"):
    rule = stackelberg.delta_rule("D1", "B")
    return QueryJob(
        game=stackelberg,
        interventions=(("commit", FixMechanism("PI_D1", rule)),),
        visibility=visibility,
        query=query,
    )


def test_revealed_commitment_pays_three(stackelberg):
    result = evaluate_query(commit_job(stackelberg, {2: ("commit",)}))
    assert result.verdict == pytest.approx(3.0, abs=1e-9)
    # the follower switched to the right action
    leaf = result.leaves[0]
    assert leaf.rules["D2"].row(()) == (0.0, 1.0)


def test_private_commitment_pays_two(stackelberg):
    result = evaluate_query(commit_job(stackelberg, {}))
    assert result.verdict == pytest.approx(2.0, abs=1e-9)
    leaf = result.leaves[0]
    assert leaf.rules["D2"].row(()) == (1.0, 0.0)
    assert leaf.rules["D1"].row(()) == (1.0, 0.0)


def test_exhaustive_matches_sampled_with_unique_outcomes(stackelberg):
    for visibility in ({}, {2: ("commit",)}):
        sampled = evaluate_query(commit_job(stackelberg, visibility))
        exhaustive = evaluate_query(
            commit_job(stackelberg, visibility, query="forall ne: E[1]")
        )
        assert exhaustive.verdict == pytest.approx(sampled.verdict)
        assert len(exhaustive.leaves) == 1


def test_unseen_commitment_and_unfix_change_nothing(stackelberg):
    rule = stackelberg.delta_rule("D1", "B")
    job = QueryJob(
        game=stackelberg,
        interventions=(
            ("commit", FixMechanism("PI_D1", rule)),
            ("uncommit", FixMechanism("PI_D1", None)),
        ),
        visibility={},
        query="forall ne: E[1]",
    )
    result = evaluate_query(job)
    plain = evaluate_query(QueryJob(game=stackelberg, query="forall ne: E[1]"))
    assert result.verdict == pytest.approx(plain.verdict)
    assert result.leaf_values == pytest.approx(plain.leaf_values)
    assert result.trace[-1]["suppressed"] == ["PI_D1", "PI_D1"]
    # a job may hold its query parsed already
    parsed = QueryJob(game=stackelberg, query=parse_query("forall ne: E[1]"))
    assert evaluate_query(parsed) == plain


def test_commitment_before_the_query_is_the_final_rule(stackelberg):
    """A decision committed in the game itself, which no stage resolves,
    takes its imposed rule at every leaf; lifted by a label no agent sees,
    nothing resolves it."""
    rule = stackelberg.delta_rule("D1", "B")
    committed = apply_primitive(stackelberg, FixMechanism("PI_D1", rule))
    result = evaluate_query(QueryJob(game=committed, query="forall ne: E[1]"))
    assert result.verdict == pytest.approx(3.0, abs=1e-9)
    assert [leaf.rules["D1"] for leaf in result.leaves] == [rule]
    job = QueryJob(
        game=committed,
        interventions=(("uncommit", FixMechanism("PI_D1", None)),),
        query="forall ne: E[1]",
    )
    with pytest.raises(SolverError, match=r"^decision D1 was never resolved by any stage$"):
        evaluate_query(job)


def two_stage_job(effortville):
    """Agent 1 sees one intervention, agent 2 a later one."""
    u2 = TabularCPD("U2", ("T", "D2"), {("h", "j"): (1.0, 0.0), ("h", "nj"): (0.0, 1.0)})
    return QueryJob(
        game=effortville,
        interventions=(
            ("theta_t", FixMechanism("THETA_T", effortville.cpds["T"])),
            ("theta_u2", FixMechanism("THETA_U2", u2)),
        ),
        visibility={1: ("theta_t",), 2: ("theta_u2",)},
        query="forall ne: E[1]",
    )


def test_stage_game_solved_once_per_stage(effortville, monkeypatch):
    calls = []
    original = queries._stage_outcomes

    def counted(game, *args):
        calls.append(game)
        return original(game, *args)

    monkeypatch.setattr(queries, "_stage_outcomes", counted)
    job = two_stage_job(effortville)
    result = evaluate_query(job)
    assert len(calls) == 2
    first = len(pure_nash(apply_all(effortville, [job.interventions[0][1]])).outcomes)
    assert first == 3
    # one trace entry per visit of a stage: the agentless stage, agent 1's
    # stage, and agent 2's stage once per branch of agent 1's outcomes
    assert [entry["stage"] for entry in result.trace] == [0, 1] + [2] * first
    assert len(result.leaves) == first * result.trace[-1]["outcomes"]


def test_trace_entries_share_no_lists(effortville):
    """Each visit of a stage records its own lists: changing one trace entry
    leaves the next visit's entry alone."""
    trace = evaluate_query(two_stage_job(effortville)).trace
    assert [entry["stage"] for entry in trace[-2:]] == [2, 2]
    last = copy.deepcopy(trace[-1])
    for value in trace[-2].values():
        if isinstance(value, list):
            value.append("changed")
    assert trace[-1] == last


def test_cli_query_decomposes_once(monkeypatch, capsys):
    calls = []
    original = queries.decompose

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(queries, "decompose", counted)
    assert main(["query", "reward_hidden"]) == 0
    assert len(calls) == 1
    assert "verdict:" in capsys.readouterr().out


def test_results_replay_deterministically(stackelberg, prisoners):
    job = commit_job(stackelberg, {2: ("commit",)})
    a = evaluate_query(job)
    b = evaluate_query(job)
    assert a.verdict == b.verdict
    assert a.trace == b.trace
    job2 = QueryJob(
        game=prisoners,
        interventions=tuple(reward_interventions(prisoners)),
        visibility={1: ("reward1", "reward2"), 2: ()},
        query="sampled: E[total]",
        seed=42,
    )
    assert evaluate_query(job2).verdict == evaluate_query(job2).verdict


# -- classification -----------------------------------------------------------------------


def test_visibility_tags_pre_policy(job_market):
    env = FixMechanism("THETA_T", job_market.delta_cpd("T", "h"))
    job = QueryJob(
        game=job_market,
        interventions=(("env", env),),
        visibility={1: ("env",), 2: ("env",)},
        query="forall ne: P(D2=j) = 1",
    )
    assert classify_visibility(job) == {1: "pre_policy", 2: "pre_policy"}
    assert evaluate_query(job).verdict is True


def test_visibility_tags_commitment(stackelberg):
    assert classify_visibility(commit_job(stackelberg, {})) == {
        1: "post_policy",
        2: "post_policy",
    }
    assert classify_visibility(commit_job(stackelberg, {2: ("commit",)})) == {
        1: "post_policy",
        2: "pre_policy",
    }


def test_visibility_tags_interleaved(prisoners):
    job = QueryJob(
        game=prisoners,
        interventions=tuple(reward_interventions(prisoners)),
        visibility={1: ("reward1", "reward2"), 2: ()},
        merge_common=False,
        agent_order=(1, 2),
        query="sampled: E[total]",
    )
    assert classify_visibility(job) == {1: "pre_policy", 2: "interleaved"}


def test_visibility_key_naming_no_agent_is_refused():
    scenario = resolve_scenario("reward_hidden")
    job = QueryJob(
        scenario.game, scenario.interventions, {5: ("ghost",)}, scenario.query
    )
    with pytest.raises(InterventionError) as exc:
        evaluate_query(job)
    assert str(exc.value) == "visibility keys must be agent indices in 1..2, got 5"


# -- staged evaluation equivalences ----------------------------------------------------------


def test_fully_pre_policy_equals_intervene_then_solve(job_market):
    env = FixMechanism("THETA_T", job_market.delta_cpd("T", "h"))
    job = QueryJob(
        game=job_market,
        interventions=(("env", env),),
        visibility={1: ("env",), 2: ("env",)},
        query="forall ne: E[1]",
    )
    staged = sorted(evaluate_query(job).leaf_values)
    applied = apply_all(job_market, [env])
    direct = sorted(
        expected_utility(applied, p, 1) for p in pure_nash(applied).outcomes
    )
    assert staged == pytest.approx(direct)


def test_fully_post_policy_equals_solve_then_intervene(job_market):
    env = FixMechanism("THETA_T", job_market.delta_cpd("T", "h"))
    job = QueryJob(
        game=job_market,
        interventions=(("env", env),),
        visibility={},
        query="forall ne: E[1]",
    )
    staged = sorted(evaluate_query(job).leaf_values)
    applied = apply_all(job_market, [env])
    direct = sorted(
        expected_utility(applied, p, 1) for p in pure_nash(job_market).outcomes
    )
    assert staged == pytest.approx(direct)


def test_stage_without_pure_outcome_errors():
    from causalgames import SolverError
    from test_equilibrium import matching_pennies

    game = matching_pennies()
    job = QueryJob(game=game, query="sampled: E[1]")
    with pytest.raises(SolverError, match="no rational outcome"):
        evaluate_query(job)


def test_query_on_removed_variable_rejected(job_market):
    job = QueryJob(
        game=job_market,
        interventions=(
            ("drop", RemoveVariable("U2")),
        ),
        visibility={1: ("drop",), 2: ("drop",)},
        query="forall ne: P(U2=0) >= 0",
    )
    with pytest.raises(QueryError, match="unknown variable"):
        evaluate_query(job)


def _noise(decision):
    """A fair coin ``N`` added as a new parent of ``decision``."""
    return AddVariable(
        Variable("N", "chance", ("a", "b")), (), (decision,),
        cpd=TabularCPD.uniform("N", ("a", "b")),
    )


@pytest.mark.parametrize("query", ["forall ne: E[1] >= -100", "forall ne: 1 >= 0"])
@pytest.mark.parametrize(
    "label, intervention, visibility, merge_common",
    [
        # agent 1 fixes D1 over (T,), then agent 2's stage adds N to D1's parents
        ("noise", _noise("D1"), {2: ("noise",)}, True),
        # agent 1 fixes D1 over (T,), then agent 2's stage removes T
        ("drop", RemoveVariable("T"), {2: ("drop",)}, True),
        # agent 1 fixes D1 over (T, N), then agent 2's stage undoes the noise
        ("noise", _noise("D1"), {1: ("noise",)}, False),
    ],
    ids=["add_var", "remove_var", "undo_add_var"],
)
def test_a_later_rewire_forgets_a_realized_rule(
    job_market, query, label, intervention, visibility, merge_common
):
    """A rule realized over one parent tuple does not fit a final game that
    gives its decision another: the walk forgets it, as it does after an
    object fix, and no later stage resolves the decision."""
    job = QueryJob(
        game=job_market, interventions=((label, intervention),),
        visibility=visibility, query=query, merge_common=merge_common,
    )
    with pytest.raises(SolverError, match="^decision D1 was never resolved by any stage$"):
        evaluate_query(job)


@pytest.mark.parametrize("visibility", [{2: ("pin",)}, {}], ids=["agent_2", "no_one"])
def test_an_object_fix_keeping_the_parents_still_binds(job_market, visibility):
    """Pinning D1 to ``g`` over its own parents ``(T,)`` after agent 1 fixed
    its rule leaves the parent tuple as it was; the pin binds all the same."""
    pin = FixObject("D1", ("T",), job_market.delta_cpd("D1", "g"))
    job = QueryJob(
        game=job_market, interventions=(("pin", pin),), visibility=visibility,
        query="forall ne: P(D1=g) = 1",
    )
    result = evaluate_query(job)
    assert result.verdict is True
    assert all("D1" not in leaf.rules for leaf in result.leaves)


@pytest.mark.parametrize(
    "rewire, undo_redo, parents",
    [
        (_noise("D1"), ["RemoveVariable", "AddVariable"], ("T", "N")),
        (FixObject("D1", (), None), ["FixObject", "FixObject"], ()),
    ],
    ids=["add_var", "fix_object"],
)
def test_an_undone_and_redone_parent_keeps_a_realized_rule(
    job_market, rewire, undo_redo, parents
):
    """Agent 2's stage undoes the rewire agent 1 saw and applies it again:
    D1 ends with the parents its realized rule was laid out over, so the
    rule holds and the walk reaches its leaves."""
    job = QueryJob(
        game=job_market,
        interventions=(("rewire", rewire), ("env", env_fix(job_market))),
        visibility={1: ("rewire",), 2: ("rewire", "env")},
        query="forall ne: E[1]", merge_common=False,
    )
    applied = [type(p).__name__ for p in job.decomposition().stages[1].primitives]
    assert applied[:2] == undo_redo
    leaves = evaluate_query(job).leaves
    assert leaves and {leaf.rules["D1"].parents for leaf in leaves} == {parents}


def _retyped_t(domain):
    """``T`` removed, then added back over ``domain`` as a parent of ``D1``
    alone: D1's parent tuple is ``(T,)`` before and after."""
    return (
        ("drop_t", RemoveVariable("T")),
        ("add_t", AddVariable(
            Variable("T", "chance", domain), (), ("D1",),
            cpd=TabularCPD.uniform("T", domain),
        )),
    )


@pytest.mark.parametrize(
    "domain, query",
    [
        (("h", "l", "m"), "forall ne: E[1] >= -100"),
        (("h", "l", "m"), "forall ne: 1 >= 0"),
        (("x", "y"), "forall ne: E[1] >= -100"),
    ],
    ids=["new_value", "new_value_no_atom", "renamed_values"],
)
def test_a_retyped_parent_forgets_a_realized_rule(job_market, domain, query):
    """Agent 1 fixes D1's rule over ``T`` in ``(h, l)``; agent 2's stage
    gives ``T`` other values under the same name, so the rule's layout no
    longer fits D1 and no later stage resolves it."""
    job = QueryJob(
        game=job_market, interventions=_retyped_t(domain),
        visibility={2: ("drop_t", "add_t")}, query=query,
    )
    assert job.decomposition().stages[-1].game.parents_of("D1") == ("T",)
    with pytest.raises(SolverError, match="^decision D1 was never resolved by any stage$"):
        evaluate_query(job)


# -- environment specification checks ----------------------------------------------------------


def env_fix(job_market):
    return FixMechanism("THETA_T", job_market.delta_cpd("T", "h"))


def test_spec_holds_for_environment_change(job_market):
    assert check_spec_env(job_market, [env_fix(job_market)], "D2=j")


def test_spec_holds_for_identity_over_pure(job_market):
    assert check_spec_env(job_market, [], "D2=j")


def test_spec_fails_for_identity_with_behavioral(job_market):
    assert not check_spec_env(
        job_market, [], "D2=j", include_behavioral=True
    )


def test_behavioral_queries_see_isolated_equilibria(job_market):
    # the signalling game's isolated mixed equilibrium hires with P = 0.85
    def verdict(query, include_behavioral):
        job = QueryJob(game=job_market, query=query, include_behavioral=include_behavioral)
        return evaluate_query(job).verdict

    exact = "exists ne: P(D2=j) = 0.85"
    avoided = "forall ne: P(D2=j) < 0.85 or P(D2=j) > 0.85"
    assert verdict(exact, True) and not verdict(exact, False)
    assert not verdict(avoided, True) and verdict(avoided, False)


def test_spec_direction_lower(prisoners):
    # making defection worthless cannot lower P(D1=D) below the original
    assert check_spec_env(prisoners, [], "D1=D", direction="lower")


@pytest.mark.parametrize("query", [5, None, ["sampled: E[1]"]], ids=["int", "None", "list"])
def test_query_neither_text_nor_parsed_is_refused(stackelberg, query):
    with pytest.raises(QueryError) as exc:
        evaluate_query(QueryJob(game=stackelberg, query=query))
    assert str(exc.value) == (
        f"a query must be text or a parsed Query, got type {type(query).__name__}"
    )


@pytest.mark.parametrize(
    "event, column, got",
    [
        ("D2=j) >= 0 and P(D2=j", 5, "')'"),
        ("D2=j) + P(D2=j", 5, "')'"),
        ("D2=j D1=g", 6, "'D1'"),
    ],
)
def test_spec_event_text_is_parsed_as_an_event(job_market, event, column, got):
    """The event is parsed on its own, so text that would close ``P(`` and
    open a formula is refused at its own column."""
    with pytest.raises(QueryError) as exc:
        check_spec_env(job_market, [], event)
    assert str(exc.value) == (
        f"parse error at column {column}: expected ',' or end of event, got {got}"
    )


@pytest.mark.parametrize(
    "event, column, expected",
    [("D2=j,", 6, "name"), ("D2=", 4, "a domain value"), ("D2", 3, "=")],
)
def test_spec_event_errors_name_the_end_of_the_event(job_market, event, column, expected):
    """An event that stops short names its end as the event's; the same
    text inside a query still names the end of the query."""
    with pytest.raises(QueryError) as exc:
        check_spec_env(job_market, [], event)
    assert str(exc.value) == (
        f"parse error at column {column}: expected {expected}, got 'end of event'"
    )
    with pytest.raises(QueryError) as exc:
        parse_query(f"sampled: P({event}")
    assert str(exc.value).endswith(f"expected {expected}, got 'end of query'")


# -- leaves and events on the contraction kernel ------------------------------------------

SCENARIOS = (
    "commitment_private", "commitment_revealed", "effortville_policy",
    "reward_hidden", "reward_reversed",
)


def scenario_job(name):
    no_flags = argparse.Namespace(seed=None, epsilon=None)
    return _job_from_scenario(resolve_scenario(name), no_flags)


def _random_game(seed, rich):
    rng = random.Random(seed)
    return rng, (random_rich_game(rng) if rich else random_game(rng))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.data())
def test_event_probability_matches_joint(seed, rich, data):
    """P(event) from one contraction with 0/1 indicators, against the
    joint table's linear scan, for random partial assignments."""
    rng, game = _random_game(seed, rich)
    profile = random_full_profile(rng, game)
    names = data.draw(st.lists(
        st.sampled_from(game.names()), min_size=1, max_size=3, unique=True
    ))
    event = {n: data.draw(st.sampled_from(game.domain(n))) for n in names}
    [got] = expectations(game, profile, [[event_factor(game, event)]])
    want = induced_joint(game, profile).prob(event)
    assert float(got) == pytest.approx(want, abs=1e-12)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.integers(1, 5))
def test_leaf_stacked_atoms_match_per_leaf_joints(seed, rich, n_leaves):
    """Every atom at every leaf from one leaf-axis contraction, against one
    joint per leaf.  Some decisions keep one rule object at every leaf (the
    common profile), the others differ (the leaf axis)."""
    rng, game = _random_game(seed, rich)
    shared = random_full_profile(rng, game).rules
    leaves = []
    for _ in range(n_leaves):
        fresh = random_full_profile(rng, game).rules
        leaves.append({d: rng.choice((shared[d], fresh[d])) for d in shared})
    joints = [induced_joint(game, PolicyProfile(rules)) for rules in leaves]
    for agent in range(1, game.n_agents + 1):
        got = queries._at_leaves(game, leaves, utility_factors(game, [agent]))
        want = [expected_utility_from_joint(game, j, agent) for j in joints]
        assert got == pytest.approx(want, abs=1e-12)
    event = {n: rng.choice(game.domain(n)) for n in rng.sample(game.names(), 2)}
    got = queries._at_leaves(game, leaves, [event_factor(game, event)])
    assert got == pytest.approx([j.prob(event) for j in joints], abs=1e-12)


def test_leaf_axis_grows_linearly(monkeypatch, prisoners):
    """Both decisions differ at every leaf: doubling the leaves doubles the
    largest array, where a per-decision stack would quadruple it."""
    largest = []
    einsum = np.einsum

    def recorded(*args):
        out = einsum(*args)
        largest[-1] = max([largest[-1], out.size] + [a.size for a in args[1:]])
        return out

    monkeypatch.setattr(np, "einsum", recorded)
    rng = random.Random(3)
    for n_leaves in (8, 16):
        leaves = [random_full_profile(rng, prisoners).rules for _ in range(n_leaves)]
        largest.append(0)
        values = queries._at_leaves(prisoners, leaves, utility_factors(prisoners, [1]))
        assert len(values) == n_leaves
    assert largest[1] == 2 * largest[0]


def test_queries_build_no_joint_and_replay_no_primitive(monkeypatch, job_market):
    calls = []

    def counting(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counted

    for module in (model, equilibrium, interventions, queries):
        for name in ("induced_joint", "apply_primitive"):
            if hasattr(module, name):
                original = getattr(module, name)
                monkeypatch.setattr(module, name, counting(name, original))
    for name in SCENARIOS:
        assert evaluate_query(scenario_job(name)).leaves
    env = FixMechanism("THETA_T", job_market.delta_cpd("T", "h"))
    assert check_spec_env(job_market, [env], "D2=j")
    assert calls == []


@pytest.mark.parametrize(
    "make", [random_game, random_multi_decision_game, random_rich_game]
)
def test_stage_outcomes_are_pure_nash_tables(make):
    """A stage's outcomes are ``pure_nash``'s profiles, in order, each rule
    an array holding exactly its table's rows; a rule object two profiles
    share is one read-only array object."""
    for seed in range(30):
        game = make(random.Random(seed))
        try:
            profiles = pure_nash(game).outcomes
        except SolverError:  # past the enumeration budget
            with pytest.raises(SolverError, match="budget"):
                queries._stage_outcomes(game, False)
            continue
        outcomes = queries._stage_outcomes(game, False)
        assert len(outcomes) == len(profiles)
        for rules, profile in zip(outcomes, profiles):
            assert list(rules) == list(profile.decisions())
            for d, array in rules.items():
                assert not array.flags.writeable
                rows = array.reshape(-1, len(game.domain(d))).tolist()
                assert rows == [list(profile[d].row(c)) for c in game.contexts(d)]
        for d in game.free_decisions():
            pairs = {(id(p[d]), id(a[d])) for a, p in zip(outcomes, profiles)}
            assert len(pairs) == len({x for x, _ in pairs}) == len({y for _, y in pairs})


def _brute_force_atom(game, rules, node):
    """A ``P(...)`` or ``E[...]`` atom read off ``brute_force_joint``."""
    joint = brute_force_joint(game, PolicyProfile(rules))
    names = list(game.names())
    if isinstance(node, Prob):
        event = [(names.index(v), tok) for v, tok in node.event]
        return sum(
            p for inst, p in joint.items()
            if all(str(inst[i]) == tok for i, tok in event)
        )
    agents = range(1, game.n_agents + 1) if node.agent == "total" else [node.agent]
    at = [names.index(u) for a in agents for u in game.utilities_of(a)]
    return sum(p * sum(inst[i] for i in at) for inst, p in joint.items())


def test_scenario_leaf_values_match_brute_force_joints():
    """Each leaf's value, with every atom recomputed from a joint built by
    nested loops over the leaf's reported rules."""
    for name in SCENARIOS:
        job = scenario_job(name)
        final = dc_replace(job.decomposition().final_game, rule_fixes={})
        body = job.parsed_query().body
        for leaf in evaluate_query(job).leaves:
            want = queries._evaluate(
                body, lambda n: _brute_force_atom(final, leaf.rules, n), job.epsilon
            )
            if isinstance(want, bool):
                assert leaf.value is want, name
            else:
                assert leaf.value == pytest.approx(want, abs=1e-9), name


def test_queries_make_rule_tables_for_leaves_only(monkeypatch, job_market):
    """A query makes at most one ``TabularCPD`` per distinct leaf rule; a
    spec check makes none."""
    made = []
    rule_of = kernel._rule_of

    def counted(*args):
        made.append(rule_of(*args))
        return made[-1]

    for module in (kernel, equilibrium, queries):
        if hasattr(module, "_rule_of"):
            monkeypatch.setattr(module, "_rule_of", counted)
    jobs = [scenario_job(name) for name in SCENARIOS]
    jobs += [
        QueryJob(game=job_market, query="forall ne: P(D2=j) >= 0",
                 include_behavioral=True, mix_ties=mix)
        for mix in (False, True)
    ]
    for job in jobs:
        made.clear()
        leaves = evaluate_query(job).leaves
        rules = {id(r) for leaf in leaves for r in leaf.rules.values()}
        assert made and len(made) <= len(rules)
        assert {id(r) for r in made} <= rules
    made.clear()
    assert check_spec_env(job_market, [env_fix(job_market)], "D2=j")
    assert not check_spec_env(job_market, [], "D2=j", include_behavioral=True)
    assert made == []


def test_behavioral_corner_near_a_pure_outcome_is_merged(monkeypatch, prisoners):
    """A behavioral outcome within ``PROB_EPS`` of the pure equilibrium
    (D, D) in every entry is that outcome; one further off is a second
    outcome, and mixing ties averages each decision's distinct rules."""
    def profile(p1, p2):
        return PolicyProfile({
            d: TabularCPD(d, (), {(): (p, 1.0 - p)})
            for d, p in (("D1", p1), ("D2", p2))
        })

    corners = RationalOutcomeSet((profile(1e-12, 0.0), profile(0.5, 0.0)))
    monkeypatch.setattr(queries, "behavioral_nash_small", lambda game: corners)
    result = evaluate_query(QueryJob(
        game=prisoners, query="sampled: E[1]", mix_ties=True, include_behavioral=True,
    ))
    assert result.trace[-1]["outcomes"] == 2
    [leaf] = result.leaves
    assert leaf.rules["D1"].row(()) == (0.25, 0.75)
    assert leaf.rules["D2"].row(()) == (0.0, 1.0)


# -- the a_prime trace -----------------------------------------------------------------------


def replayed_a_prime(job):
    """Per stage, the owners the trace names: each primitive applied in
    turn, its target looked up in the game after it."""
    game, out = job.game, []
    for stage in job.decomposition().stages:
        owners = []
        for prim in stage.primitives:
            game = apply_primitive(game, prim)
            if isinstance(prim, AddVariable):
                name = prim.variable.name
            elif isinstance(prim, FixMechanism):
                name = prim.target[3:] if prim.target.startswith("PI_") else None
            else:
                name = prim.target
            if name is not None and game.has_variable(name):
                if game.kind(name) == DECISION:
                    owners.append(game.agent_of(name))
        out.append(owners)
    return out


def new_decision_jobs(job_market):
    """Hand-made stages: a decision added then object-fixed; added then
    removed; added, rule-fixed, then removed in the same stage."""
    new = Variable("N", "decision", ("a", "b"), 2)
    add = AddVariable(new, (), ())
    pin = FixObject("N", (), TabularCPD("N", (), {(): (1.0, 0.0)}))
    rule = FixMechanism("PI_N", TabularCPD("N", (), {(): (0.0, 1.0)}))
    env = FixMechanism("THETA_T", job_market.delta_cpd("T", "h"))
    compounds = {
        "add_pin": (add, pin),
        "add_remove": (add, RemoveVariable("N")),
        "add_rule_remove": (add, rule, RemoveVariable("N")),
    }
    for label, steps in compounds.items():
        interventions = ((label, CompoundIntervention(steps)), ("env", env))
        for visibility, merge in (
            ({1: (label,)}, True),
            ({1: (label,), 2: ("env",)}, False),
            ({2: (label, "env")}, True),
        ):
            yield QueryJob(
                game=job_market, interventions=interventions,
                visibility=visibility, query="forall ne: E[1] >= -100",
                merge_common=merge,
            )


def test_a_prime_matches_primitive_replay(job_market):
    jobs = [scenario_job(name) for name in SCENARIOS]
    jobs += list(new_decision_jobs(job_market))
    named = 0
    for job in jobs:
        want = replayed_a_prime(job)
        trace = evaluate_query(job).trace
        assert trace
        for entry in trace:
            assert entry["a_prime"] == want[entry["stage"]]
        named += sum(map(len, want))
    assert named > 0
