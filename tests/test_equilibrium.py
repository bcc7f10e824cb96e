import collections
import itertools
import math
import random
from fractions import Fraction
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalgames import (
    CausalGame,
    FixMechanism,
    PolicyProfile,
    SolverError,
    TabularCPD,
    ValidationError,
    Variable,
    apply_primitive,
    behavioral_nash_small,
    best_responses,
    expected_utility,
    optimal_commitment,
    pure_nash,
    rule_node,
    serialize_game,
    verify_rational_outcome,
)
from causalgames import equilibrium, model
from causalgames.cli import main
from causalgames.equilibrium import (
    COMMIT_EPS, EQ_EPS, STABLE_CHUNK, VERIFY_EPS, BehavioralFamily, FreeParam,
    _action_values, _bounds, _coefficients, _verified,
)
from causalgames.model import (
    enumerate_pure_rules,
    induced_joint,
)
from helpers import (
    breakpoint_commitment,
    cpds_equal,
    expected_utility_from_joint,
    fraction_support_enumeration,
    loop_action_values,
    loop_pure_nash,
    loop_stable,
    random_full_profile,
    random_distribution,
    random_game,
    random_multi_decision_game,
    random_type_game,
    reference_pure_rules,
)


def _payoffs(game, profile):
    return tuple(
        round(expected_utility(game, profile, a), 9)
        for a in range(1, game.n_agents + 1)
    )


def single_agent_game(utils=("a", 3.0, "b", 1.0)):
    variables = (
        Variable("D1", "decision", ("a", "b"), 1),
        Variable("U1", "utility", (1.0, 3.0), 1),
    )
    parents = {"D1": (), "U1": ("D1",)}
    cpds = {
        "U1": TabularCPD(
            "U1", ("D1",), {("a",): (0.0, 1.0), ("b",): (1.0, 0.0)}
        )
    }
    return CausalGame(1, variables, parents, cpds)


def constant_game():
    variables = (
        Variable("D1", "decision", ("a", "b"), 1),
        Variable("U1", "utility", (2.0,), 1),
    )
    parents = {"D1": (), "U1": ()}
    cpds = {"U1": TabularCPD("U1", (), {(): (1.0,)})}
    return CausalGame(1, variables, parents, cpds)


def matching_pennies():
    variables = (
        Variable("D1", "decision", ("H", "T"), 1),
        Variable("D2", "decision", ("H", "T"), 2),
        Variable("U1", "utility", (-1, 1), 1),
        Variable("U2", "utility", (-1, 1), 2),
    )
    parents = {"D1": (), "D2": (), "U1": ("D1", "D2"), "U2": ("D1", "D2")}

    def u(match):
        return {(a, b): ((0.0, 1.0) if (a == b) == match else (1.0, 0.0))
                for a in "HT" for b in "HT"}

    cpds = {
        "U1": TabularCPD("U1", ("D1", "D2"), u(True)),
        "U2": TabularCPD("U2", ("D1", "D2"), u(False)),
    }
    return CausalGame(2, variables, parents, cpds)


def test_best_response_to_defection(prisoners):
    others = PolicyProfile({"D2": prisoners.delta_rule("D2", "D")})
    best = best_responses(prisoners, 1, others)
    assert len(best) == 1
    assert best[0]["D1"].row(()) == (0.0, 1.0)


def test_best_response_of_leader(stackelberg):
    others = PolicyProfile({"D2": stackelberg.delta_rule("D2", "L")})
    best = best_responses(stackelberg, 1, others)
    assert len(best) == 1
    assert best[0]["D1"].row(()) == (1.0, 0.0)


def test_total_tie_returns_all():
    game = constant_game()
    best = best_responses(game, 1, PolicyProfile({}))
    assert len(best) == 2


def test_incomplete_others_rejected(prisoners):
    with pytest.raises(ValidationError, match="cover exactly"):
        best_responses(prisoners, 1, PolicyProfile({}))


def test_pure_nash_dilemma(prisoners):
    result = pure_nash(prisoners)
    assert len(result.outcomes) == 1
    assert _payoffs(prisoners, result.outcomes[0]) == (-2.0, -2.0)
    assert result.outcomes[0]["D1"].row(()) == (0.0, 1.0)


def test_pure_nash_simultaneous(stackelberg):
    result = pure_nash(stackelberg)
    assert len(result.outcomes) == 1
    only = result.outcomes[0]
    assert only["D1"].row(()) == (1.0, 0.0)
    assert only["D2"].row(()) == (1.0, 0.0)
    assert _payoffs(stackelberg, only) == (2.0, 1.0)


def test_pure_nash_hardworking_town(effortville):
    result = pure_nash(effortville)
    payoffs = sorted(_payoffs(effortville, p) for p in result.outcomes)
    assert payoffs == [(4.0, 3.0), (5.0, 3.0), (5.0, 3.0)]


def test_every_pure_profile_classified_correctly(prisoners, effortville):
    for game in (prisoners, effortville):
        nash = {
            tuple(sorted((d, tuple(sorted(p[d].table.items()))) for d in p.decisions()))
            for p in pure_nash(game).outcomes
        }
        decisions = game.free_decisions()
        lists = [reference_pure_rules(game, d) for d in decisions]
        for combo in itertools.product(*lists):
            profile = PolicyProfile(dict(zip(decisions, combo)))
            key = tuple(
                sorted(
                    (d, tuple(sorted(profile[d].table.items())))
                    for d in decisions
                )
            )
            assert verify_rational_outcome(game, profile) == (key in nash)


def test_pure_nash_multi_decision_agents_match_verify():
    """Kept profiles are exactly the verified ones, in enumeration order."""
    tied = 0
    for seed in range(12):
        game = random_multi_decision_game(random.Random(seed))
        assert len(game.free_decisions_of(1)) >= 2
        decisions = game.free_decisions()
        lists = [reference_pure_rules(game, d) for d in decisions]
        expected = [
            profile
            for profile in (
                PolicyProfile(dict(zip(decisions, combo)))
                for combo in itertools.product(*lists)
            )
            if verify_rational_outcome(game, profile)
        ]
        got = pure_nash(game).outcomes
        assert [[p[d].table for d in decisions] for p in got] == [
            [p[d].table for d in decisions] for p in expected
        ]
        tied += len(got) > 1
    assert tied  # several equilibria, so payoff ties were exercised


def _tables(outcomes):
    return [{d: p[d].table for d in p.decisions()} for p in outcomes]


def test_pure_nash_matches_joint_loop(job_market, effortville, prisoners, stackelberg):
    """Payoff tensors keep the profiles the tabulated joints keep, in order."""
    games = [random_multi_decision_game(random.Random(seed)) for seed in range(12)]
    games += [job_market, effortville, prisoners, stackelberg]
    pinned = PolicyProfile({
        d: prisoners.delta_rule(d, "C") for d in prisoners.free_decisions()
    })
    games.append(CausalGame(  # no free decision: one empty profile
        prisoners.n_agents, prisoners.variables, prisoners.parents,
        prisoners.cpds, pinned.rules,
    ))
    for game in games:
        assert _tables(pure_nash(game).outcomes) == _tables(
            loop_pure_nash(game).outcomes
        )
    assert pure_nash(games[-1]).outcomes == (PolicyProfile({}),)


def test_solvers_build_no_joint(monkeypatch, job_market, prisoners, stackelberg):
    from causalgames import equilibrium, model

    calls = []
    original = model.induced_joint

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (equilibrium, model):  # also where no longer imported
        monkeypatch.setattr(module, "induced_joint", counted, raising=False)
    for game in (job_market, prisoners, stackelberg):
        for profile in pure_nash(game).outcomes:
            assert verify_rational_outcome(game, profile)
    others = PolicyProfile({"D2": prisoners.delta_rule("D2", "D")})
    assert best_responses(prisoners, 1, others)
    optimal_commitment(stackelberg, 1)
    behavioral_nash_small(job_market)
    assert calls == []
    model.induced_joint(job_market, pure_nash(job_market).outcomes[0])
    assert len(calls) == 1  # the counting wrapper is live


def _observers_game(seen=4):
    """Two agents, each observing its own ``seen`` binary chance variables:
    2 ** (2 ** seen) pure rules per decision."""
    binary = ("a", "b")
    variables, parents, cpds = [], {}, {}
    for agent in (1, 2):
        names = [f"X{agent}{i}" for i in range(seen)]
        for x in names:
            variables.append(Variable(x, "chance", binary))
            cpds[x] = TabularCPD(x, (), {(): (0.5, 0.5)})
        variables.append(Variable(f"D{agent}", "decision", binary, agent))
        parents[f"D{agent}"] = tuple(names)
    for agent in (1, 2):
        name = f"U{agent}"
        variables.append(Variable(name, "utility", (0, 1), agent))
        parents[name] = ("D1", "D2")
        cpds[name] = TabularCPD(name, ("D1", "D2"), {
            ctx: (0.0, 1.0) if ctx[0] == ctx[1] else (1.0, 0.0)
            for ctx in itertools.product(binary, binary)
        })
    return CausalGame(2, tuple(variables), parents, cpds)


def test_enumeration_budget_counted_before_allocating(tmp_path, capsys):
    """65 536 pure rules per decision: the 2 ** 32 profiles are refused
    before any rule or tensor is built, by the library and by the CLI."""
    game = _observers_game()
    tracemalloc.start()
    with pytest.raises(SolverError, match=(
        r"^would enumerate 4,294,967,296 pure rule profiles of D1, D2; "
        r"budget 65,536$"
    )):
        pure_nash(game)
    with pytest.raises(SolverError, match="pure rule profiles of D1;"):
        enumerate_pure_rules(_observers_game(seen=5), "D1")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 10 * 2**20
    path = tmp_path / "observers.game.yaml"
    path.write_text(serialize_game(game))
    assert main(["solve", str(path)]) in (1, 2)
    assert capsys.readouterr().err.startswith("error: would enumerate")


def test_pure_rules_built_only_for_answers(monkeypatch):
    """One agent whose decision sees 4 binary chance variables: 65 536 pure
    rules, inside the budget.  ``pure_nash`` and ``best_responses`` find the
    one rule that copies X0, build a ``TabularCPD`` only for it, and keep
    the traced peak far below one rule object per pure rule.  The 16 MB
    rule stack is past the size kept per layout, so none of it stays."""
    binary = ("a", "b")
    names = tuple(f"X{i}" for i in range(4))
    variables = [Variable(x, "chance", binary) for x in names] + [
        Variable("D", "decision", binary, 1), Variable("U", "utility", (0, 1), 1),
    ]
    cpds = {x: TabularCPD(x, (), {(): (0.5, 0.5)}) for x in names}
    cpds["U"] = TabularCPD("U", ("X0", "D"), {
        ctx: (0.0, 1.0) if ctx[0] == ctx[1] else (1.0, 0.0)
        for ctx in itertools.product(binary, binary)
    })
    game = CausalGame(1, tuple(variables), {"D": names, "U": ("X0", "D")}, cpds)
    copy_x0 = TabularCPD("D", names, {
        ctx: (1.0, 0.0) if ctx[0] == "a" else (0.0, 1.0)
        for ctx in game.contexts("D")
    })
    built = []
    post_init = TabularCPD.__post_init__

    def counted(cpd):
        built.append(cpd.variable)
        post_init(cpd)

    monkeypatch.setattr(TabularCPD, "__post_init__", counted)
    tracemalloc.start()
    try:
        outcomes = pure_nash(game).outcomes
        responses = best_responses(game, 1, PolicyProfile({}))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [p.rules for p in outcomes] == [{"D": copy_x0}]
    assert [p.rules for p in responses] == [{"D": copy_x0}]
    assert built == ["D", "D"]  # one per returned rule, not one per pure rule
    assert peak < 64 * 2**20
    assert retained < 2**20


def _decision_game(decision, domain, parent_domains):
    """A game holding only ``decision`` and its chance parents; the rule
    stacks read nothing else."""
    parents = tuple(f"{decision}_P{i}" for i in range(len(parent_domains)))
    variables = [Variable(p, "chance", dom) for p, dom in zip(parents, parent_domains)]
    variables.append(Variable(decision, "decision", domain, 1))
    return CausalGame(1, tuple(variables), {decision: parents}, {})


def test_rule_stacks_are_shared_per_layout():
    """Decisions of one layout, |dom| and their parents' sizes, get one
    read-only stack whatever their names, values and games; a stack past
    ``DIRECT_SPACE`` entries is built per call and kept by no one."""
    d = _decision_game("D", ("a", "b"), [(0, 1, 2), ("x", "y")])
    e = _decision_game("E", (True, False), [("p", "q", "r"), (5, 6)])
    stack = model._pure_rules(d, "D")
    assert model._pure_rules(e, "E") is stack
    assert stack.shape == (2 ** 6, 3, 2, 2) and not stack.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        stack[0, 0, 0, 0] = 1.0
    other = _decision_game("D", ("a", "b"), [("x", "y"), (0, 1, 2)])
    assert model._pure_rules(other, "D") is not stack  # parent sizes in order
    wide = _decision_game("W", tuple(range(5)), [(0, 1), (0, 1)])
    assert 5 ** 4 * 4 * 5 > model.DIRECT_SPACE
    kept = model._rule_stack.cache_info().currsize
    first, second = model._pure_rules(wide, "W"), model._pure_rules(wide, "W")
    assert first is not second and np.array_equal(first, second)
    assert model._rule_stack.cache_info().currsize == kept


def _deep_chain_game(n=1200):
    """Binary chance chain X0 -> ... -> X{n-1}, copying except at three
    noisy links; agent 1 sees X0, agent 2 sees the end of the chain."""
    rng = random.Random(5)
    names = [f"X{i}" for i in range(n)]
    binary = ("a", "b")
    variables = [Variable(x, "chance", binary) for x in names]
    parents = {x: tuple(names[max(i - 1, 0):i]) for i, x in enumerate(names)}
    cpds = {"X0": TabularCPD("X0", (), {(): (0.3, 0.7)})}
    for i, x in enumerate(names[1:], 1):
        stay = 0.8 if i in (300, 600, 900) else 1.0
        cpds[x] = TabularCPD(
            x, parents[x], {("a",): (stay, 1 - stay), ("b",): (1 - stay, stay)}
        )
    last = names[-1]
    for agent, seen in ((1, "X0"), (2, last)):
        variables.append(Variable(f"D{agent}", "decision", ("u", "v"), agent))
        parents[f"D{agent}"] = (seen,)
    domains = {last: binary, "D1": ("u", "v"), "D2": ("u", "v")}
    for agent, ps in ((1, (last, "D1")), (2, (last, "D1", "D2"))):
        name = f"U{agent}"
        udom = (-2, 0, 3)
        variables.append(Variable(name, "utility", udom, agent))
        parents[name] = ps
        cpds[name] = TabularCPD(name, ps, {
            ctx: random_distribution(rng, 3)
            for ctx in itertools.product(*[domains[p] for p in ps])
        })
    return CausalGame(2, tuple(variables), parents, cpds)


def test_deep_chain_solved_by_small_eliminations(monkeypatch):
    """Each elimination step sees a few labels, never the 1200 variables."""
    game = _deep_chain_game()
    widths = []
    einsum = np.einsum

    def recorded(*args):
        widths.append(len(set(args[0]) - set(",->")))  # args: subscripts, operands
        return einsum(*args)

    monkeypatch.setattr(np, "einsum", recorded)
    start = time.perf_counter()
    outcomes = pure_nash(game).outcomes
    eus = [expected_utility(game, p, a) for p in outcomes for a in (1, 2)]
    elapsed = time.perf_counter() - start
    monkeypatch.undo()
    assert outcomes and max(widths) <= 6
    assert elapsed < 10.0  # about 0.1 s; the joint loop below takes about 1 s
    assert _tables(outcomes) == _tables(loop_pure_nash(game).outcomes)
    want = [
        expected_utility_from_joint(game, induced_joint(game, p), a)
        for p in outcomes for a in (1, 2)
    ]
    assert eus == pytest.approx(want, abs=1e-12)


def test_action_values_match_instantiation_loop(
    job_market, effortville, stackelberg, prisoners
):
    """Each decision's arrays, for every support pattern: the reached slots
    and both action values' constants and coefficients, against the
    instantiation loop."""
    zero_type = random_type_game(random.Random(7), zero_type=True)
    games = (
        job_market, effortville, stackelberg, prisoners,
        random_type_game(random.Random(3)), zero_type,
    )
    options = ((0,), (1,), (0, 1))
    for game in games:
        decisions = game.free_decisions()
        slots = [(d, tuple(c)) for d in decisions for c in game.contexts(d)]
        support = np.array(list(itertools.product(range(3), repeat=len(slots))))
        own = [[i for i, s in enumerate(slots) if s[0] == d] for d in decisions]
        others = own[::-1] if len(own) == 2 else [[]]
        coefficients = _coefficients(game, decisions)
        size = coefficients[0].shape[1]
        blocks = np.zeros((2, len(support), size), dtype=int)
        for block, other in zip(blocks, others):
            block[:, :len(other)] = support[:, other]
        arrays = list(zip(*_action_values(coefficients, blocks)))
        for (reached, _, _), mine in zip(arrays, own + [[]]):
            assert not reached[:, len(mine):].any()  # padded slots
        unreached = 0
        for p, combo in enumerate(support.tolist()):
            sigma = {s: options[o] for s, o in zip(slots, combo)}
            unknown_of = {s: f"q{i}" for i, s in enumerate(slots) if combo[i] == 2}
            want = loop_action_values(game, sigma, unknown_of)
            got = set()
            for (reached, const, coef), mine, other in zip(arrays, own, others):
                for c, i in enumerate(mine):
                    if not reached[p, c]:
                        continue
                    got.add(slots[i])
                    for a, (w_const, w_coeffs) in enumerate(want[slots[i]]):
                        assert const[p, c, a] == pytest.approx(w_const, abs=1e-12)
                        names = [unknown_of.get(slots[j]) for j in other]
                        assert set(w_coeffs) <= set(names)
                        names += [None] * (size - len(names))  # padding
                        for c2, u in enumerate(names):
                            assert coef[p, c, a, c2] == pytest.approx(
                                w_coeffs.get(u, 0.0), abs=1e-12
                            )
            assert got == set(want)
            unreached += len(slots) - len(want)
        if game is zero_type:
            assert unreached
    # a slope at or below COEFF_EPS is cancellation noise
    w = np.zeros((1, 1, 2, 1, 2))
    w[..., 0] = 1e-13
    _, _, coef = _action_values((w, w != 0.0), np.full((1, 1, 1), 2))
    assert not coef.any()


def _unread_chance_variables(game, k):
    """``game`` plus ``k`` binary chance variables that nothing reads."""
    extra = [f"Z{i}" for i in range(k)]
    return CausalGame(
        game.n_agents,
        game.variables + tuple(Variable(z, "chance", ("a", "b")) for z in extra),
        {**game.parents, **{z: () for z in extra}},
        {**game.cpds, **{z: TabularCPD(z, (), {(): (0.25, 0.75)}) for z in extra}},
    )


def _flat(outcome_set):
    """Points and families as numbers and names, for approximate comparison."""
    points = [
        [p for d in q.decisions() for row in q[d].table.values() for p in row]
        for q in outcome_set.outcomes
    ]
    families = [
        (list(f.entries.items()), [(p.name, p.low, p.high) for p in f.params])
        for f in outcome_set.families
    ]
    return points, families


def test_unread_chance_variables_leave_support_enumeration_unchanged(
    monkeypatch, job_market
):
    """12 chance variables that nothing reads: the same equilibria, no joint,
    and no larger einsum operand than without them."""
    from causalgames import model

    joints = []
    monkeypatch.setattr(model, "induced_joint", lambda *a: joints.append(a))
    largest = []
    einsum = np.einsum

    def recorded(*args):
        largest[-1] = max([largest[-1]] + [a.size for a in args[1:]])
        return einsum(*args)

    monkeypatch.setattr(np, "einsum", recorded)
    results = []
    for k in (0, 12):
        largest.append(0)
        results.append(behavioral_nash_small(_unread_chance_variables(job_market, k)))
    monkeypatch.undo()
    assert joints == []
    assert largest[0] == largest[1] > 0
    (p0, f0), (p12, f12) = map(_flat, results)
    assert len(p0) == len(p12) and len(f0) == len(f12) and p0
    for a, b in zip(p0, p12):
        assert a == pytest.approx(b, abs=1e-12)
    for (entries0, params0), (entries12, params12) in zip(f0, f12):
        assert [k for k, _ in entries0] == [k for k, _ in entries12]
        for (_, a), (_, b) in zip(entries0, entries12):
            assert a == b if isinstance(a, str) else a == pytest.approx(b, abs=1e-12)
        assert [p[0] for p in params0] == [p[0] for p in params12]
        assert [p[1:] for p in params0] == pytest.approx(
            [p[1:] for p in params12], abs=1e-12
        )


def _assert_matches_oracle(game) -> bool:
    """Points and families within 1e-9 of exact Fraction support
    enumeration, or the same refusal; returns whether both refused."""
    try:
        points, families = fraction_support_enumeration(game)
    except SolverError as exc:  # a coupled family: the solver refuses it too
        with pytest.raises(SolverError, match=f"^{exc}$"):
            behavioral_nash_small(game)
        return True
    got = behavioral_nash_small(game)
    assert len(got.outcomes) == len(points)
    for profile, want in zip(got.outcomes, points):
        for (d, ctx), p in want.items():
            assert profile[d].row(ctx)[0] == pytest.approx(float(p), abs=1e-9)
    assert len(got.families) == len(families)
    for family, (entries, bounds) in zip(got.families, families):
        assert list(family.entries) == list(entries)
        for slot, want in entries.items():
            entry = family.entries[slot]
            if isinstance(want, str):
                assert entry == want
            else:
                assert entry == pytest.approx(float(want), abs=1e-9)
        assert [p.name for p in family.params] == list(bounds)
        for p in family.params:
            assert (p.low, p.high) == pytest.approx(
                tuple(map(float, bounds[p.name])), abs=1e-9
            )
    return False


def test_behavioral_matches_exact_oracle(
    job_market, effortville, prisoners, stackelberg
):
    """Points within 1e-9 and family bounds against exact Fraction support
    enumeration, on the fixtures and seeded type games (one of them with a
    type of probability 0)."""
    games = [job_market, effortville, prisoners, stackelberg]
    games += [random_type_game(random.Random(seed)) for seed in range(12)]
    games += [random_type_game(random.Random(seed), zero_type=True) for seed in (7, 8)]
    # pinned probabilities outside [0, 1] that clipping would keep
    games += [random_type_game(random.Random(248)),
              random_type_game(random.Random(171), zero_type=True)]
    refused = sum(map(_assert_matches_oracle, games))
    assert refused < len(games) // 2
    _, families = fraction_support_enumeration(effortville)
    assert sorted(b for _, bounds in families for b in bounds.values()) == [
        (0, Fraction(4, 5)), (0, 1)
    ]


def test_batched_verification_matches_joint_loop(prisoners):
    """``verify_rational_outcome``, one payoff tensor per agent, against one
    joint per profile and deviation: behavioral candidates of type games,
    random mixed profiles and pure profiles of random games, and
    multi-decision agents."""
    checked = collections.Counter()
    cases = []
    for seed in range(6):
        rng = random.Random(seed)
        game = random_type_game(rng, zero_type=seed == 0)
        profiles = [random_full_profile(rng, game) for _ in range(2)]
        try:
            profiles += behavioral_nash_small(game).extreme_profiles()
        except SolverError:  # a coupled family
            pass
        cases.append((game, profiles))
    for seed in range(20):
        rng = random.Random(100 + seed)
        game = random_game(rng)
        cases.append((game, [random_full_profile(rng, game) for _ in range(3)]))
    for seed in range(12):
        game = random_multi_decision_game(random.Random(seed))
        decisions = game.free_decisions()
        lists = [reference_pure_rules(game, d) for d in decisions]
        pure = [
            PolicyProfile(dict(zip(decisions, c))) for c in itertools.product(*lists)
        ]
        rng = random.Random(seed)
        cases.append((game, rng.sample(pure, 6) + [random_full_profile(rng, game)]))
    cases.append((prisoners, []))
    # a deviation gaining 5e-7: within VERIFY_EPS, past 1e-7
    cases.append((single_agent_game(), [PolicyProfile(
        {"D1": TabularCPD("D1", (), {(): (1.0 - 2.5e-7, 2.5e-7)})}
    )]))
    for game, profiles in cases:
        for eps in (VERIFY_EPS, 1e-7):
            got = [verify_rational_outcome(game, p, eps=eps) for p in profiles]
            assert got == [loop_stable(game, p, eps) for p in profiles]
            checked.update(got)
    assert checked[True] > 50 and checked[False] > 50


def _as_families(game, profiles):
    """Each full profile as a ``BehavioralFamily`` without parameters."""
    decisions = game.free_decisions()
    return [
        BehavioralFamily(decisions, {
            (d, tuple(c)): p[d].row(c)[0] for d in decisions for c in game.contexts(d)
        }, (), **_family_meta(game))
        for p in profiles
    ]


def _family_meta(game):
    return {"_parents": {d: game.parents_of(d) for d in game.free_decisions()}}


def _random_families(rng, game, count, free_share):
    """Families with random entries, each slot a parameter with probability
    ``free_share``; ends and entries are often 0 or 1, so ties are common."""
    decisions = game.free_decisions()
    slots = [(d, tuple(c)) for d in decisions for c in game.contexts(d)]
    out = []
    for _ in range(count):
        entries, params = {}, []
        for i, slot in enumerate(slots):
            if rng.random() < free_share:
                low, high = sorted(rng.choice((0.0, 1.0, rng.random())) for _ in "lh")
                params.append(FreeParam(f"q{i}", low, high))
                entries[slot] = f"q{i}"
            else:
                entries[slot] = rng.choice((0.0, 1.0, rng.random()))
        out.append(BehavioralFamily(
            decisions, entries, tuple(params), **_family_meta(game)
        ))
    return out


def _verifier_inputs(game, families):
    """``_verified``'s arguments for ``families``, laid out as the solver
    lays out its candidates: each decision's slots padded to the larger
    context count, then per candidate and slot its value, whether it is a
    parameter, and the parameter's bounds."""
    decisions = game.free_decisions()
    slots = [(d, tuple(c)) for d in decisions for c in game.contexts(d)]
    n = len(slots)
    size = max((len(game.contexts(d)) for d in decisions), default=1)
    index = [[i for i, (d, _) in enumerate(slots) if d == x] for x in decisions]
    index += [[]] * (2 - len(index))
    blocks = np.array([x + [n] * (size - len(x)) for x in index], dtype=int)
    rows = [[f.entries[s] for s in slots] for f in families]
    ends = [{p.name: (p.low, p.high) for p in f.params} for f in families]

    def table(cell, dtype=float):
        return np.array(
            [[cell(e, b) for e in row] for row, b in zip(rows, ends)], dtype=dtype
        ).reshape(len(families), n)

    return (
        _coefficients(game, decisions)[0],
        blocks,
        table(lambda e, b: 0.0 if isinstance(e, str) else e),
        table(lambda e, b: isinstance(e, str), bool),
        table(lambda e, b: b[e][0] if isinstance(e, str) else 0.0),
        table(lambda e, b: b[e][1] if isinstance(e, str) else 0.0),
    )


def test_verified_matches_kernel_verification():
    """Candidates verified off the coefficient array are kept exactly when
    the kernel's ``verify_rational_outcome`` accepts every corner that
    ``extreme_profiles`` builds: the solver's answers, every pure profile
    and random families, on seeded type games, a game with one free
    decision, one with none, a one-context game with deviations either side
    of ``VERIFY_EPS``, and candidates of more than two chunks of corners in
    all."""
    base = random_type_game(random.Random(40))
    one = apply_primitive(base, FixMechanism("PI_D1", TabularCPD(
        "D1", ("T",), {("h",): (0.3, 0.7), ("l",): (1.0, 0.0)}
    )))
    none = apply_primitive(one, FixMechanism("PI_D2", TabularCPD.uniform(
        "D2", one.domain("D2"), one.parents_of("D2"), one.domain
    )))
    # deviations gaining 5e-7 and 5e-6, either side of VERIFY_EPS
    near = [PolicyProfile({"D1": TabularCPD("D1", (), {(): (1.0 - x, x)})})
            for x in (2.5e-7, 2.5e-6)]
    cases = [(random_type_game(random.Random(s), zero_type=s % 4 == 0), [], 8, 0.3)
             for s in range(12)]
    cases += [(one, [], 8, 0.3), (none, [], 1, 0.0),
              (single_agent_game(), near, 4, 0.5), (base, [], 60, 0.9)]
    checked = collections.Counter()
    for seed, (game, extra, count, free_share) in enumerate(cases):
        decisions = game.free_decisions()
        pure = itertools.product(*[reference_pure_rules(game, d) for d in decisions])
        pure = [PolicyProfile(dict(zip(decisions, r))) for r in pure]
        families = _as_families(game, pure + extra)
        try:
            result = behavioral_nash_small(game)
            families += _as_families(game, result.outcomes) + list(result.families)
        except SolverError:  # a coupled family
            pass
        families += _random_families(random.Random(seed), game, count, free_share)
        w, blocks, values, free, low, high = _verifier_inputs(game, families)
        got = _verified(w, blocks, values, free, low, high).tolist()
        want = [
            all(verify_rational_outcome(game, p, eps=VERIFY_EPS)
                for p in f.extreme_profiles())
            for f in families
        ]
        assert got == want
        checked.update(got)
        if free_share > 0.5:
            assert (2 ** free.sum(1)).sum() > 2 * STABLE_CHUNK
    assert checked[True] > 50 and checked[False] > 50


def test_behavioral_solve_contracts_once(monkeypatch, job_market, effortville):
    """A support enumeration makes one contraction, the coefficients'; its
    candidates are verified from the same coefficients."""
    calls = []
    expectations = model.expectations

    def counted(*args, **kwargs):
        calls.append(args)
        return expectations(*args, **kwargs)

    monkeypatch.setattr(model, "expectations", counted)
    monkeypatch.setattr(equilibrium, "expectations", counted)
    games = [job_market, effortville, _indifferent_pair(2, 1)]
    for game in games + [random_type_game(random.Random(s)) for s in range(4)]:
        calls.clear()
        assert behavioral_nash_small(game).extreme_profiles()
        assert len(calls) == 1


def test_verify_mixed_signalling_profile(job_market):
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


def test_cooperation_is_not_rational(prisoners):
    profile = PolicyProfile(
        {
            "D1": prisoners.delta_rule("D1", "C"),
            "D2": prisoners.delta_rule("D2", "C"),
        }
    )
    assert not verify_rational_outcome(prisoners, profile)


def test_single_agent_argmax_verifies():
    game = single_agent_game()
    profile = PolicyProfile({"D1": game.delta_rule("D1", "a")})
    assert verify_rational_outcome(game, profile)
    worse = PolicyProfile({"D1": game.delta_rule("D1", "b")})
    assert not verify_rational_outcome(game, worse)


def test_behavioral_families_hardworking_town(effortville):
    result = behavioral_nash_small(effortville)
    intervals = sorted(
        (round(p.low, 9), round(p.high, 9))
        for fam in result.families
        for p in fam.params
    )
    assert intervals == [(0.0, 0.8), (0.0, 1.0)]
    assert len(result.families) == 2


def test_families_within_same_point_eps_are_one(monkeypatch):
    """A pinned entry off by rounding noise keeps no second copy of a
    family, as points within ``SAME_POINT_EPS`` are one point."""
    game = random_type_game(random.Random(130), zero_type=True)
    exact = behavioral_nash_small(game)
    reduce = equilibrium._reduce

    def nudged(m, *args):  # solved 1.0s come out 7e-16 low
        pivots = reduce(m, *args)
        solved = m[..., -1]
        solved[solved == 1.0] -= 7e-16
        return pivots

    monkeypatch.setattr(equilibrium, "_reduce", nudged)
    noisy = behavioral_nash_small(game)
    assert len(exact.families) == 15
    assert len(noisy.families) == len(exact.families)
    for got, want in zip(noisy.families, exact.families):
        assert got.params == want.params
        assert got.entries.keys() == want.entries.keys()
        for slot, entry in got.entries.items():
            if isinstance(entry, str):
                assert entry == want.entries[slot]
            else:
                assert abs(entry - want.entries[slot]) <= 7e-16


def test_behavioral_contains_pure(effortville, prisoners, stackelberg):
    for game in (effortville, prisoners, stackelberg):
        behavioral = behavioral_nash_small(game)
        for pure in pure_nash(game).outcomes:
            found = any(
                all(cpds_equal(pure[d], point[d]) for d in pure.decisions())
                for point in behavioral.outcomes
            )
            assert found


def test_behavioral_after_commitment(stackelberg):
    from causalgames import FixMechanism, apply_primitive

    committed = apply_primitive(
        stackelberg,
        FixMechanism("PI_D1", TabularCPD("D1", (), {(): (0.5, 0.5)})),
    )
    result = behavioral_nash_small(committed)
    assert not result.families
    assert len(result.outcomes) == 1
    assert result.outcomes[0]["D2"].row(()) == (0.0, 1.0)  # plays the right action


def test_behavioral_total_indifference_family():
    result = behavioral_nash_small(constant_game())
    assert len(result.families) == 1
    (param,) = result.families[0].params
    assert (param.low, param.high) == (0.0, 1.0)


def _indifferent_pair(seen1, seen2):
    """Two agents with constant utilities; D1 reads ``seen1`` fair coins and
    D2 reads ``seen2`` others, so every mixed slot is a free parameter."""
    coins = [f"C{i}" for i in range(seen1 + seen2)]
    variables = [Variable(c, "chance", ("x", "y")) for c in coins] + [
        Variable("D1", "decision", ("a", "b"), 1),
        Variable("D2", "decision", ("a", "b"), 2),
        Variable("U1", "utility", (1.0,), 1),
        Variable("U2", "utility", (1.0,), 2),
    ]
    parents = {c: () for c in coins}
    parents.update({
        "D1": tuple(coins[:seen1]), "D2": tuple(coins[seen1:]),
        "U1": (), "U2": (),
    })
    cpds = {c: TabularCPD(c, (), {(): (0.5, 0.5)}) for c in coins}
    cpds.update({u: TabularCPD(u, (), {(): (1.0,)}) for u in ("U1", "U2")})
    return CausalGame(2, tuple(variables), parents, cpds)


def test_family_corners_verified_in_bounded_memory():
    """4 and 2 contexts: 3^6 patterns, 4^6 = 4 096 family corners.  Checked
    all at once the kernel would hold two (16 + 4 096) x 4 096 tensors
    (135 MB each); a chunk at a time it holds kilobytes."""
    game = _indifferent_pair(2, 1)
    tracemalloc.start()
    result = behavioral_nash_small(game)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert (len(result.outcomes), len(result.families)) == (2**6, 3**6 - 2**6)
    assert peak < 32 * 2**20


def test_many_family_corners_verified_a_chunk_at_a_time(monkeypatch):
    """4 contexts per decision: 3^8 patterns and 4^8 = 65 536 family
    corners, which at once would need a 34 GB tensor per agent.  No array
    the kernel starts from exceeds one chunk against the pure rules."""
    zeros = np.zeros

    def bounded(shape, *args, **kwargs):
        assert np.prod(shape) <= (16 + STABLE_CHUNK) * STABLE_CHUNK
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", bounded)
    result = behavioral_nash_small(_indifferent_pair(2, 2))
    monkeypatch.undo()
    assert (len(result.outcomes), len(result.families)) == (2**8, 3**8 - 2**8)
    for fam in result.families[:50]:
        assert all(p.low == 0.0 and p.high == 1.0 for p in fam.params)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.one_of(
    st.tuples(st.integers(0, 10**6), st.booleans()).map(
        lambda t: random_type_game(random.Random(t[0]), zero_type=t[1])
    ),
    # four coins take the exact oracle about 40 s
    st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(
        lambda k: sum(k) < 4
    ).map(lambda k: _indifferent_pair(*k)),
))
def test_support_enumeration_matches_exact_oracle_property(game):
    """Seeded type games, with or without a type of probability 0, and
    constant-utility pairs: the same points, families and bounds as exact
    support enumeration within 1e-9, or the same refusal."""
    _assert_matches_oracle(game)


def test_family_bounds_clipped_into_unit_interval():
    """A limit just past 1 or just below 0, or a low just above its high,
    within ``eps``: the bounds stay in [0, 1] with low <= high.  Past
    ``eps`` the interval is empty."""
    cases = [
        ([[1.0]], [-(1 + 1e-8)], [1.0], [1.0]),
        ([[-1.0]], [-5e-8], [0.0], [0.0]),
        ([[1.0], [-1.0]], [-(0.5 + 1e-8), 0.5], [0.5], [0.5]),
        ([[1.0], [0.0]], [-0.25, -7.0], [0.25], [1.0]),  # a row without a coefficient
    ]
    for coef, const, low, high in cases:
        got_low, got_high, fits = _bounds(np.array(coef), np.array(const), EQ_EPS)
        assert fits and (got_low.tolist(), got_high.tolist()) == (low, high)
    *_, fits = _bounds(np.array([[1.0]]), np.array([-(1 + 1e-6)]), EQ_EPS)
    assert not fits


def test_violated_inequality_ends_a_pattern_before_coupling():
    """Where D1 plays g everywhere, its inequality at h is violated before
    the one at l couples D2's two free probabilities (D2 is indifferent
    after g, and ng is unreached): that pattern is dropped, so the refusal
    comes from a later pattern whose system is coupled.  The exact oracle
    ends the pattern at the same inequality and refuses the same way."""
    dom = (0.0, 1.0, 2.0, 3.0)
    u1 = {
        ("h", "g"): (0, 0), ("h", "ng"): (1, 1),
        ("l", "g"): (2, 0), ("l", "ng"): (0, 3),
    }
    u2 = {(t, d1): (0, 0) if d1 == "g" else (1, 0) for t, d1 in u1}
    variables = (
        Variable("T", "chance", ("h", "l")),
        Variable("D1", "decision", ("g", "ng"), 1),
        Variable("D2", "decision", ("j", "nj"), 2),
        Variable("U1", "utility", dom, 1),
        Variable("U2", "utility", dom, 2),
    )
    reads = ("T", "D1", "D2")
    parents = {"T": (), "D1": ("T",), "D2": ("D1",), "U1": reads, "U2": reads}
    cpds = {"T": TabularCPD("T", (), {(): (0.5, 0.5)})}
    for u, table in (("U1", u1), ("U2", u2)):
        cpds[u] = TabularCPD(u, reads, {
            (t, d1, d2): tuple(float(x == v) for x in dom)
            for (t, d1), row in table.items() for d2, v in zip(("j", "nj"), row)
        })
    game = CausalGame(2, variables, parents, cpds)
    with pytest.raises(SolverError, match="coupled parametric equilibrium family"):
        behavioral_nash_small(game)
    assert _assert_matches_oracle(game)


def test_behavioral_size_guard():
    variables = (
        Variable("D1", "decision", ("a", "b", "c"), 1),
        Variable("U1", "utility", (0.0,), 1),
    )
    parents = {"D1": (), "U1": ()}
    cpds = {"U1": TabularCPD("U1", (), {(): (1.0,)})}
    game = CausalGame(1, variables, parents, cpds)
    with pytest.raises(SolverError, match="unsupported size"):
        behavioral_nash_small(game)


def _commitment_value(game, rule):
    """The leader's value of committing to ``rule``, rebuilt from the
    primitives: the committed game, the one follower's best responses to
    it, and the leader-preferred one among them."""
    leader = game.agent_of(rule.variable)
    committed = apply_primitive(game, FixMechanism(rule_node(rule.variable), rule))
    followers = {committed.agent_of(d) for d in committed.free_decisions()}
    if not followers:
        return PolicyProfile({}), expected_utility(committed, PolicyProfile({}), leader)
    [follower] = followers
    responses = best_responses(committed, follower, PolicyProfile({}))
    values = [expected_utility(committed, r, leader) for r in responses]
    best = values.index(max(values))
    return responses[best], values[best]


def test_commitment_values(stackelberg):
    half = TabularCPD("D1", (), {(): (0.5, 0.5)})
    response, value = _commitment_value(stackelberg, half)
    assert value == pytest.approx(3.5, abs=1e-9)
    assert response["D2"].row(()) == (0.0, 1.0)
    _, pure_b = _commitment_value(stackelberg, stackelberg.delta_rule("D1", "B"))
    assert pure_b == pytest.approx(3.0, abs=1e-9)


def test_optimal_commitment_exact(stackelberg):
    rule, value = optimal_commitment(stackelberg, 1)
    assert rule.row(())[0] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert value == pytest.approx(11.0 / 3.0, abs=1e-9)


def test_optimal_commitment_grid_flat_leader_takes_lowest_p():
    # seed 36 gives a game in which the leader's value does not depend on
    # the commitment; its affine form still moves in the last digits, which
    # the exact solver ties within COMMIT_EPS at the lowest p of the grid
    game = random_game(random.Random(36))
    assert game.n_agents == 2 and game.parents_of("D1") == ()
    grid = [i / 20 for i in range(21)]
    values = [
        _commitment_value(game, TabularCPD("D1", (), {(): (p, 1.0 - p)}))[1]
        for p in grid
    ]
    best = max(values)
    assert best - min(values) <= 1e-15
    rule, value = optimal_commitment(game, 1)
    assert rule.row(())[0] == 0.0
    assert value == pytest.approx(best, abs=COMMIT_EPS)


def test_optimal_commitment_constant_leader():
    variables = (
        Variable("D1", "decision", ("a", "b"), 1),
        Variable("D2", "decision", ("x", "y"), 2),
        Variable("U1", "utility", (2.0,), 1),
        Variable("U2", "utility", (0.0, 1.0), 2),
    )
    parents = {"D1": (), "D2": (), "U1": (), "U2": ("D2",)}
    cpds = {
        "U1": TabularCPD("U1", (), {(): (1.0,)}),
        "U2": TabularCPD(
            "U2", ("D2",), {("x",): (1.0, 0.0), ("y",): (0.0, 1.0)}
        ),
    }
    game = CausalGame(2, variables, parents, cpds)
    rule, value = optimal_commitment(game, 1)
    assert value == pytest.approx(2.0, abs=1e-12)


def test_follower_less_commitment_ties_within_commit_eps():
    """Without a follower, leader values within ``COMMIT_EPS`` are ties, as
    they are with one: the lower probability wins, here p = 0."""
    variables = (
        Variable("D1", "decision", ("a", "b"), 1),
        Variable("U1", "utility", (1.0 + 4e-16, 1.0), 1),
    )
    parents = {"D1": (), "U1": ("D1",)}
    cpds = {"U1": TabularCPD("U1", ("D1",), {("a",): (1.0, 0.0), ("b",): (0.0, 1.0)})}
    game = CausalGame(1, variables, parents, cpds)
    assert expected_utility(game, PolicyProfile({"D1": game.delta_rule("D1", "a")}), 1) > 1.0
    rule, value = optimal_commitment(game, 1)
    assert rule.row(())[0] == 0.0 and math.copysign(1.0, rule.row(())[0]) > 0
    assert value == 1.0


def test_exact_commitment_matches_breakpoint_oracle():
    """On every seeded game commitment applies to, the exact optimum is the
    breakpoint oracle's, the returned probability earns it and reads as a
    non-negative zero where it is 0, and no probability on a grid of 101
    points earns more by the oracle's reckoning."""
    checked = 0
    for gen, seed in itertools.product((random_game, random_multi_decision_game), range(170)):
        game = gen(random.Random(seed))
        for leader in range(1, game.n_agents + 1):
            try:
                rule, value = optimal_commitment(game, leader)
            except SolverError:
                continue
            checked += 1
            best, value_at = breakpoint_commitment(game, leader)
            p = rule.row(())[0]
            assert 0.0 <= p <= 1.0 and math.copysign(1.0, p) > 0, (gen, seed, p)
            assert value == pytest.approx(best, abs=1e-9), (gen, seed)
            assert value_at(p) == pytest.approx(value, abs=1e-9), (gen, seed)
            assert max(value_at(i / 100) for i in range(101)) <= value + 1e-9, (gen, seed)
    assert checked >= 150


def test_commitment_refuses_a_second_follower_agent():
    variables = (
        Variable("D1", "decision", ("a", "b"), 1),
        Variable("D2", "decision", ("a", "b"), 2),
        Variable("D3", "decision", ("a", "b"), 3),
        *(Variable(f"U{i}", "utility", (0.0,), i) for i in (1, 2, 3)),
    )
    parents = {"D1": (), "D2": (), "D3": (), "U1": (), "U2": (), "U3": ()}
    cpds = {f"U{i}": TabularCPD(f"U{i}", (), {(): (1.0,)}) for i in (1, 2, 3)}
    game = CausalGame(3, variables, parents, cpds)
    with pytest.raises(SolverError, match="at most one follower agent"):
        optimal_commitment(game, 1)
    with pytest.raises(ValidationError, match="unknown agent index 4"):
        optimal_commitment(game, 4)


def test_optimal_commitment_rejects_multiple_decisions(job_market):
    variables = (
        Variable("D1", "decision", ("a", "b"), 1),
        Variable("D2", "decision", ("a", "b"), 1),
        Variable("U1", "utility", (0.0,), 1),
    )
    parents = {"D1": (), "D2": (), "U1": ()}
    cpds = {"U1": TabularCPD("U1", (), {(): (1.0,)})}
    game = CausalGame(1, variables, parents, cpds)
    with pytest.raises(SolverError, match="exactly one"):
        optimal_commitment(game, 1)
