"""Shared test utilities: random game generators and independent oracles.

The oracles here deliberately avoid the library's own computation paths:
joints are rebuilt by direct nested loops over instantiations, expected
utilities are summed exactly over every instantiation, conditional
independence is checked numerically on the joint table, d-separation by
``networkx`` on graphs rebuilt from a game's definition, and hitting sets
are verified by exhaustive subset scans.  The ``loop_*`` functions keep
earlier forms of library code as references for the forms that replaced
them, ``unplanned_contract`` is the contraction kernel as it ran before
its plans were kept, ``reference_decompose`` is ``decompose`` as it ran
with two stage builders, ``reference_relevant`` is strategic relevance as
it ran with a reachable-set search for each relevance test, and
``reference_pure_rules`` enumerates pure rules apart from the solvers'
one-hot stacks.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import networkx as nx
import numpy as np

from causalgames import graphs, kernel, model
from causalgames.equilibrium import RationalOutcomeSet
from causalgames.errors import InterventionError, SolverError
from causalgames.graphs import (
    BACKWARD,
    FORWARD,
    Path,
    build_mechanised_graph,
    param_node,
    reachability_paths,
    rule_node,
)
from causalgames.interventions import (
    AddVariable,
    CompoundIntervention,
    Decomposition,
    FixObject,
    RemoveVariable,
    Stage,
    apply_all,
    as_compound,
)
from causalgames.model import (
    COMMIT_EPS,
    DECISION,
    PROB_EPS,
    CausalGame,
    JointDistribution,
    PolicyProfile,
    TabularCPD,
    Variable,
    induced_joint,
)


def mechanism_node(game: CausalGame, variable: str) -> str:
    """The mechanism node of ``variable``, named from its kind."""
    if game.kind(variable) == DECISION:
        return rule_node(variable)
    return param_node(variable)


def object_view(game: CausalGame) -> nx.DiGraph:
    """The game's object graph as an ``nx.DiGraph``, read off its parent
    tuples: the variables in declaration order."""
    graph = nx.DiGraph()
    graph.add_nodes_from(game.names())
    graph.add_edges_from((p, v) for v in game.names() for p in game.parents_of(v))
    return graph


def independent_view(game: CausalGame) -> nx.DiGraph:
    """The independent mechanised graph as an ``nx.DiGraph``: the object
    graph, then each variable's mechanism node with its edge into the
    variable, none into a decision the game gives a table."""
    graph = object_view(game)
    for v in game.names():
        graph.add_node(mechanism_node(game, v))
    graph.add_edges_from(
        (mechanism_node(game, v), v) for v in game.names()
        if not (game.kind(v) == DECISION and v in game.cpds)
    )
    return graph


def cpds_equal(a: TabularCPD, b: TabularCPD) -> bool:
    """Same variable, parent order and contexts, rows within ``PROB_EPS``."""
    if (a.variable, a.parents, set(a.table)) != (b.variable, b.parents, set(b.table)):
        return False
    return all(
        len(row) == len(b.table[ctx])
        and all(abs(x - y) <= PROB_EPS for x, y in zip(row, b.table[ctx]))
        for ctx, row in a.table.items()
    )


def games_equal(a: CausalGame, b: CausalGame) -> bool:
    """Structural equality: same variables, edges, and tables within PROB_EPS."""
    if (a.n_agents, a.variables, a.parents) != (b.n_agents, b.variables, b.parents):
        return False
    return all(
        set(ma) == set(mb) and all(cpds_equal(ma[k], mb[k]) for k in ma)
        for ma, mb in ((a.cpds, b.cpds), (a.rule_fixes, b.rule_fixes))
    )


def decompose_fix_object(game: CausalGame, p: FixObject) -> list:
    """An object-level fix rewritten as remove-then-add: the constructive
    witness that a fix equals a removal followed by an addition.

    The add step re-attaches the original children with their original
    tables (including parent order), so the composition equals the direct
    fix exactly, structurally and in induced joints.
    """
    t = p.target
    if not game.has_variable(t):
        raise InterventionError(f"unknown variable {t!r}")
    children = game.children_of(t)
    tables = {c: game.cpds[c] for c in children if c in game.cpds}
    placeholder = {
        c: TabularCPD.uniform(
            c, game.domain(c), [q for q in game.parents_of(c) if q != t], game.domain
        )
        for c in tables
    }
    add = AddVariable(
        game.variable(t), p.parents, children, cpd=p.cpd, child_cpds=tables,
        child_parents={c: game.parents_of(c) for c in children if c not in tables},
        rule_fix=p.rule_fix, index=game.names().index(t),
    )
    return [RemoveVariable(t, child_cpds=placeholder), add]


def reference_pure_rules(game: CausalGame, decision: str) -> list[TabularCPD]:
    """Every pure rule of ``decision``, one ``TabularCPD`` each, by
    ``itertools.product`` over the contexts' actions: the order
    ``enumerate_pure_rules`` promises (first context most significant)."""
    contexts = game.contexts(decision)
    domain = game.domain(decision)
    rules = []
    for actions in itertools.product(domain, repeat=len(contexts)):
        table = {}
        for ctx, a in zip(contexts, actions):
            table[ctx] = tuple(1.0 if v == a else 0.0 for v in domain)
        rules.append(TabularCPD(decision, game.parents_of(decision), table))
    return rules


def random_distribution(rng, n):
    cuts = sorted(rng.random() for _ in range(n - 1))
    row = []
    prev = 0.0
    for c in cuts:
        row.append(c - prev)
        prev = c
    row.append(1.0 - prev)
    return tuple(row)


def random_cbn(rng: random.Random, max_vars=5, max_parents=2) -> CausalGame:
    """A random chance-only game (a causal Bayesian network)."""
    n = rng.randint(3, max_vars)
    names = [f"X{i}" for i in range(n)]
    variables = []
    parents = {}
    cpds = {}
    domains = {}
    for i, name in enumerate(names):
        dom = tuple(f"v{k}" for k in range(rng.randint(2, 3)))
        domains[name] = dom
        pool = names[:i]
        k = rng.randint(0, min(max_parents, len(pool)))
        ps = tuple(sorted(rng.sample(pool, k)))
        variables.append(Variable(name, "chance", dom))
        parents[name] = ps
        table = {}
        for ctx in itertools.product(*[domains[p] for p in ps]):
            table[ctx] = random_distribution(rng, len(dom))
        cpds[name] = TabularCPD(name, ps, table)
    return CausalGame(1, tuple(variables), parents, cpds)


def random_game(rng: random.Random, max_chance=3) -> CausalGame:
    """A random small causal game with 1-2 agents, one decision each."""
    n_agents = rng.randint(1, 2)
    n_chance = rng.randint(0, max_chance)
    names = [f"X{i}" for i in range(n_chance)]
    variables = []
    parents = {}
    cpds = {}
    domains = {}
    for i, name in enumerate(names):
        dom = tuple(f"v{k}" for k in range(rng.randint(2, 3)))
        domains[name] = dom
        pool = names[:i]
        k = rng.randint(0, min(2, len(pool)))
        ps = tuple(sorted(rng.sample(pool, k)))
        variables.append(Variable(name, "chance", dom))
        parents[name] = ps
        table = {}
        for ctx in itertools.product(*[domains[p] for p in ps]):
            table[ctx] = random_distribution(rng, len(dom))
        cpds[name] = TabularCPD(name, ps, table)
    upstream = list(names)
    for agent in range(1, n_agents + 1):
        dname = f"D{agent}"
        dom = ("a", "b")
        domains[dname] = dom
        k = rng.randint(0, min(2, len(upstream)))
        ps = tuple(sorted(rng.sample(upstream, k)))
        variables.append(Variable(dname, "decision", dom, agent))
        parents[dname] = ps
        upstream.append(dname)
    for agent in range(1, n_agents + 1):
        uname = f"U{agent}"
        udom = tuple(sorted(rng.sample(range(-5, 6), rng.randint(2, 3))))
        domains[uname] = udom
        k = rng.randint(1, min(2, len(upstream)))
        ps = tuple(sorted(rng.sample(upstream, k)))
        variables.append(Variable(uname, "utility", udom, agent))
        parents[uname] = ps
        table = {}
        for ctx in itertools.product(*[domains[p] for p in ps]):
            table[ctx] = random_distribution(rng, len(udom))
        cpds[uname] = TabularCPD(uname, ps, table)
    return CausalGame(n_agents, tuple(variables), parents, cpds)


def chain_to_utility_game(n: int) -> CausalGame:
    """Chance chain ``X0 -> ... -> X{n-1} -> U <- D`` for one agent."""
    names = [f"X{i}" for i in range(n)]
    copy_row = {("a",): (1.0, 0.0), ("b",): (0.0, 1.0)}
    cpds = {
        x: TabularCPD(x, tuple(names[max(i - 1, 0):i]), copy_row if i else {(): (0.5, 0.5)})
        for i, x in enumerate(names)
    }
    last = names[-1]
    cpds["U"] = TabularCPD("U", (last, "D"), {
        (x, d): (0.0, 1.0) if x == d else (1.0, 0.0)
        for x in ("a", "b") for d in ("a", "b")
    })
    return CausalGame(
        1,
        tuple(Variable(x, "chance", ("a", "b")) for x in names)
        + (Variable("D", "decision", ("a", "b"), 1), Variable("U", "utility", (0, 1), 1)),
        {**{x: tuple(names[max(i - 1, 0):i]) for i, x in enumerate(names)},
         "D": (), "U": (last, "D")},
        cpds,
    )


def fan_game(n: int, decision: bool = False) -> CausalGame:
    """A chance ``X`` with ``n`` one-value children ``Y0 .. Y{n-1}``, all
    parents of one utility ``U``; with ``decision``, a binary ``D`` that
    ``U`` also reads, so that the game has something to solve.  ``U``'s
    table has ``n + 1`` axes (one more with ``D``), and summing out ``X``
    multiplies ``n + 1`` factors over ``n + 1`` labels."""
    ys = [f"Y{i}" for i in range(n)]
    reads = tuple(ys) + (("D",) if decision else ())
    variables = [Variable("X", "chance", ("a", "b"))]
    variables += [Variable(y, "chance", ("y",)) for y in ys]
    variables += [Variable("D", "decision", ("a", "b"), 1)] if decision else []
    variables.append(Variable("U", "utility", (0, 1), 1))
    parents = {"X": (), **{y: ("X",) for y in ys}, "U": reads}
    if decision:
        parents["D"] = ()
    cpds = {
        "X": TabularCPD("X", (), {(): (0.5, 0.5)}),
        **{y: TabularCPD(y, ("X",), {("a",): (1.0,), ("b",): (1.0,)}) for y in ys},
        "U": TabularCPD("U", reads, {
            ("y",) * n + d: (0.0, 1.0) if d == ("b",) else (1.0, 0.0)
            for d in ((("a",), ("b",)) if decision else ((),))
        }),
    }
    return CausalGame(1, tuple(variables), parents, cpds)


def dense_to_utility_game(n: int) -> CausalGame:
    """Chance nodes ``X0 .. X{n-1}``, each a parent of every later one, then
    ``X{n-1} -> U <- D`` for one agent: ``THETA_X0`` reaches ``PI_D`` along
    2 ** (n - 2) witness paths, one per directed path from ``X0`` to
    ``X{n-1}``."""
    names = [f"X{i}" for i in range(n)]
    cpds = {
        x: TabularCPD(x, tuple(names[:i]), {
            ctx: (0.5, 0.5) for ctx in itertools.product(("a", "b"), repeat=i)
        })
        for i, x in enumerate(names)
    }
    cpds["U"] = TabularCPD("U", (names[-1], "D"), {
        (x, d): (0.0, 1.0) if x == d else (1.0, 0.0)
        for x in ("a", "b") for d in ("a", "b")
    })
    return CausalGame(
        1,
        tuple(Variable(x, "chance", ("a", "b")) for x in names)
        + (Variable("D", "decision", ("a", "b"), 1), Variable("U", "utility", (0, 1), 1)),
        {**{x: tuple(names[:i]) for i, x in enumerate(names)},
         "D": (), "U": (names[-1], "D")},
        cpds,
    )


def random_type_game(rng: random.Random, zero_type=False) -> CausalGame:
    """A two-agent signalling-style game with a binary type ``T``.

    ``D1`` observes the type; ``D2`` observes the type or ``D1``.  Both
    utilities depend on the type and both decisions, with random rows over
    small integer domains.  With ``zero_type`` the type ``l`` has
    probability 0, so every context of ``D1`` that shows it is unreached.
    """
    prior = (1.0, 0.0) if zero_type else random_distribution(rng, 2)
    d2_parent = rng.choice(("T", "D1"))
    domains = {"T": ("h", "l"), "D1": ("g", "ng"), "D2": ("j", "nj")}
    variables = [
        Variable("T", "chance", domains["T"]),
        Variable("D1", "decision", domains["D1"], 1),
        Variable("D2", "decision", domains["D2"], 2),
    ]
    parents = {"T": (), "D1": ("T",), "D2": (d2_parent,)}
    cpds = {"T": TabularCPD("T", (), {(): prior})}
    for agent in (1, 2):
        uname = f"U{agent}"
        udom = tuple(sorted(rng.sample(range(-3, 6), 3)))
        ps = ("T", "D1", "D2")
        table = {}
        for ctx in itertools.product(*[domains[p] for p in ps]):
            if rng.random() < 0.5:
                row = [0.0] * len(udom)
                row[rng.randrange(len(udom))] = 1.0
                table[ctx] = tuple(row)
            else:
                table[ctx] = random_distribution(rng, len(udom))
        variables.append(Variable(uname, "utility", udom, agent))
        parents[uname] = ps
        cpds[uname] = TabularCPD(uname, ps, table)
    return CausalGame(2, tuple(variables), parents, cpds)


def random_multi_decision_game(rng: random.Random) -> CausalGame:
    """A two-agent game in which agent 1 owns two free decisions.

    Agent 2 owns one or two.  A fair coin ``X`` may be observed; each
    decision has at most one binary parent, so a decision has 2 or 4 pure
    rules.  Utilities are deterministic small integers, so ties between
    profiles are common.
    """
    owners = [1, 1, 2] + ([2] if rng.random() < 0.5 else [])
    variables = [Variable("X", "chance", (0, 1))]
    parents = {"X": ()}
    cpds = {"X": TabularCPD("X", (), {(): (0.5, 0.5)})}
    domains = {"X": (0, 1)}
    upstream = ["X"]
    for k, agent in enumerate(owners):
        name = f"D{k}"
        domains[name] = ("a", "b")
        parents[name] = tuple(rng.sample(upstream, rng.randint(0, 1)))
        variables.append(Variable(name, "decision", domains[name], agent))
        upstream.append(name)
    udom = (0, 1, 2, 3)
    for agent in (1, 2):
        name = f"U{agent}"
        ps = tuple(sorted(rng.sample(upstream, 2)))
        table = {}
        for ctx in itertools.product(*[domains[p] for p in ps]):
            row = [0.0] * len(udom)
            row[rng.randrange(len(udom))] = 1.0
            table[ctx] = tuple(row)
        variables.append(Variable(name, "utility", udom, agent))
        parents[name] = ps
        cpds[name] = TabularCPD(name, ps, table)
    return CausalGame(2, tuple(variables), parents, cpds)


def random_rich_game(rng: random.Random) -> CausalGame:
    """A valid three-agent game mixing every kind of factor, declared shuffled.

    Chance variables with 2-3 values; free decisions ``D1`` (agent 1) and
    ``D2`` (agent 2); ``D3`` carries an imposed rule and ``D4`` is
    object-fixed.  About a third of all table rows are one-hot, so some
    instantiations have probability 0.
    Agent 1 has two utilities, agent 2 one and agent 3 none.  The variable
    order is shuffled, so it is usually not topological.
    """

    def row(n):
        if rng.random() < 1 / 3:
            hot = rng.randrange(n)
            return tuple(float(k == hot) for k in range(n))
        return random_distribution(rng, n)

    def table(name):
        return {
            ctx: row(len(domains[name]))
            for ctx in itertools.product(*[domains[p] for p in parents[name]])
        }

    domains, parents, upstream = {}, {}, []
    variables, cpds = [], {}
    for i in range(rng.randint(2, 4)):
        name = f"X{i}"
        domains[name] = tuple(f"v{k}" for k in range(rng.randint(2, 3)))
        parents[name] = tuple(rng.sample(upstream, rng.randint(0, min(2, len(upstream)))))
        variables.append(Variable(name, "chance", domains[name]))
        cpds[name] = TabularCPD(name, parents[name], table(name))
        upstream.append(name)
    for name, agent in (("D1", 1), ("D2", 2), ("D3", 1), ("D4", 2)):
        domains[name] = ("a", "b")
        parents[name] = tuple(rng.sample(upstream, rng.randint(0, min(2, len(upstream)))))
        variables.append(Variable(name, "decision", domains[name], agent))
        upstream.append(name)
    rule_fixes = {"D3": TabularCPD("D3", parents["D3"], table("D3"))}
    cpds["D4"] = TabularCPD("D4", parents["D4"], table("D4"))
    for name, agent in (("U1a", 1), ("U1b", 1), ("U2", 2)):
        domains[name] = tuple(sorted(rng.sample(range(-5, 6), rng.randint(2, 3))))
        parents[name] = tuple(rng.sample(upstream, rng.randint(1, 3)))
        variables.append(Variable(name, "utility", domains[name], agent))
        cpds[name] = TabularCPD(name, parents[name], table(name))
    rng.shuffle(variables)
    return CausalGame(3, tuple(variables), parents, cpds, rule_fixes)


# every generator above as a function of a seeded ``random.Random``;
# ``random_cbn`` and ``fan_game`` without its decision build no decision
GAME_GENERATORS = (
    random_cbn,
    random_game,
    random_type_game,
    random_multi_decision_game,
    random_rich_game,
    lambda rng: chain_to_utility_game(rng.randint(1, 6)),
    lambda rng: fan_game(rng.randint(1, 4), rng.random() < 0.5),
    lambda rng: dense_to_utility_game(rng.randint(2, 6)),
)


def random_full_profile(rng: random.Random, game: CausalGame) -> PolicyProfile:
    rules = {}
    for d in game.free_decisions():
        table = {}
        for ctx in game.contexts(d):
            table[tuple(ctx)] = random_distribution(rng, len(game.domain(d)))
        rules[d] = TabularCPD(d, game.parents_of(d), table)
    return PolicyProfile(rules)


# -- independent oracles -------------------------------------------------------


def brute_force_joint(game: CausalGame, profile: PolicyProfile) -> dict:
    """Joint table via direct nested loops, independent of induced_joint."""
    names = list(game.names())
    out = {}

    def recurse(i, assignment, prob):
        if i == len(names):
            if prob > 0.0:
                out[tuple(assignment[n] for n in names)] = (
                    out.get(tuple(assignment[n] for n in names), 0.0) + prob
                )
            return
        name = names[i]
        if name in game.cpds:
            cpd = game.cpds[name]
        elif name in game.rule_fixes:
            cpd = game.rule_fixes[name]
        else:
            cpd = profile[name]
        ctx = tuple(assignment[p] for p in game.parents_of(name))
        row = cpd.row(ctx)
        for value, p in zip(game.domain(name), row):
            assignment[name] = value
            recurse(i + 1, assignment, prob * p)
            del assignment[name]

    recurse(0, {}, 1.0)
    return out


def expected_utility_from_joint(
    game: CausalGame, joint: JointDistribution, agent: int
) -> float:
    """An agent's expected utility read off a full joint table, row by row."""
    at = [joint.variables.index(u) for u in game.utilities_of(agent)]
    return sum(p * sum(inst[i] for i in at) for inst, p in joint.table.items())


def fraction_expected_utility(
    game: CausalGame, profile: PolicyProfile, agent: int
) -> Fraction:
    """Exact expected utility: every instantiation, in ``Fraction`` arithmetic.

    Each float probability converts to the rational it denotes, so the only
    rounding is in the caller's comparison.
    """
    names = game.names()
    domains = [game.domain(n) for n in names]
    at = {n: i for i, n in enumerate(names)}
    utilities = [at[u] for u in game.utilities_of(agent)]
    tables = [
        (
            [at[p] for p in game.parents_of(n)],
            (game.factor_cpd(n) or profile[n]).table,
        )
        for n in names
    ]
    total = Fraction(0)
    for inst in itertools.product(*[range(len(d)) for d in domains]):
        weight = Fraction(1)
        for i, (pidx, tab) in enumerate(tables):
            ctx = tuple(domains[j][inst[j]] for j in pidx)
            weight *= Fraction(tab[ctx][inst[i]])
            if not weight:
                break
        if weight:
            total += weight * sum(Fraction(domains[i][inst[i]]) for i in utilities)
    return total


def loop_pure_nash(game: CausalGame, eps: float = 1e-7) -> RationalOutcomeSet:
    """Tabulate-every-joint form of ``pure_nash``, its reference.

    One ``induced_joint`` per pure profile, walked per agent; each agent's
    best utility per setting of the other agents' rule indices; a profile
    is kept unless some agent's best exceeds its utility by more than
    ``eps``.
    """
    decisions = game.free_decisions()
    rule_lists = [reference_pure_rules(game, d) for d in decisions]
    agents = [a for a in range(1, game.n_agents + 1) if game.free_decisions_of(a)]
    others = {
        a: [i for i, d in enumerate(decisions) if game.agent_of(d) != a]
        for a in agents
    }
    tabulated = []
    best = {a: {} for a in agents}
    for combo in itertools.product(*[range(len(r)) for r in rule_lists]):
        profile = PolicyProfile(
            {d: rule_lists[i][combo[i]] for i, d in enumerate(decisions)}
        )
        joint = induced_joint(game, profile)
        eu = {a: expected_utility_from_joint(game, joint, a) for a in agents}
        keys = {a: tuple(combo[i] for i in others[a]) for a in agents}
        for a in agents:
            best[a][keys[a]] = max(best[a].get(keys[a], eu[a]), eu[a])
        tabulated.append((profile, eu, keys))
    return RationalOutcomeSet(tuple(
        profile
        for profile, eu, keys in tabulated
        if not any(best[a][keys[a]] > eu[a] + eps for a in agents)
    ))


def unplanned_contract(factors, keep) -> np.ndarray:
    """``kernel._contract`` worked out on every call, the reference for its
    kept plans: one einsum when the labels span at most
    ``model.DIRECT_SPACE`` entries (read per call) and fit one einsum,
    otherwise greedy min-size elimination, each step chunked past numpy's
    operand cap."""
    size = {}
    for scope, array in factors:
        size.update(zip(scope, array.shape))
    if len(size) > kernel._max_labels() or math.prod(size.values()) > model.DIRECT_SPACE:
        factors = _unplanned_eliminate(factors, keep, size)
    out = _unplanned_einsum(factors, [x for x in keep if x in size])
    return out.reshape([size.get(x, 1) for x in keep])


def _unplanned_einsum(parts, out) -> np.ndarray:
    most = kernel._max_axes() - 1
    while len(parts) > most:
        head, parts = parts[:most], parts[most:]
        need = set(out).union(*(scope for scope, _ in parts))
        scope = tuple(dict.fromkeys(x for s, _ in head for x in s if x in need))
        parts = [(scope, _unplanned_einsum(head, scope)), *parts]
    ids: dict = {}
    args = []
    for scope, array in parts:
        args += [array, [ids.setdefault(x, len(ids)) for x in scope]]
    if len(ids) > kernel._max_labels():
        raise SolverError(
            f"a contraction step spans {len(ids)} variables; numpy's einsum "
            f"takes at most {kernel._max_labels()}"
        )
    return np.einsum(*args, [ids[x] for x in out])


def _unplanned_eliminate(factors, keep, size) -> list[tuple]:
    live = dict(enumerate(factors))
    holders: dict = {}  # label -> ids of the live factors carrying it, ascending
    for i, (scope, _) in live.items():
        for x in scope:
            holders.setdefault(x, []).append(i)
    rank = {x: k for k, x in enumerate(holders)}  # ties go to the first seen

    def merged_scope(label):
        return tuple(dict.fromkeys(
            x for i in holders[label] for x in live[i][0] if x != label
        ))

    cost = {x: math.prod(size[y] for y in merged_scope(x))
            for x in holders if x not in keep}
    heap = [(c, rank[x], x) for x, c in cost.items()]
    heapq.heapify(heap)
    new = len(live)
    while heap:
        c, _, label = heapq.heappop(heap)
        if cost.get(label) != c:  # eliminated, or stale
            continue
        del cost[label]
        scope = merged_scope(label)
        ids = holders.pop(label)
        live[new] = scope, _unplanned_einsum([live.pop(i) for i in ids], scope)
        for x in scope:
            holders[x] = [i for i in holders[x] if i not in ids] + [new]
        for x in scope:
            if x in cost:
                cost[x] = math.prod(size[y] for y in merged_scope(x))
                heapq.heappush(heap, (cost[x], rank[x], x))
        new += 1
    return list(live.values())


def numeric_conditional_independence(
    joint: dict, names: list, domains: dict, xs, zs, given, tol=1e-7
) -> bool:
    """Check P(x | y, z) == P(x | y) for all instantiations with P(y, z) > 0.

    The joint table becomes a dense array with one axis per variable, in
    ``names`` order; marginals are sums over axes.
    """
    xs, zs, given = sorted(xs), sorted(zs), sorted(given)
    dense = np.zeros([len(domains[n]) for n in names])
    for inst, p in joint.items():
        dense[tuple(domains[n].index(v) for n, v in zip(names, inst))] += p
    keep = given + zs + xs
    p_yzx = np.moveaxis(
        dense.sum(axis=tuple(i for i, n in enumerate(names) if n not in keep)),
        [sorted(keep, key=names.index).index(n) for n in keep],
        range(len(keep)),
    )
    ny, nz = len(given), len(zs)
    z_axes = tuple(range(ny, ny + nz))
    x_axes = tuple(range(ny + nz, len(keep)))
    p_yz = p_yzx.sum(axis=x_axes, keepdims=True)
    p_y = p_yz.sum(axis=z_axes, keepdims=True)
    p_yx = p_yzx.sum(axis=z_axes, keepdims=True)
    defined = np.broadcast_to((p_y > 0.0) & (p_yz > 0.0), p_yzx.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.abs(p_yzx / p_yz - p_yx / p_y)
    return not np.any(gap[defined] > tol)


def loop_conditional_independence(
    joint: dict, names: list, domains: dict, xs, zs, given, tol=1e-7
) -> bool:
    """Loop form of ``numeric_conditional_independence``, its reference."""
    xs, zs, given = sorted(xs), sorted(zs), sorted(given)

    def marg(assign):
        idx = {names.index(k): v for k, v in assign.items()}
        return sum(
            p
            for inst, p in joint.items()
            if all(inst[i] == v for i, v in idx.items())
        )

    for yvals in itertools.product(*[domains[y] for y in given]):
        y_assign = dict(zip(given, yvals))
        p_y = marg(y_assign)
        if p_y <= 0.0:
            continue
        for zvals in itertools.product(*[domains[z] for z in zs]):
            yz_assign = {**y_assign, **dict(zip(zs, zvals))}
            p_yz = marg(yz_assign)
            if p_yz <= 0.0:
                continue
            for xvals in itertools.product(*[domains[x] for x in xs]):
                x_assign = dict(zip(xs, xvals))
                lhs = marg({**yz_assign, **x_assign}) / p_yz
                rhs = marg({**y_assign, **x_assign}) / p_y
                if abs(lhs - rhs) > tol:
                    return False
    return True


def full_active_paths(graph: nx.DiGraph, xs, zs, given) -> list[Path]:
    """Every simple path from ``xs`` to ``zs``, filtered for activity after
    it is complete: the recursive enumerator ``active_paths`` replaced.

    A path is active when each interior collider is in ``given`` or has a
    descendant there, and no other interior node is in ``given``.
    """
    xs, zs, given = set(xs), set(zs), set(given)
    open_colliders = set(given).union(*(nx.ancestors(graph, g) for g in given))
    endpoints = xs | zs
    found = []

    def is_active(nodes, arrows):
        for i in range(1, len(nodes) - 1):
            w = nodes[i]
            if arrows[i - 1] == FORWARD and arrows[i] == BACKWARD:
                if w not in open_colliders:
                    return False
            elif w in given:
                return False
        return True

    def extend(nodes, arrows, visited):
        here = nodes[-1]
        steps = [(c, FORWARD) for c in graph.successors(here)]
        steps += [(p, BACKWARD) for p in graph.predecessors(here)]
        for nxt, arrow in steps:
            if nxt in visited:
                continue
            new_nodes, new_arrows = nodes + [nxt], arrows + [arrow]
            if nxt in zs:
                if is_active(new_nodes, new_arrows):
                    found.append(Path(new_nodes, new_arrows, given))
            elif nxt not in endpoints:
                extend(new_nodes, new_arrows, visited | {nxt})

    for x in sorted(xs):
        extend([x], [], {x})
    found.sort(key=lambda p: (len(p.nodes), p.nodes, p.arrows))
    return found


def state_reachable(graph, xs, given, severed=frozenset()) -> set:
    """The reachable-set search over ``(node, direction)`` states: the form
    the two-mark search of ``graphs._reachable`` replaced.

    ``BACKWARD`` marks a node entered from a child (or a start node),
    ``FORWARD`` one entered from a parent; colliders open on the ancestral
    closure of ``given`` in the whole graph, and ``severed`` edges are not
    traversed.
    """
    pred = {n: [p for p in graph.pred[n] if (p, n) not in severed] for n in graph}
    succ = {n: [c for c in graph.succ[n] if (n, c) not in severed] for n in graph}
    open_colliders = set(given).union(*(nx.ancestors(graph, g) for g in given))
    stack = [(x, BACKWARD) for x in xs]
    seen = set()
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        node, arrived = state
        if node not in given:
            stack.extend((c, FORWARD) for c in succ[node])
            if arrived == BACKWARD:
                stack.extend((p, BACKWARD) for p in pred[node])
        if arrived == FORWARD and node in open_colliders:
            stack.extend((p, BACKWARD) for p in pred[node])
    return {node for node, _ in seen}


def reference_relevant(game: CausalGame, target: str, severed=frozenset()) -> frozenset:
    """``graphs._relevant`` as it ran with one reachable-set search per
    relevance test, test (b), given nothing, included: the mechanism nodes
    of the variables whose searches climb, except an object-fixed
    decision's and any with a severed edge."""
    climbed = set()
    for t, cond in graphs._relevance_tests(game, target):
        climbed |= graphs._reachable(game, t, cond, severed)[1]
    return frozenset(
        m for m, vs in graphs._mechanisms(game, climbed).items()
        if vs and (m, vs[0]) not in severed
    )


def object_fixes(game: CausalGame, rng: random.Random):
    """One object fix per variable keeping a random subset of its parents,
    and a hard fix of every decision."""
    for x in game.names():
        kept = tuple(p for p in game.parents_of(x) if rng.random() < 0.5)
        if game.kind(x) == DECISION:
            yield FixObject(x, kept, None)
            value = rng.choice(game.domain(x))
            yield FixObject(x, (), TabularCPD.delta(x, value, game.domain(x)))
        else:
            yield FixObject(x, kept, TabularCPD.uniform(x, game.domain(x), kept, game.domain))


def path_criterion_removals(game: CausalGame, fix) -> set:
    """The severed-edge path criterion read off the witness paths themselves
    (the form ``predicted_edge_removals`` replaced): an inter-mechanism edge
    is removed when every one of its reachability paths crosses an edge the
    object fix ``fix`` severs.  Enumerates every path, so it can exceed the
    path budget."""
    severed = {(w, fix.target) for w in game.parents_of(fix.target)}
    severed -= {(w, fix.target) for w in fix.parents}
    if game.kind(fix.target) == DECISION and fix.cpd is not None:
        severed.add((rule_node(fix.target), fix.target))
    return {
        (mech, target)
        for mech, target in build_mechanised_graph(game).inter_mechanism_edges
        if all(
            any(e in severed for e in path.edges())
            for path in reachability_paths(game, mech, target)
        )
    }


def loop_action_values(game: CausalGame, sigma: dict, unknown_of: dict) -> dict:
    """Instantiation-loop reference for support enumeration's action values.

    For every decision slot ``(decision, context)`` reached under the support
    pattern ``sigma`` (slot -> tuple of action indices), the two affine forms
    d E[U^agent] / d pi(action | slot), each as ``(const, {unknown: coeff})``.
    A slot is reached when some instantiation consistent with it keeps every
    pinned factor positive and every other free decision inside its support.
    An action's form sums, over the instantiations with the decision taking
    that action in the slot, the product of every other factor times the
    owner's utility total; the other free decision's factor stays symbolic
    as ``unknown_of[slot]`` (first action) or its complement (second) when
    its support has both actions.  Coefficients at or below 1e-12 are
    dropped.
    """
    names = game.names()
    domains = [game.domain(n) for n in names]
    pidx = {n: tuple(names.index(p) for p in game.parents_of(n)) for n in names}

    def reached(decision, ctx):
        for inst in itertools.product(*domains):
            if tuple(inst[j] for j in pidx[decision]) != ctx:
                continue
            ok = True
            for i, n in enumerate(names):
                local_ctx = tuple(inst[j] for j in pidx[n])
                cpd = game.factor_cpd(n)
                if cpd is not None:
                    if cpd.row(local_ctx)[domains[i].index(inst[i])] == 0.0:
                        ok = False
                        break
                elif n != decision:
                    if domains[i].index(inst[i]) not in sigma[(n, local_ctx)]:
                        ok = False
                        break
            if ok:
                return True
        return False

    def action_value(decision, ctx, action):
        util_at = [names.index(u) for u in game.utilities_of(game.agent_of(decision))]
        d_i = names.index(decision)
        const, coeffs = 0.0, {}
        for inst in itertools.product(*domains):
            if inst[d_i] != action or tuple(inst[j] for j in pidx[decision]) != ctx:
                continue
            weight, unknown, complement, dead = 1.0, None, False, False
            for i, n in enumerate(names):
                if n == decision:
                    continue
                local_ctx = tuple(inst[j] for j in pidx[n])
                cpd = game.factor_cpd(n)
                if cpd is not None:
                    p = cpd.row(local_ctx)[domains[i].index(inst[i])]
                    if p == 0.0:
                        dead = True
                        break
                    weight *= p
                    continue
                support = sigma[(n, local_ctx)]
                a_i = domains[i].index(inst[i])
                if len(support) == 1:
                    if a_i != support[0]:
                        dead = True
                        break
                    continue
                unknown = unknown_of[(n, local_ctx)]
                complement = a_i == 1
            if dead:
                continue
            term = weight * sum(inst[j] for j in util_at)
            if unknown is None or complement:
                const += term
            if unknown is not None:
                sign = -1.0 if complement else 1.0
                coeffs[unknown] = coeffs.get(unknown, 0.0) + sign * term
        return const, {u: c for u, c in coeffs.items() if abs(c) > 1e-12}

    out = {}
    for d in game.free_decisions():
        for ctx in game.contexts(d):
            if reached(d, ctx):
                out[(d, ctx)] = tuple(
                    action_value(d, ctx, game.domain(d)[a]) for a in range(2)
                )
    return out


def fraction_support_enumeration(game: CausalGame) -> tuple[list, list]:
    """Exact support enumeration: the reference for ``behavioral_nash_small``.

    One pass over every instantiation, in ``Fraction`` arithmetic, keeps
    each one of positive pinned weight with the free decisions' slots and
    actions and each decision's owner's weighted utility total.  Per support
    pattern (same order and unknown names as the solver) the action values
    are summed from those instantiations, the indifference equations are
    solved by exact Gauss-Jordan elimination, and a solution is kept when
    its pinned probabilities lie in [0, 1] and every single-action slot's
    inequality holds, each free probability getting the interval the
    inequalities leave.  The inequalities are read in slot order and a
    pattern ends at the first one violated.  No tolerance and no
    verification: in exact arithmetic these are the equilibrium conditions.
    Raises ``SolverError`` with the solver's message for the coupled
    families it refuses.

    Returns ``(points, families)`` in pattern order without duplicates:
    a point maps each slot to the probability of the decision's first
    action; a family is ``(entries, bounds)``, entries holding a Fraction
    or a parameter name per slot, bounds mapping each parameter to its
    ``(low, high)``.
    """
    decisions = game.free_decisions()
    slots = [(d, tuple(c)) for d in decisions for c in game.contexts(d)]
    names = game.names()
    at = {n: i for i, n in enumerate(names)}
    domains = [game.domain(n) for n in names]
    rows = []
    for inst in itertools.product(*domains):
        weight = Fraction(1)
        for n in names:
            cpd = game.factor_cpd(n)
            if cpd is not None:
                ctx = tuple(inst[at[p]] for p in game.parents_of(n))
                weight *= Fraction(cpd.row(ctx)[game.domain(n).index(inst[at[n]])])
        if weight == 0:
            continue
        placed = [
            ((d, tuple(inst[at[p]] for p in game.parents_of(d))),
             game.domain(d).index(inst[at[d]]))
            for d in decisions
        ]
        totals = [
            weight * sum(
                Fraction(inst[at[u]]) for u in game.utilities_of(game.agent_of(d))
            )
            for d in decisions
        ]
        rows.append((placed, totals))

    def minus(f, g):
        return {k: f.get(k, 0) - g.get(k, 0) for k in set(f) | set(g)}

    points, families = [], []
    for combo in itertools.product(((0,), (1,), (0, 1)), repeat=len(slots)):
        sigma = dict(zip(slots, combo))
        unknown = {s: f"q{i}" for i, s in enumerate(slots) if len(sigma[s]) == 2}
        values = {}  # slot -> two affine forms {None: const, name: coeff}
        for placed, totals in rows:
            for k, (slot, action) in enumerate(placed):
                share = {None: 1}  # the other decision's probability
                if len(placed) == 2:
                    other, b = placed[1 - k]
                    if b not in sigma[other]:
                        continue
                    if other in unknown:
                        q = unknown[other]
                        share = {q: 1} if b == 0 else {None: 1, q: -1}
                form = values.setdefault(slot, ({}, {}))[action]
                for key, c in share.items():
                    form[key] = form.get(key, 0) + c * totals[k]
        equations, inequalities = [], []
        for slot in slots:
            if slot in values:
                f0, f1 = values[slot]
                if len(sigma[slot]) == 2:
                    equations.append(minus(f0, f1))
                else:
                    inside = sigma[slot] == (0,)
                    inequalities.append(minus(f0, f1) if inside else minus(f1, f0))
        unknowns = list(unknown.values())
        # Gauss-Jordan on rows [coefficients..., -const]
        m = [[eq.get(u, 0) for u in unknowns] + [-eq.get(None, 0)] for eq in equations]
        pivots, r = [], 0
        for c in range(len(unknowns)):
            pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            m[r] = [x / m[r][c] for x in m[r]]
            for i in range(len(m)):
                if i != r and m[i][c] != 0:
                    m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        if any(row[-1] != 0 for row in m[r:]):
            continue
        pinned = {}
        for i, c in enumerate(pivots):
            if any(m[i][j] != 0 for j in range(len(unknowns)) if j != c):
                raise SolverError(
                    "unsupported size: coupled parametric equilibrium family"
                )
            pinned[unknowns[c]] = m[i][-1]
        if any(not 0 <= v <= 1 for v in pinned.values()):
            continue
        bounds = {u: [Fraction(0), Fraction(1)] for u in unknowns if u not in pinned}
        feasible = True
        for ineq in inequalities:
            const = ineq.get(None, 0) + sum(
                c * pinned[u] for u, c in ineq.items() if u in pinned
            )
            frees = [(u, c) for u, c in ineq.items() if u in bounds and c != 0]
            if not frees:
                if const < 0:  # the pattern ends here
                    feasible = False
                    break
                continue
            if len(frees) > 1:
                raise SolverError(
                    "unsupported size: inequality couples two family parameters"
                )
            [(u, c)] = frees
            if c > 0:
                bounds[u][0] = max(bounds[u][0], -const / c)
            else:
                bounds[u][1] = min(bounds[u][1], -const / c)
        if not feasible or any(lo > hi for lo, hi in bounds.values()):
            continue
        entries = {
            s: pinned.get(unknown[s], unknown[s]) if s in unknown
            else Fraction(int(sigma[s] == (0,)))
            for s in slots
        }
        if bounds:
            family = (entries, {u: tuple(b) for u, b in bounds.items()})
            if family not in families:
                families.append(family)
        elif entries not in points:
            points.append(entries)
    return points, families


def loop_stable(game: CausalGame, profile: PolicyProfile, eps: float) -> bool:
    """Joint-loop reference for equilibrium verification: each agent's
    utility read off one ``induced_joint`` of the profile, against every
    joint pure deviation of the agent's free decisions, one joint each."""
    for agent in range(1, game.n_agents + 1):
        own = game.free_decisions_of(agent)
        if not own:
            continue
        value = expected_utility_from_joint(game, induced_joint(game, profile), agent)
        for rules in itertools.product(*[reference_pure_rules(game, d) for d in own]):
            deviation = PolicyProfile({**profile.rules, **dict(zip(own, rules))})
            gain = expected_utility_from_joint(
                game, induced_joint(game, deviation), agent
            ) - value
            if gain > eps:
                return False
    return True


def breakpoint_commitment(game: CausalGame, leader: int, eps: float = COMMIT_EPS):
    """Breakpoint reference for exact commitment: the leader's best value,
    and the function giving the value of committing to each probability.

    The leader's one free decision has one context; each pure response of
    the other free decisions gives the follower's and the leader's expected
    utility, read off ``induced_joint`` at p = 0 and p = 1, as lines in the
    probability p of the decision's first action.  The optimum lies at 0, 1
    or where two follower lines cross; at each p the follower responses
    tied within ``eps`` of the best are played in the leader's favour.
    """
    [decision] = game.free_decisions_of(leader)
    others = [d for d in game.free_decisions() if d != decision]
    follower = game.agent_of(others[0]) if others else leader
    [ctx] = game.contexts(decision)
    lines = []  # per response: the follower's and the leader's (slope, intercept)
    for rules in itertools.product(*[reference_pure_rules(game, d) for d in others]):
        at = []
        for p in (0.0, 1.0):
            rule = TabularCPD(decision, game.parents_of(decision), {tuple(ctx): (p, 1.0 - p)})
            joint = induced_joint(game, PolicyProfile({decision: rule, **dict(zip(others, rules))}))
            at.append([expected_utility_from_joint(game, joint, a) for a in (follower, leader)])
        lines.append([(v1 - v0, v0) for v0, v1 in zip(*at)])

    def value_at(p):
        top = max(fa * p + fb for (fa, fb), _ in lines)
        return max(la * p + lb for (fa, fb), (la, lb) in lines if fa * p + fb >= top - eps)

    points = {0.0, 1.0}
    for ((fa, fb), _), ((ga, gb), _) in itertools.combinations(lines, 2):
        if fa != ga and 0.0 <= (p := (gb - fb) / (fa - ga)) <= 1.0:
            points.add(p)
    return max(map(value_at, points)), value_at


def agent_view(game, interventions, visibility, agent, merge_common=True):
    """The game ``agent`` sees, rebuilt from ``game`` as ``decompose`` promises.

    ``interventions`` are the (label, intervention) pairs given to
    ``decompose``.  The agent's visible labels apply in label order, one
    application each; with ``merge_common`` those every agent sees go first.
    """
    pool = dict(interventions)
    visible = [lab for lab in pool if lab in visibility.get(agent, ())]
    if merge_common:
        common = [
            lab for lab in visible
            if all(lab in visibility.get(a, ()) for a in range(1, game.n_agents + 1))
        ]
        visible = common + [lab for lab in visible if lab not in common]
    return apply_all(game, [pool[lab] for lab in visible])


def reference_decompose(
    game: CausalGame,
    interventions: Sequence,
    visibility: Mapping[int, Iterable[str]],
    agent_order: Sequence[int] | None = None,
    merge_common: bool = True,
) -> Decomposition:
    """``interventions.decompose`` as it ran with two stage builders: the
    common stage and the prefix built under ``merge_common``, and a second
    copy of the undo/apply/tag bookkeeping for the group stages and the
    trailing unseen stage.  It does not check the visibility keys.
    """
    labels = [lab for lab, _ in interventions]
    if len(set(labels)) != len(labels):
        raise InterventionError("duplicate intervention labels")
    compounds = {lab: as_compound(iv) for lab, iv in interventions}

    agents = list(range(1, game.n_agents + 1))
    vis: dict[int, tuple[str, ...]] = {}
    for a in agents:
        raw = list(visibility.get(a, ()))
        for lab in raw:
            if lab not in compounds:
                raise InterventionError(
                    f"visibility for agent {a} references unknown "
                    f"intervention {lab!r}"
                )
        vis[a] = tuple(lab for lab in labels if lab in set(raw))

    if agent_order is None:
        ordered_agents = agents
    else:
        if sorted(agent_order) != agents:
            raise InterventionError("agent_order must enumerate every agent")
        ordered_agents = list(agent_order)

    common = [
        lab for lab in labels if all(lab in vis[a] for a in agents)
    ] if agents else []
    common_set = set(common) if merge_common else set()

    # group agents by visible set, ordered by first appearance
    groups: list[tuple[frozenset, list[int]]] = []
    for a in ordered_agents:
        key = frozenset(vis[a])
        for k, members in groups:
            if k == key:
                members.append(a)
                break
        else:
            groups.append((key, [a]))

    stages: list[Stage] = []
    agent_stage: dict[int, int] = {}

    def apply_labels(g, labs):
        applied = []
        prims = []
        for lab in labs:
            g, jc = compounds[lab].apply(g)
            applied.append((lab, jc))
            prims.extend(jc.steps)
        return g, applied, prims

    prefix = game  # every group's stage game is its extras applied to this
    if merge_common:
        prefix, _, prims = apply_labels(game, common)
        stage0_agents = frozenset(
            a for a in agents if set(vis[a]) == set(common)
        )
        stages.append(Stage(
            tuple(prims), stage0_agents, frozenset((l, False) for l in common),
            prefix,
        ))
        for a in stage0_agents:
            agent_stage[a] = 0
        remaining = [
            (k, m) for k, m in groups if set(k) != set(common)
        ]
    else:
        remaining = groups

    running = prefix
    prev_extras: list[tuple[str, CompoundIntervention]] = []
    for key, members in remaining:
        # the previous group's undo is listed, not applied: it restores prefix
        prims = [p for _, jc in reversed(prev_extras) for p in jc.invert().steps]
        tags = {(lab, True) for lab, _ in prev_extras}
        extras = [lab for lab in labels if lab in key and lab not in common_set]
        running, prev_extras, extra_prims = apply_labels(prefix, extras)
        prims.extend(extra_prims)
        tags.update((lab, False) for lab in extras)
        stages.append(
            Stage(tuple(prims), frozenset(members), frozenset(tags), running)
        )
        for a in members:
            agent_stage[a] = len(stages) - 1

    seen_by_someone = set().union(*(set(v) for v in vis.values())) if vis else set()
    unseen = [lab for lab in labels if lab not in seen_by_someone]
    if unseen:
        running, _, prims = apply_labels(running, unseen)
        stages.append(Stage(
            tuple(prims), frozenset(), frozenset((l, False) for l in unseen),
            running,
        ))

    return Decomposition(tuple(stages), agent_stage, tuple(labels), running)


def is_minimum_hitting_set(chosen, sets) -> bool:
    """Exhaustively confirm minimality and coverage."""
    chosen = set(chosen)
    if not all(chosen & s for s in sets):
        return False
    universe = sorted(set().union(*sets))
    for k in range(1, len(chosen)):
        for combo in itertools.combinations(universe, k):
            if all(set(combo) & s for s in sets):
                return False
    return True
