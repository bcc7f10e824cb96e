import copy
import itertools
import random

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

from causalgames import (
    CausalGame,
    FixMechanism,
    FixObject,
    SolverError,
    TabularCPD,
    ValidationError,
    Variable,
    apply_primitive,
    build_mechanised_graph,
    export_dot,
    incentive_invariant,
    predicted_edge_removals,
    reachability_paths,
    relevant_mechanisms,
    side_effects,
)
from causalgames import graphs
from causalgames.cli import resolve_game
from causalgames.graphs import _arena, _reachable, active_paths, rule_node
from helpers import (
    GAME_GENERATORS,
    chain_to_utility_game,
    dense_to_utility_game,
    full_active_paths,
    independent_view,
    loop_conditional_independence,
    mechanism_node,
    numeric_conditional_independence,
    object_fixes,
    object_view,
    path_criterion_removals,
    random_cbn,
    random_game,
    random_multi_decision_game,
    random_rich_game,
    reference_relevant,
    state_reachable,
)

JM_EDGES_INTO_PI_D1 = {"THETA_T", "THETA_U1", "PI_D2"}
JM_EDGES_INTO_PI_D2 = {"THETA_T", "THETA_U2", "PI_D1"}


def _dag_game(graph: nx.DiGraph) -> CausalGame:
    """A game without tables whose object graph is the DAG ``graph``, so
    that the searches run on its arena."""
    return CausalGame(
        1, tuple(Variable(n, "chance", ("a", "b")) for n in graph),
        {n: tuple(graph.pred[n]) for n in graph}, {},
    )


def _reached(game, xs, given) -> set:
    """Every node an active trail from ``xs`` given ``given`` reaches."""
    return _reachable(_arena(game), set(xs), frozenset(given))[0]


def test_d_connection_between_utilities(job_market):
    assert "U1" in _reached(job_market, {"U2"}, set())
    assert "U1" not in _reached(job_market, {"U2"}, {"T", "D2"})


def test_isolated_nodes_separated():
    game = _dag_game(nx.empty_graph(["A", "B", "C"], create_using=nx.DiGraph))
    assert "B" not in _reached(game, {"A"}, set())
    assert "B" not in _reached(game, {"A"}, {"C"})


def test_blocked_chain():
    game = _dag_game(nx.DiGraph([("A", "B"), ("B", "C")]))
    assert active_paths(_arena(game), [("THETA_A", "A")], {"C"}, {"B"}) == []
    assert "A" in _reached(game, {"C"}, set())


def test_active_path_witnesses(job_market):
    """``U2`` is a collider on every trail from its own mechanism, open
    only when ``U2`` is observed; ``T`` and ``D2`` then block both links."""
    arena, start = _arena(job_market), [("THETA_U2", "U2")]
    assert active_paths(arena, start, {"U1"}, set()) == []
    paths = {p.render() for p in active_paths(arena, start, {"U1"}, {"U2"})}
    assert "THETA_U2 -> U2 <- T -> U1" in paths
    assert "THETA_U2 -> U2 <- D2 -> U1" in paths
    assert active_paths(arena, start, {"U1"}, {"U2", "T", "D2"}) == []


def test_mechanised_graph_signalling(job_market):
    mg = build_mechanised_graph(job_market)
    into_d1 = {s for s, t in mg.inter_mechanism_edges if t == "PI_D1"}
    into_d2 = {s for s, t in mg.inter_mechanism_edges if t == "PI_D2"}
    assert into_d1 == JM_EDGES_INTO_PI_D1
    assert into_d2 == JM_EDGES_INTO_PI_D2
    assert len(mg.inter_mechanism_edges) == 6


def test_mechanised_graph_simultaneous(stackelberg):
    mg = build_mechanised_graph(stackelberg)
    assert mg.inter_mechanism_edges == frozenset(
        {
            ("THETA_U1", "PI_D1"),
            ("THETA_U2", "PI_D2"),
            ("PI_D1", "PI_D2"),
            ("PI_D2", "PI_D1"),
        }
    )


def test_no_decisions_no_inter_mechanism_edges():
    game = CausalGame(
        1,
        (Variable("X", "chance", ("a", "b")),),
        {"X": ()},
        {"X": TabularCPD("X", (), {(): (0.5, 0.5)})},
    )
    assert build_mechanised_graph(game).inter_mechanism_edges == frozenset()


def test_relevance_answers(job_market):
    assert "PI_D1" in relevant_mechanisms(job_market, "PI_D2")
    assert "THETA_U2" not in relevant_mechanisms(job_market, "PI_D1")
    assert "THETA_T" in relevant_mechanisms(job_market, "PI_D1")
    with pytest.raises(ValidationError):
        relevant_mechanisms(job_market, "THETA_U1")


def test_no_downstream_utility_means_irrelevant():
    # agent's utility is upstream of the decision and the decision is blind
    variables = (
        Variable("U1", "utility", (0, 1), 1),
        Variable("X", "chance", ("a", "b")),
        Variable("D1", "decision", ("a", "b"), 1),
    )
    parents = {"U1": (), "X": (), "D1": ()}
    cpds = {
        "U1": TabularCPD("U1", (), {(): (0.5, 0.5)}),
        "X": TabularCPD("X", (), {(): (0.5, 0.5)}),
    }
    game = CausalGame(1, variables, parents, cpds)
    for mech in ("THETA_U1", "THETA_X"):
        assert mech not in relevant_mechanisms(game, "PI_D1")
        assert reachability_paths(game, mech, "PI_D1") == []


def test_reachability_paths_signalling(job_market):
    paths = reachability_paths(job_market, "PI_D1", "PI_D2")
    rendered = {(p.render(), tuple(sorted(p.conditioning))) for p in paths}
    assert rendered == {
        ("PI_D1 -> D1 <- T -> U2", ("D1", "D2")),
        ("PI_D1 -> D1", ()),
    }


def test_reachability_broken_by_hard_decision_fix(job_market):
    fixed = apply_primitive(
        job_market,
        FixObject("D1", (), TabularCPD.delta("D1", "g", job_market.domain("D1"))),
    )
    assert reachability_paths(fixed, "PI_D1", "PI_D2") == []
    # the rule node lost its object-level child entirely
    dot = export_dot(fixed, "independent_mechanised")
    assert '"PI_D1" [' in dot and '"PI_D1" -> "D1"' not in dot


def test_relevance_iff_paths(job_market, stackelberg):
    rng = random.Random(5)
    from helpers import random_game

    games = [job_market, stackelberg] + [random_game(rng) for _ in range(20)]
    for game in games:
        for d in game.decisions():
            target = f"PI_{d}"
            if d in game.rule_fixes:
                continue
            for v in game.variables:
                mech = mechanism_node(game, v.name)
                if mech == target:
                    continue
                assert (mech in relevant_mechanisms(game, target)) == bool(
                    reachability_paths(game, mech, target)
                )


def test_object_restriction_matches_input(job_market):
    """Inter-mechanism edges join mechanism nodes only, and the mechanised
    DOT text opens with the object graph's."""
    mg = build_mechanised_graph(job_market)
    assert not {n for edge in mg.inter_mechanism_edges for n in edge} & set(job_market.names())
    base = export_dot(job_market, "object").splitlines()[:-1]
    assert export_dot(job_market, "mechanised").splitlines()[: len(base)] == base


def _definition_graph(game):
    """Nodes and edges of the independent mechanised graph, read off the
    game's definition: parent edges plus each mechanism's edge into its
    variable, severed on object-fixed decisions."""
    nodes = set(game.names()) | {mechanism_node(game, v) for v in game.names()}
    edges = {(p, v) for v in game.names() for p in game.parents[v]}
    edges |= {
        (mechanism_node(game, v), v)
        for v in game.names()
        if v not in game.object_fixed
    }
    return nodes, edges


def _dot_mechanism_lines(game):
    """The mechanism nodes of the independent mechanised DOT text, in order,
    and its mechanism edges, in order."""
    lines = export_dot(game, "independent_mechanised").splitlines()
    nodes = [ln.split('"')[1] for ln in lines if "style=dashed" in ln]
    edges = [
        tuple(ln.split('"')[1::2]) for ln in lines
        if "->" in ln and ln.split('"')[1] in nodes
    ]
    return nodes, edges


def test_arena_and_views_keep_declaration_order():
    """Variables in declaration order, then each one's mechanism node in the
    same order: the node order of the DOT text, on seeded games with
    object-fixed decisions.  The arena reads the game's own parent map and
    children index, not a copy of them."""
    for seed in range(60):
        rng = random.Random(f"order:{seed}")
        game = random_rich_game(rng) if seed % 2 else random_multi_decision_game(rng)
        if not game.object_fixed:
            d = rng.choice(game.decisions())
            dom = game.domain(d)
            game = apply_primitive(game, FixObject(d, (), TabularCPD.delta(d, dom[0], dom)))
        names = list(game.names())
        mechs = [mechanism_node(game, v) for v in names]
        arena = _arena(game)
        assert arena.pred is game.parents and arena.succ is game._children
        dot = export_dot(game, "independent_mechanised").splitlines()
        assert [ln.split('"')[1] for ln in dot if "[shape=" in ln] == names + mechs
        assert list(graphs._mechanisms(game)) == mechs
        mech_edges = [(mechanism_node(game, v), v) for v in names if v not in game.object_fixed]
        assert _dot_mechanism_lines(game) == (mechs, mech_edges)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans(), st.booleans())
def test_arena_matches_graph_views(rng, multi, fix):
    """The arena holds the object graph: each variable's neighbours read
    through it, a name it does not map having none, are the definition's.
    The mechanism nodes add each one's edge into its variable, none into an
    object-fixed decision; the inter-mechanism edges join mechanism nodes.
    The tests' networkx view holds the same graph."""
    game = random_multi_decision_game(rng) if multi else random_game(rng)
    if fix:
        d = rng.choice(game.decisions())
        dom = game.domain(d)
        game = apply_primitive(game, FixObject(d, (), TabularCPD.delta(d, dom[0], dom)))
        assert d in game.object_fixed
    nodes, edges = _definition_graph(game)
    names = set(game.names())
    arena = _arena(game)
    assert arena.pred is game.parents
    assert set(arena.pred) <= names and set(arena.succ) <= names
    for n in names:
        assert set(arena.pred.get(n, ())) == {a for a, b in edges if b == n and a in names}
        assert set(arena.succ.get(n, ())) == {b for a, b in edges if a == n}
    mechs = graphs._mechanisms(game)
    assert set(mechs) == nodes - names
    assert {(m, v) for m, vs in mechs.items() for v in vs} == {
        (a, b) for a, b in edges if a not in names
    }
    view = independent_view(game)
    assert (set(view), set(view.edges)) == (nodes, edges)
    inter = build_mechanised_graph(game).inter_mechanism_edges
    assert {n for edge in inter for n in edge} <= nodes - names


def test_d_separation_agrees_with_numeric_oracle_small():
    rng = random.Random(99)
    from causalgames.model import PolicyProfile, induced_joint

    for _ in range(30):
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
                        separated = z not in _reached(game, {x}, given)
                        assert separated == nx.is_d_separator(view, {x}, {z}, set(given))
                        if separated:
                            assert numeric_conditional_independence(
                                joint.table, names, domains, {x}, {z}, set(given)
                            )


# -- the reachable-set search against path enumeration ------------------------


@st.composite
def _graph_query(draw):
    n = draw(st.integers(2, 7))
    nodes = [f"N{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n))
    g = nx.DiGraph(edges)
    g.add_nodes_from(nodes)
    role = draw(st.lists(st.sampled_from("xzgr"), min_size=n, max_size=n))
    assume("x" in role and "z" in role)
    xs, zs, given = ({v for v, r in zip(nodes, role) if r == k} for k in "xzg")
    return g, xs, zs, given


def _with_mechanisms(g, xs):
    """``g`` with a parentless node ``M_<x>`` and its edge into ``x`` for
    each ``x`` in ``xs``, and those edges."""
    starts = [(f"M_{x}", x) for x in sorted(xs)]
    mechanised = g.copy()
    mechanised.add_edges_from(starts)
    return mechanised, starts


@settings(max_examples=400, deadline=None)
@given(_graph_query())
def test_d_separated_agrees_with_path_enumeration(query):
    """A node climbs in the search from ``zs`` exactly when paths from its
    mechanism's edge exist, and exactly when networkx finds its mechanism
    d-connected to ``zs``."""
    g, xs, zs, given = query
    arena = _arena(_dag_game(g))
    climbed = _reachable(arena, zs, frozenset(given))[1]
    mechanised, starts = _with_mechanisms(g, xs)
    for m, x in starts:
        paths = active_paths(arena, [(m, x)], zs, given)
        connected = not nx.is_d_separator(mechanised, {m}, zs, given)
        assert (x in climbed) == bool(paths) == connected


@settings(max_examples=400, deadline=None)
@given(_graph_query())
def test_pruned_paths_match_full_enumeration(query):
    g, xs, zs, given = query
    mechanised, starts = _with_mechanisms(g, xs)
    assert active_paths(_arena(_dag_game(g)), starts, zs, given) == full_active_paths(
        mechanised, {m for m, _ in starts}, zs, given
    )


@settings(max_examples=400, deadline=None)
@given(_graph_query(), st.data())
def test_two_mark_search_matches_the_state_search(query, data):
    """``_reachable``'s two marks reach exactly the nodes of the search over
    ``(node, direction)`` states, with a random subset of edges severed.  The
    nodes it says climb are those whose implicit mechanism node the state
    search reaches once each node gets a parentless node of its own, with
    a random subset of those new edges severed too."""
    g, xs, _, given = query
    severed = frozenset(data.draw(st.sets(st.sampled_from(sorted(g.edges)))
                                  if g.number_of_edges() else st.just(set())))
    arena = _arena(_dag_game(g))
    reached, climbed = _reachable(arena, xs, frozenset(given), severed)
    assert reached == state_reachable(g, xs, given, severed)
    mechanised = g.copy()
    mechanised.add_edges_from((("M", n), n) for n in g)
    cut = data.draw(st.sets(st.sampled_from(sorted(g))))
    severed |= {(("M", n), n) for n in cut}
    want = state_reachable(mechanised, xs, given, severed)
    assert reached == want & set(g)
    assert climbed - cut == {n for n in g if ("M", n) in want}
    assert _reachable(arena, xs, frozenset(given), severed) == (reached, climbed)


def _nx_relevance_tests(game, target):
    """The independent mechanised graph as an ``nx.DiGraph`` and the
    relevance tests of rule node ``target``, built with networkx."""
    graph = independent_view(game)
    d = target[len("PI_"):]
    downstream = nx.descendants(graph, d)
    utils = {u for u in game.utilities_of(game.agent_of(d)) if u in downstream}
    parents = set(game.parents_of(d))
    tests = [(t, cond) for t, cond in ((utils, parents | {d}), (parents, set())) if t]
    return graph, tests


def _seeded_games(rng, n):
    """``n`` random games, ``n // 2`` multi-decision games, and the first
    ``n // 2`` of them with their first decision pinned by an object fix."""
    games = [random_game(rng) for _ in range(n)]
    games += [random_multi_decision_game(rng) for _ in range(n // 2)]
    return games + [
        apply_primitive(g, _hard_fix(g, g.decisions()[0])) for g in games[: n // 2]
    ]


def test_arena_paths_match_full_enumeration():
    """The arena's witness paths equal the complete enumeration on the
    ``nx.DiGraph`` of the same independent mechanised graph."""
    found = 0
    for game in _seeded_games(random.Random(41), 24):
        mechs = [mechanism_node(game, v) for v in game.names()]
        for d in game.decisions():
            graph, tests = _nx_relevance_tests(game, rule_node(d))
            for m in mechs:
                expected = [
                    p for t, cond in tests for p in full_active_paths(graph, {m}, t, cond)
                ]
                assert reachability_paths(game, m, rule_node(d)) == expected
                found += len(expected)
    assert found


def _per_pair_relevant(game, target):
    """Mechanisms d-connected to a relevance test's targets, asked one by one
    of networkx."""
    graph, tests = _nx_relevance_tests(game, target)
    return {
        m
        for m in (mechanism_node(game, v) for v in game.names())
        if any(not nx.is_d_separator(graph, {m}, t, cond) for t, cond in tests)
    }


_GENERATORS = {
    "game": random_game, "multi": random_multi_decision_game, "rich": random_rich_game,
}


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(sorted(_GENERATORS)),
       st.booleans(), st.booleans())
def test_implicit_mechanisms_match_the_networkx_view(rng, generator, pin, commit):
    """The searches leave mechanism nodes implicit; on the tests' networkx
    view of the independent mechanised graph, where every one is a node, each
    (mechanism, rule node) pair gets the same answers: relevance is per-pair
    d-connection, the witness paths are the complete enumeration, and the
    predicted removals of every object fix are the path criterion.  Games
    carry object-fixed and committed decisions."""
    game = _GENERATORS[generator](rng)
    for wanted, make in ((pin, _hard_fix), (commit, _commitment)):
        free = game.free_decisions()
        if wanted and free:
            game = apply_primitive(game, make(game, rng.choice(free)))
    graph = independent_view(game)
    mechs = [mechanism_node(game, v) for v in game.names()]
    for d in game.decisions():
        target = rule_node(d)
        _, tests = _nx_relevance_tests(game, target)
        relevant = relevant_mechanisms(game, target)
        for m in mechs:
            paths = [p for t, cond in tests for p in full_active_paths(graph, {m}, t, cond)]
            assert reachability_paths(game, m, target) == paths
            connected = any(not nx.is_d_separator(graph, {m}, t, cond) for t, cond in tests)
            assert (m in relevant) == connected == bool(paths)
    for fix in object_fixes(game, rng):
        assert predicted_edge_removals(game, fix) == path_criterion_removals(game, fix)


def test_relevant_mechanisms_match_per_pair_tests(job_market, stackelberg):
    rng = random.Random(23)
    games = [job_market, stackelberg]
    games += [random_game(rng) for _ in range(40)]
    games += [random_multi_decision_game(rng) for _ in range(20)]
    games += [
        apply_primitive(g, FixObject(d, (), TabularCPD.delta(d, "a", ("a", "b"))))
        for g in games[2:22]
        for d in g.decisions()[:1]
    ]
    seen = set()
    for game in games:
        for d in game.decisions():
            target = rule_node(d)
            expected = _per_pair_relevant(game, target)
            assert relevant_mechanisms(game, target) == expected
            seen |= {m in expected for m in (mechanism_node(game, v) for v in game.names())}
    assert seen == {True, False}


def test_incentive_analyses_match_per_pair_relevance(job_market, stackelberg):
    rng = random.Random(29)
    games = [job_market, stackelberg] + [random_game(rng) for _ in range(30)]

    def per_pair_edges(game):
        return {
            (m, rule_node(d))
            for d in game.decisions()
            if d not in game.rule_fixes
            for m in _per_pair_relevant(game, rule_node(d)) - {rule_node(d)}
        }

    verdicts = set()
    for game in games:
        d = rng.choice(game.decisions())
        fix = FixObject(d, (), TabularCPD.delta(d, game.domain(d)[0], game.domain(d)))
        after = apply_primitive(game, fix)
        before_edges, after_edges = per_pair_edges(game), per_pair_edges(after)
        report = side_effects(game, fix)
        assert report.removed == before_edges - after_edges
        assert report.added == after_edges - before_edges
        # a hard fix keeps every variable and kind, so every pair is compared
        invariant = all(
            _per_pair_relevant(game, rule_node(e)) - {rule_node(e)}
            == _per_pair_relevant(after, rule_node(e)) - {rule_node(e)}
            for e in game.decisions()
        )
        assert incentive_invariant(game, fix) is invariant
        verdicts.add(invariant)
    assert verdicts == {True, False}


def test_relevance_rejects_object_nodes(job_market):
    with pytest.raises(ValidationError, match="unknown mechanism node"):
        reachability_paths(job_market, "T", "PI_D1")
    with pytest.raises(ValidationError, match="unknown mechanism node"):
        reachability_paths(job_market, "THETA_nope", "PI_D1")


def test_deep_chain_witness_found_without_recursion():
    game = chain_to_utility_game(1200)
    paths = reachability_paths(game, "THETA_X0", "PI_D")
    assert len(paths) == 1
    assert paths[0].nodes[:2] == ("THETA_X0", "X0")
    assert paths[0].nodes[-2:] == ("X1199", "U")
    assert ("THETA_X0", "PI_D") in build_mechanised_graph(game).inter_mechanism_edges


def test_yes_no_answers_need_no_path_enumeration(monkeypatch):
    fixtures = {
        name: resolve_game(name)
        for name in ("job_market", "effortville", "prisoners_dilemma", "stackelberg")
    }

    def enumerated_edges(game):
        return {
            (mech, rule_node(d))
            for d in game.decisions()
            if d not in game.rule_fixes
            for mech in (mechanism_node(game, v.name) for v in game.variables)
            if mech != rule_node(d) and reachability_paths(game, mech, rule_node(d))
        }

    def intervention(game):
        d = game.decisions()[0]
        return FixObject(d, (), TabularCPD.delta(d, game.domain(d)[0], game.domain(d)))

    expected = {}
    for name, game in fixtures.items():
        intervened = apply_primitive(game, intervention(game))
        before, after = enumerated_edges(game), enumerated_edges(intervened)
        pairs = [
            (mech, target)
            for mech in (mechanism_node(game, v.name) for v in game.variables)
            for target in (rule_node(d) for d in game.decisions())
            if mech != target
        ]
        relevance = {p: bool(reachability_paths(game, *p)) for p in pairs}
        # a hard fix keeps every variable and kind, so every pair is shared
        invariant = all(
            bool(reachability_paths(intervened, *p)) == relevance[p] for p in pairs
        )
        expected[name] = (
            before,
            relevance,
            (before - after, after - before),
            invariant,
            export_dot(game, "mechanised"),
            path_criterion_removals(game, intervention(game)),
        )

    def no_paths(*args, **kwargs):
        raise AssertionError("a yes/no question enumerated paths")

    monkeypatch.setattr(graphs, "active_paths", no_paths)
    for name, game in fixtures.items():
        edges, relevance, (removed, added), invariant, dot, predicted = expected[name]
        assert build_mechanised_graph(game).inter_mechanism_edges == edges
        for (mech, target), relevant in relevance.items():
            assert (mech in relevant_mechanisms(game, target)) == relevant
        report = side_effects(game, intervention(game))
        assert (report.removed, report.added) == (removed, added)
        assert incentive_invariant(game, intervention(game)) is invariant
        assert export_dot(game, "mechanised") == dot
        assert predicted_edge_removals(game, intervention(game)) == predicted


def test_predicted_removals_past_the_path_budget(monkeypatch):
    """2 ** 18 witness paths per edge: far past ``ENUM_BUDGET``, yet the
    prediction enumerates none."""

    def no_paths(*args, **kwargs):
        raise AssertionError("predicted removals enumerated paths")

    monkeypatch.setattr(graphs, "active_paths", no_paths)
    game = dense_to_utility_game(20)
    fix = FixObject("X19", (), TabularCPD.uniform("X19", ("a", "b")))
    predicted = predicted_edge_removals(game, fix)
    assert predicted == {(f"THETA_X{i}", "PI_D") for i in range(19)}
    assert predicted == side_effects(game, fix).removed


class _CountedFills(dict):
    """An arena's open-collider cache that records each conditioning set it
    is filled under."""

    def __init__(self):
        super().__init__()
        self.filled = []

    def __setitem__(self, given, colliders):
        self.filled.append(given)
        super().__setitem__(given, colliders)


def test_one_open_collider_closure_per_conditioning_set(monkeypatch):
    init = graphs._Arena.__init__

    def counted(self, game):
        init(self, game)
        self.open = _CountedFills()

    monkeypatch.setattr(graphs._Arena, "__init__", counted)
    fixtures = [resolve_game(name) for name in ("job_market", "stackelberg")]
    closures = 0
    for game in fixtures + _seeded_games(random.Random(43), 10):
        edges = build_mechanised_graph(game).inter_mechanism_edges
        predicted_edge_removals(game, _hard_fix(game, game.decisions()[-1]))
        for edge in edges:
            reachability_paths(game, *edge)
        opened = _arena(game).open.filled
        assert len(opened) == len(set(opened))
        closures += len(opened)
    assert closures


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(GAME_GENERATORS), st.booleans())
def test_relevance_closure_matches_two_searches(rng, make, fix):
    """Test (b) as an ancestor closure finds what its reachable-set search
    found, on seeded games of every generator, with an object-fixed decision
    or without, and under the severed edges of a hard fix of each decision
    as ``predicted_edge_removals`` builds them."""
    game = make(rng)
    if fix and game.decisions():
        game = apply_primitive(game, _hard_fix(game, rng.choice(game.decisions())))
    cuts = [frozenset()] + [
        frozenset({(w, d) for w in game.parents_of(d)} | {(rule_node(d), d)})
        for d in game.decisions()
    ]
    for d in game.decisions():
        for severed in cuts:
            want = reference_relevant(game, rule_node(d), severed)
            assert graphs._relevant(game, rule_node(d), severed) == want


def test_vectorised_independence_oracle_matches_loop_form():
    rng = random.Random(17)
    from causalgames.model import PolicyProfile, induced_joint

    verdicts = set()
    for _ in range(5):
        game = random_cbn(rng)
        joint = induced_joint(game, PolicyProfile({})).table
        names = list(game.names())
        domains = {n: game.domain(n) for n in names}
        for x, z, *rest in itertools.permutations(names, 3):
            for given in (set(), {rest[0]}):
                for xs in ({x}, {x, *rest} - given):
                    args = (joint, names, domains, xs, {z}, given)
                    verdict = numeric_conditional_independence(*args)
                    assert verdict == loop_conditional_independence(*args)
                    verdicts.add(verdict)
    assert verdicts == {True, False}


def test_witness_paths_counted_against_budget(monkeypatch):
    game = dense_to_utility_game(10)
    assert len(reachability_paths(game, "THETA_X0", "PI_D")) == 2 ** 8
    monkeypatch.setattr(graphs, "ENUM_BUDGET", 100)
    with pytest.raises(SolverError, match=r"^would enumerate more than \d+ witness "
                       r"paths; budget 100$"):
        reachability_paths(game, "THETA_X0", "PI_D")
    # a smaller dense graph (32 paths) stays under the same budget
    assert len(reachability_paths(dense_to_utility_game(7), "THETA_X0", "PI_D")) == 32


def _count_arenas(monkeypatch) -> list:
    built = []
    init = graphs._Arena.__init__

    def counted(self, game):
        built.append(game)
        init(self, game)

    monkeypatch.setattr(graphs._Arena, "__init__", counted)
    return built


def _hard_fix(game, d="D1"):
    return FixObject(d, (), TabularCPD.delta(d, game.domain(d)[0], game.domain(d)))


def _commitment(game, d):
    rule = TabularCPD.uniform(d, game.domain(d), game.parents_of(d), game.domain)
    return FixMechanism(rule_node(d), rule)


def _pair_answers(game):
    mechs = [mechanism_node(game, v) for v in game.names()]
    targets = [rule_node(d) for d in game.decisions()]
    return (
        {t: relevant_mechanisms(game, t) for t in targets},
        {(m, t): reachability_paths(game, m, t) for m in mechs for t in targets},
    )


def test_arena_built_once_per_game(monkeypatch):
    built = _count_arenas(monkeypatch)
    game = resolve_game("job_market")
    assert predicted_edge_removals(game, _hard_fix(game))
    assert built == [game]
    game = resolve_game("job_market")
    built.clear()
    report = side_effects(game, _hard_fix(game))
    assert report.removed
    assert len(built) == 2 and built[0] is game and built[1] is not game


def test_intervened_game_gets_its_own_arena(monkeypatch):
    parent = resolve_game("job_market")
    before = _pair_answers(parent)
    child = apply_primitive(parent, _hard_fix(parent))
    built = _count_arenas(monkeypatch)
    answers = _pair_answers(child)
    assert built == [child]
    assert answers != before
    fresh = resolve_game("job_market")
    assert answers == _pair_answers(apply_primitive(fresh, _hard_fix(fresh)))


def test_deep_copied_game_answers_identically(monkeypatch):
    game = resolve_game("job_market")
    answers = _pair_answers(game)
    edges = build_mechanised_graph(game).inter_mechanism_edges
    clone = copy.deepcopy(game)
    built = _count_arenas(monkeypatch)
    assert _pair_answers(clone) == answers
    assert build_mechanised_graph(clone).inter_mechanism_edges == edges
    assert export_dot(clone, "mechanised") == export_dot(game, "mechanised")
    assert built == []
