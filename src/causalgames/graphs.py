"""Graph analysis: d-separation, mechanised graphs, relevance, reachability.

The mechanised graph extends a game's DAG with one mechanism node per
variable (``THETA_<v>`` for a CPD, ``PI_<d>`` for a decision rule), an edge
from each mechanism to its variable, and inter-mechanism edges into rule
nodes wherever the governing rationality relation makes the source mechanism
strategically relevant.  The independent mechanised graph drops the
inter-mechanism edges; it is the arena for all reachability computations.

Every yes/no d-separation question (``d_separated``, and through it
``r_relevant`` and the mechanised graph) is answered by one reachable-set
search (Bayes-Ball: Shachter 1998; Koller & Friedman, *PGMs*, Alg. 3.1) in
time linear in the graph.  A trail through a collider is open when the
collider lies in the ancestral closure of the conditioning set Y, and
through any other node when that node is outside Y.  The search is valid on
graphs with cycles, which matters because mechanised graphs may be cyclic
among mechanism nodes.  ``active_paths`` enumerates simple paths (Pearl,
*Causality*, 2009), which is exponential in the worst case; it is used only
where the paths themselves are the answer: relevance witnesses, predicted
edge removals and minimum intervention sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import networkx as nx

from .errors import ValidationError
from .model import CausalGame, DECISION

FORWARD = "->"
BACKWARD = "<-"


def rule_node(decision: str) -> str:
    return f"PI_{decision}"


def param_node(variable: str) -> str:
    return f"THETA_{variable}"


def mechanism_node(game: CausalGame, variable: str) -> str:
    if game.kind(variable) == DECISION:
        return rule_node(variable)
    return param_node(variable)


def variable_of_mechanism(name: str) -> str:
    """Inverse of the mechanism-node naming scheme."""
    for prefix in ("PI_", "THETA_"):
        if name.startswith(prefix):
            return name[len(prefix):]
    raise ValidationError(f"{name!r} is not a mechanism node name")


def object_graph(game: CausalGame) -> nx.DiGraph:
    g = nx.DiGraph()
    for v in game.variables:
        g.add_node(v.name, kind=v.kind, agent=v.agent, layer="object")
    for v in game.variables:
        for p in game.parents_of(v.name):
            g.add_edge(p, v.name)
    return g


def independent_mechanised_graph(game: CausalGame) -> nx.DiGraph:
    """Object graph plus mechanism nodes and their edges into variables.

    The edge from a rule node into an object-fixed decision is severed: an
    object-level hard fix replaces the rule as the distribution governing
    the decision, leaving the rule node isolated above it.
    """
    g = object_graph(game)
    for v in game.variables:
        m = mechanism_node(game, v.name)
        g.add_node(m, kind="mechanism", agent=game.agent_of(v.name), layer="mechanism")
        if v.name not in game.object_fixed:
            g.add_edge(m, v.name)
    return g


@dataclass(frozen=True)
class Path:
    """A non-repeating walk through adjacent nodes.

    ``arrows[i]`` gives the orientation of the edge between ``nodes[i]`` and
    ``nodes[i+1]``: ``"->"`` when the edge runs forward along the path,
    ``"<-"`` when it is traversed against its direction.  Reachability paths
    additionally record the conditioning set under which they are active.
    """

    nodes: tuple[str, ...]
    arrows: tuple[str, ...]
    conditioning: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "arrows", tuple(self.arrows))
        object.__setattr__(self, "conditioning", frozenset(self.conditioning))

    def render(self) -> str:
        parts = [self.nodes[0]]
        for arrow, node in zip(self.arrows, self.nodes[1:]):
            parts.append(arrow)
            parts.append(node)
        return " ".join(parts)

    def edges(self) -> list[tuple[str, str]]:
        """Directed edges along the path, tail to head."""
        out = []
        for i, arrow in enumerate(self.arrows):
            a, b = self.nodes[i], self.nodes[i + 1]
            out.append((a, b) if arrow == FORWARD else (b, a))
        return out


def _check_node_sets(graph: nx.DiGraph, *sets: Iterable[str]):
    seen = []
    for s in sets:
        for n in s:
            if n not in graph:
                raise ValidationError(f"unknown node {n!r}")
        seen.append(set(s))
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            if seen[i] & seen[j]:
                raise ValidationError(
                    f"node sets must be disjoint; share {sorted(seen[i] & seen[j])}"
                )


def _ancestral_closure(graph: nx.DiGraph, given: set) -> set:
    """``given`` and all its ancestors: the colliders that leave a trail open."""
    closure = set(given)
    stack = list(given)
    while stack:
        for p in graph.pred[stack.pop()]:
            if p not in closure:
                closure.add(p)
                stack.append(p)
    return closure


def _path_is_active(nodes, arrows, given, open_colliders) -> bool:
    for i in range(1, len(nodes) - 1):
        w = nodes[i]
        collider = arrows[i - 1] == FORWARD and arrows[i] == BACKWARD
        if collider:
            if w not in open_colliders:
                return False
        elif w in given:
            return False
    return True


def _d_connected(graph: nx.DiGraph, xs: set, zs: set, given: set) -> bool:
    """Reachable-set search: does an active trail join ``xs`` to ``zs``?

    States are (node, direction of arrival): ``BACKWARD`` when entered from
    a child (or at a start node), ``FORWARD`` when entered from a parent.
    Each state is expanded at most once, so the cost is O(V + E).
    """
    open_colliders = _ancestral_closure(graph, given)
    stack = [(x, BACKWARD) for x in xs]
    seen = set()
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        node, arrived = state
        if node in zs:
            return True
        if node not in given:
            stack.extend((c, FORWARD) for c in graph.succ[node])
            if arrived == BACKWARD:
                stack.extend((p, BACKWARD) for p in graph.pred[node])
        if arrived == FORWARD and node in open_colliders:
            stack.extend((p, BACKWARD) for p in graph.pred[node])
    return False


def active_paths(graph: nx.DiGraph, xs, zs, given) -> list[Path]:
    """All simple paths from ``xs`` to ``zs`` left unblocked by ``given``.

    Paths never revisit a node and never pass through another endpoint-set
    member as an interior node.  Empty exactly when ``d_separated`` holds.
    """
    _check_node_sets(graph, xs, zs, given)
    xs, zs, given = set(xs), set(zs), set(given)
    open_colliders = _ancestral_closure(graph, given)
    endpoints = xs | zs
    found = []

    def neighbours(n):
        for c in graph.successors(n):
            yield c, FORWARD
        for p in graph.predecessors(n):
            yield p, BACKWARD

    def extend(nodes, arrows, visited):
        here = nodes[-1]
        for nxt, arrow in neighbours(here):
            if nxt in visited:
                continue
            new_nodes = nodes + [nxt]
            new_arrows = arrows + [arrow]
            if nxt in zs:
                if _path_is_active(new_nodes, new_arrows, given, open_colliders):
                    found.append(Path(new_nodes, new_arrows, given))
                continue
            if nxt in endpoints:
                continue
            extend(new_nodes, new_arrows, visited | {nxt})

    for x in sorted(xs):
        extend([x], [], {x})
    found.sort(key=lambda p: (len(p.nodes), p.nodes, p.arrows))
    return found


def d_separated(graph: nx.DiGraph, xs, zs, given) -> bool:
    """True iff every path between ``xs`` and ``zs`` is blocked by ``given``."""
    _check_node_sets(graph, xs, zs, given)
    return not _d_connected(graph, set(xs), set(zs), set(given))


# -- strategic relevance ------------------------------------------------------


def _relevance_targets(game: CausalGame, mech: str, target: str, graph=None):
    """The d-connection tests behind best-response relevance.

    A mechanism is relevant to a decision's rule node when, in the
    independent mechanised graph, it is either (a) d-connected to the
    deciding agent's utility variables downstream of the decision given the
    decision and its parents, or (b) d-connected to the decision's parents
    given nothing.  Returns the graph and the (targets, conditioning set)
    pairs whose target set is non-empty.
    """
    if not target.startswith("PI_"):
        raise ValidationError(f"{target!r} is not a decision-rule node")
    decision = variable_of_mechanism(target)
    if game.kind(decision) != DECISION:
        raise ValidationError(f"{target!r} is not a decision-rule node")
    if graph is None:
        graph = independent_mechanised_graph(game)
    if mech not in graph:
        raise ValidationError(f"unknown mechanism node {mech!r}")
    downstream = nx.descendants(graph, decision)
    util_targets = frozenset(
        u for u in game.utilities_of(game.agent_of(decision)) if u in downstream
    )
    parents = frozenset(game.parents_of(decision))
    tests = ((util_targets, parents | {decision}), (parents, frozenset()))
    return graph, [(targets, cond) for targets, cond in tests if targets]


def r_relevant(
    game: CausalGame, mech: str, target: str, graph: nx.DiGraph | None = None
) -> bool:
    """Best-response relevance of mechanism ``mech`` to rule node ``target``."""
    graph, tests = _relevance_targets(game, mech, target, graph)
    return any(not d_separated(graph, {mech}, t, cond) for t, cond in tests)


def reachability_paths(game: CausalGame, mech: str, target: str) -> list[Path]:
    """Every path witnessing the relevance of ``mech`` to ``target``.

    Each path is annotated with the conditioning set of the test it
    witnesses.  Empty exactly when ``r_relevant`` is false.
    """
    graph, tests = _relevance_targets(game, mech, target)
    return [p for t, cond in tests for p in active_paths(graph, {mech}, t, cond)]


@dataclass(frozen=True)
class RationalityRelation:
    """How agents pick decision rules, with its graphical relevance test.

    Represented intensionally: ``relevance`` decides whether a mechanism
    node can matter to a rule node, and equilibrium code dispatches on
    ``name``.  Only best response is built in; the relation is serial (a
    best response always exists in a finite game).
    """

    name: str
    relevance: Callable = r_relevant


BEST_RESPONSE = RationalityRelation("best_response", r_relevant)


@dataclass(frozen=True)
class MechanisedGraph:
    """Object graph, mechanism layer, and inter-mechanism relevance edges."""

    base: nx.DiGraph
    graph: nx.DiGraph
    mechanism_nodes: Mapping[str, str]
    mechanism_edges: tuple[tuple[str, str], ...]
    inter_mechanism_edges: frozenset


def build_mechanised_graph(
    game: CausalGame, relation: RationalityRelation = BEST_RESPONSE
) -> MechanisedGraph:
    """Construct the full mechanised graph under a rationality relation.

    Inter-mechanism edges run into each free or object-fixed decision's rule
    node from every other mechanism the relation deems relevant.  A rule
    node pinned by a mechanism-level fix takes no inputs: a constant
    relation depends on nothing.
    """
    base = object_graph(game)
    indep = independent_mechanised_graph(game)
    full = indep.copy()
    mech_nodes = {v.name: mechanism_node(game, v.name) for v in game.variables}
    mech_edges = tuple(
        (mech_nodes[v.name], v.name)
        for v in game.variables
        if v.name not in game.object_fixed
    )
    inter = set()
    for d in game.decisions():
        if d in game.rule_fixes:
            continue
        target = rule_node(d)
        for v in game.variables:
            mech = mech_nodes[v.name]
            if mech == target:
                continue
            if relation.relevance(game, mech, target, indep):
                inter.add((mech, target))
    for src, dst in sorted(inter):
        full.add_edge(src, dst)
    return MechanisedGraph(base, full, mech_nodes, mech_edges, frozenset(inter))
