"""Graph analysis: d-separation, mechanised graphs, relevance, reachability.

The mechanised graph extends a game's DAG with one mechanism node per
variable (``THETA_<v>`` for a CPD, ``PI_<d>`` for a decision rule), an edge
from each mechanism to its variable, and inter-mechanism edges into rule
nodes wherever the source mechanism is strategically relevant under best
response.  The independent mechanised graph drops the inter-mechanism
edges; it is the arena for all reachability computations, read as
``pred``/``succ`` dicts built in one pass over the variables from the
game's own parent and child index.  A game builds its arena once, on first
use, and every search on it shares that arena; games are immutable and
every intervention makes a new one, so it never goes stale.  networkx is
imported only by the views.

Every yes/no question is answered by a reachable-set search (Bayes-Ball:
Shachter 1998; Koller & Friedman, *PGMs*, Alg. 3.1) in time linear in the
graph.  It keeps Bayes-Ball's two marks, one set of nodes entered from a
child and one of nodes entered from a parent, so each node is expanded at
most once from each side.  A trail through a collider is open when the
collider lies in the ancestral closure of the conditioning set Y, and
through any other node when that node is outside Y.  d-connection is
symmetric, so one search from each relevance test's target set (Koller &
Milch 2003) finds every mechanism relevant to a rule node.  The search is
valid on graphs with cycles, which matters because mechanised graphs may be
cyclic among mechanism nodes.
``active_paths`` enumerates simple paths (Pearl, *Causality*, 2009), which is
exponential in the worst case; it is used only where the paths themselves
are the answer: relevance witnesses and minimum intervention sets.  It grows
paths on an explicit stack and drops a path at the first node that blocks
it.  An arena keeps the open colliders of each conditioning set it has
searched under, next to its rule nodes' relevance tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from .errors import SolverError, ValidationError
from .model import CausalGame, DECISION, ENUM_BUDGET

if TYPE_CHECKING:
    import networkx as nx

FORWARD = "->"
BACKWARD = "<-"


def rule_node(decision: str) -> str:
    return f"PI_{decision}"


def param_node(variable: str) -> str:
    return f"THETA_{variable}"


def variable_of_mechanism(name: str) -> str:
    """Inverse of the mechanism-node naming scheme."""
    for prefix in ("PI_", "THETA_"):
        if name.startswith(prefix):
            return name[len(prefix):]
    raise ValidationError(f"{name!r} is not a mechanism node name")


class _Arena:
    """One game's independent mechanised graph: ``pred``/``succ`` dicts (what
    the searches read of an ``nx.DiGraph``) and, in variable order, each
    variable's mechanism node and that node's edge into it.

    The edge from a rule node into an object-fixed decision is severed: an
    object-level hard fix replaces the rule as the distribution governing
    the decision, leaving the rule node isolated above it.
    """

    def __init__(self, game: CausalGame):
        self.mechanism = mechanism = {}
        edges, pred, succ, mechs = [], {}, {}, {}
        parents, children, fixed = game.parents, game._children, game.object_fixed
        for v in game.variables:
            name = v.name
            m = rule_node(name) if v.kind == DECISION else param_node(name)
            mechanism[name] = m
            succ[name] = children.get(name, ())
            if name in fixed:
                pred[name] = parents.get(name, ())
                mechs[m] = ()
            else:
                pred[name] = parents.get(name, ()) + (m,)
                mechs[m] = (name,)
                edges.append((m, name))
        # variables in declaration order, then their mechanism nodes: the
        # node and edge order of the networkx views
        pred.update(dict.fromkeys(mechs, ()))
        succ.update(mechs)
        self.pred, self.succ = pred, succ
        self.mechanisms = frozenset(mechs)
        self.edges = tuple(edges)
        self.tests = {}  # rule node -> its relevance tests, see _relevance_tests
        self.open = {}  # conditioning set -> its open colliders, see _open_colliders


def _arena(game: CausalGame) -> _Arena:
    """The game's arena, built on first use and kept on the game."""
    arena = vars(game).get("_arena")
    if arena is None:
        arena = vars(game)["_arena"] = _Arena(game)
    return arena


def _digraph(succ: Mapping) -> nx.DiGraph:
    import networkx as nx

    return nx.from_dict_of_lists(succ, create_using=nx.DiGraph)


def object_graph(game: CausalGame) -> nx.DiGraph:
    return _digraph({v: game.children_of(v) for v in game.names()})


def independent_mechanised_graph(game: CausalGame) -> nx.DiGraph:
    """Object graph plus mechanism nodes and their edges into variables."""
    return _digraph(_arena(game).succ)


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


def _check_node_sets(graph: _Arena | nx.DiGraph, *sets: Iterable[str]):
    known, seen = graph.pred, []
    for s in sets:
        for n in s:
            if n not in known:
                raise ValidationError(f"unknown node {n!r}")
        seen.append(set(s))
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            if seen[i] & seen[j]:
                raise ValidationError(
                    f"node sets must be disjoint; share {sorted(seen[i] & seen[j])}"
                )


def _closure(step: Mapping, start) -> set:
    """``start`` and every node reached from it along ``step``'s adjacency:
    along ``pred``, the colliders that leave a trail open given ``start``."""
    closure = set(start)
    stack = list(start)
    while stack:
        for n in step[stack.pop()]:
            if n not in closure:
                closure.add(n)
                stack.append(n)
    return closure


def _open_colliders(graph: _Arena | nx.DiGraph, given: frozenset) -> set:
    """The colliders that leave a trail open given ``given`` (its ancestral
    closure), computed once per conditioning set of an arena."""
    if not isinstance(graph, _Arena):
        return _closure(graph.pred, given)
    closure = graph.open.get(given)
    if closure is None:
        closure = graph.open[given] = _closure(graph.pred, given)
    return closure


def _reachable(
    graph: _Arena | nx.DiGraph, xs: set, given: frozenset, severed=frozenset()
) -> set:
    """Reachable-set search: every node an active trail from ``xs`` reaches.

    Bayes-Ball's two marks: a node is marked ``up`` when entered from a
    child (or as a start node) and ``down`` when entered from a parent, and
    it is pushed only when it lacks the mark of the side it is entered
    from, so each node is expanded at most twice and the cost is O(V + E).
    A node passes the ball to its children when it is outside ``given``,
    and to its parents when it was entered from below outside ``given`` or
    from above as an open collider.  Edges in ``severed`` are not traversed,
    while colliders stay open as in the whole graph: the trails found are
    the active trails that avoid those edges.
    """
    open_colliders = _open_colliders(graph, given)
    pred, succ = graph.pred, graph.succ
    if severed:
        pred, succ = dict(pred), dict(succ)
        for tail, head in severed:
            pred[head] = tuple(p for p in pred[head] if p != tail)
            succ[tail] = tuple(c for c in succ[tail] if c != head)
    up, down = set(xs), set()
    rising, falling = list(up), []
    while rising or falling:
        if rising:
            node = rising.pop()
            climb = node not in given
        else:
            node = falling.pop()
            climb = node in open_colliders
        if climb:
            for p in pred[node]:
                if p not in up:
                    up.add(p)
                    rising.append(p)
        if node not in given:
            for c in succ[node]:
                if c not in down:
                    down.add(c)
                    falling.append(c)
    return up | down


def active_paths(graph: _Arena | nx.DiGraph, xs, zs, given) -> list[Path]:
    """All simple paths from ``xs`` to ``zs`` left unblocked by ``given``.

    Paths never revisit a node and never pass through another endpoint-set
    member as an interior node.  Empty exactly when ``d_separated`` holds.
    A path grows, on an explicit stack, only while it is open: each step
    checks the node it leaves, which blocks as a non-collider in ``given``
    or as a collider outside the ancestral closure of ``given``.  Paths
    found plus paths still open count against ``ENUM_BUDGET``.
    """
    _check_node_sets(graph, xs, zs, given)
    xs, zs, given = set(xs), set(zs), frozenset(given)
    open_colliders = _open_colliders(graph, given)
    endpoints = xs | zs
    found = []
    stack = [((x,), ()) for x in xs]
    while stack:
        nodes, arrows = stack.pop()
        here = nodes[-1]
        # ``here`` becomes interior unless it starts the path: leaving it
        # backward after a forward arrival makes it a collider, open only in
        # ``open_colliders``; any other step is blocked by ``here`` in ``given``
        onward = not arrows or here not in given
        back = here in open_colliders if arrows and arrows[-1] == FORWARD else onward
        for step, arrow, ok in (
            (graph.succ, FORWARD, onward), (graph.pred, BACKWARD, back)
        ):
            if not ok:
                continue
            for nxt in step[here]:
                if nxt in nodes:
                    continue
                path = (nodes + (nxt,), arrows + (arrow,))
                if nxt in zs:
                    found.append(Path(*path, given))
                elif nxt not in endpoints:
                    stack.append(path)
        if len(found) + len(stack) > ENUM_BUDGET:
            raise SolverError(
                f"would enumerate more than {len(found) + len(stack):,} "
                f"witness paths; budget {ENUM_BUDGET:,}"
            )
    found.sort(key=lambda p: (len(p.nodes), p.nodes, p.arrows))
    return found


def d_separated(graph: _Arena | nx.DiGraph, xs, zs, given) -> bool:
    """True iff every path between ``xs`` and ``zs`` is blocked by ``given``."""
    _check_node_sets(graph, xs, zs, given)
    return not _reachable(graph, set(xs), frozenset(given)) & set(zs)


# -- strategic relevance ------------------------------------------------------


def _relevance_tests(game: CausalGame, target: str):
    """The d-connection tests behind best-response relevance.

    A mechanism is relevant to a decision's rule node when, in the
    independent mechanised graph, it is either (a) d-connected to the
    deciding agent's utility variables downstream of the decision given the
    decision and its parents, or (b) d-connected to the decision's parents
    given nothing.  Returns the arena and the (targets, conditioning set)
    pairs whose target set is non-empty, kept on the arena.
    """
    arena = _arena(game)
    if target not in arena.tests:
        decision = target[3:]
        if not target.startswith("PI_") or game.kind(decision) != DECISION:
            raise ValidationError(f"{target!r} is not a decision-rule node")
        downstream = _closure(arena.succ, {decision})
        utils = frozenset(game.utilities_of(game.agent_of(decision))) & downstream
        parents = frozenset(game.parents_of(decision))
        tests = ((utils, parents | {decision}), (parents, frozenset()))
        arena.tests[target] = [(t, cond) for t, cond in tests if t]
    return arena, arena.tests[target]


def _check_mechanism(game: CausalGame, mech: str):
    if mech not in _arena(game).mechanisms:
        raise ValidationError(f"unknown mechanism node {mech!r}")


def relevant_mechanisms(game: CausalGame, target: str) -> frozenset:
    """Every mechanism node best-response relevant to rule node ``target``.

    d-connection is symmetric, so one reachable-set search from each test's
    target set finds every mechanism it d-connects.  The set may hold
    ``target`` itself; callers building edges skip it.
    """
    arena, tests = _relevance_tests(game, target)
    reached = set().union(*(_reachable(arena, t, cond) for t, cond in tests))
    return arena.mechanisms & reached


def r_relevant(game: CausalGame, mech: str, target: str) -> bool:
    """Best-response relevance of mechanism ``mech`` to rule node ``target``."""
    _check_mechanism(game, mech)
    return mech in relevant_mechanisms(game, target)


def reachability_paths(game: CausalGame, mech: str, target: str) -> list[Path]:
    """Every path witnessing the relevance of ``mech`` to ``target``.

    Each path is annotated with the conditioning set of the test it
    witnesses.  Empty exactly when ``r_relevant`` is false.
    """
    arena, tests = _relevance_tests(game, target)
    _check_mechanism(game, mech)
    return [p for t, cond in tests for p in active_paths(arena, {mech}, t, cond)]


@dataclass(frozen=True)
class RationalityRelation:
    """Best response as a named relation with its relevance test.

    Nothing in the library reads it: every solver and
    ``build_mechanised_graph`` use best response and call
    ``relevant_mechanisms`` directly.  The class and ``BEST_RESPONSE`` stay
    exported only for the benchmark tracer, which patches
    ``BEST_RESPONSE.relevance``.
    """

    name: str
    relevance: Callable = relevant_mechanisms


BEST_RESPONSE = RationalityRelation("best_response", relevant_mechanisms)


@dataclass(frozen=True)
class MechanisedGraph:
    """Mechanism layer and inter-mechanism relevance edges of a game."""

    mechanism_nodes: Mapping[str, str]
    mechanism_edges: tuple[tuple[str, str], ...]
    inter_mechanism_edges: frozenset
    _arena: _Arena = field(repr=False, compare=False)

    @cached_property
    def graph(self) -> nx.DiGraph:
        """Independent mechanised graph plus the inter-mechanism edges."""
        g = _digraph(self._arena.succ)
        g.add_edges_from(sorted(self.inter_mechanism_edges))
        return g


def build_mechanised_graph(game: CausalGame) -> MechanisedGraph:
    """Construct the full mechanised graph under best response.

    Inter-mechanism edges run into each free or object-fixed decision's rule
    node from every other mechanism ``relevant_mechanisms`` finds.  A rule
    node pinned by a mechanism-level fix takes no inputs: a constant rule
    depends on nothing.
    """
    arena = _arena(game)
    inter = {
        (mech, rule_node(d))
        for d in game.decisions()
        if d not in game.rule_fixes
        for mech in relevant_mechanisms(game, rule_node(d))
        if mech != rule_node(d)
    }
    return MechanisedGraph(dict(arena.mechanism), arena.edges, frozenset(inter), arena)
