"""Graph analysis: mechanised graphs, relevance, reachability.

The mechanised graph extends a game's DAG with one mechanism node per
variable (``THETA_<v>`` for a CPD, ``PI_<d>`` for a decision rule), an edge
from each mechanism to its variable, and inter-mechanism edges into rule
nodes wherever the source mechanism is strategically relevant under best
response.  The independent mechanised graph drops the inter-mechanism
edges.  Every search reads the game's own parent map and children index,
without a copy, and the caches it fills are kept on the game, made on first
use; games are immutable, so they never go stale, and a derived game starts
without them.  A mechanism node has no parents and at most one child, its own
variable, so it stays implicit: a search reaches it exactly when the ball
at that variable passes on to the variable's parents, and a path out of it
starts with its edge into the variable.  Mechanism nodes are named only in
answers and in the DOT export.

Every yes/no question is answered by a reachable-set search (Bayes-Ball:
Shachter 1998; Koller & Friedman, *PGMs*, Alg. 3.1) in time linear in the
graph.  It keeps Bayes-Ball's two marks, one set of nodes entered from a
child and one of nodes entered from a parent, so each node is expanded at
most once from each side.  A trail through a collider is open when the
collider lies in the ancestral closure of the conditioning set Y, and
through any other node when that node is outside Y.  d-connection is
symmetric, so one search from each relevance test's target set (Koller &
Milch 2003) finds every mechanism relevant to a rule node.  The test that
gives nothing opens no collider, so its search only climbs from the
decision's parents to their ancestors: it runs as that ancestor closure.
``active_paths`` enumerates simple paths (Pearl, *Causality*, 2009), which is
exponential in the worst case; it is used only where the paths themselves
are the answer: relevance witnesses and minimum intervention sets.  It grows
paths, each from a mechanism's edge into its variable, on an explicit stack
and drops a path at the first node that blocks it.  A game keeps the open
colliders of each conditioning set it has been searched under, next to its
rule nodes' relevance tests.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .errors import SolverError, ValidationError
from .model import (
    CausalGame, DECISION, ENUM_BUDGET, _closure, _record, param_node, rule_node,
    variable_of_mechanism,
)

FORWARD = "->"
BACKWARD = "<-"


def _mechanisms(game: CausalGame, names: Iterable[str] | None = None) -> dict:
    """The mechanism node of each variable in ``names`` (all by default), in
    that order, with the variables it has an edge into: none for an
    object-fixed decision, whose rule an object-level hard fix replaces."""
    out = {}
    for v in game.variables if names is None else map(game.variable, names):
        if v.kind != DECISION:
            out[param_node(v.name)] = (v.name,)
        else:
            out[rule_node(v.name)] = () if v.name in game.cpds else (v.name,)
    return out


@_record
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


def _open_colliders(game: CausalGame, given: frozenset) -> set:
    """The colliders that leave a trail open given ``given`` (its ancestral
    closure), computed once per conditioning set of a game and kept on it."""
    kept = vars(game).setdefault("_open", {})
    if given not in kept:
        kept[given] = _closure(game.parents, given)
    return kept[given]


def _sever(game: CausalGame, severed) -> tuple[Mapping, Mapping]:
    """The game's parent map and children index without the edges in
    ``severed``."""
    pred, succ = game.parents, game._children
    if severed:
        pred, succ = dict(pred), dict(succ)
        for tail, head in severed:
            pred[head] = tuple(p for p in pred.get(head, ()) if p != tail)
            succ[tail] = tuple(c for c in succ.get(tail, ()) if c != head)
    return pred, succ


def _reachable(
    game: CausalGame, xs: set, given: frozenset, severed=frozenset()
) -> tuple[set, set]:
    """Reachable-set search: every node an active trail from ``xs`` reaches,
    and those of them that pass the ball on to their parents.

    Bayes-Ball's two marks: a node is marked ``up`` when entered from a
    child (or as a start node) and ``down`` when entered from a parent, and
    it is pushed only when it lacks the mark of the side it is entered
    from, so each node is expanded at most twice and the cost is O(V + E).
    A node passes the ball to its children when it is outside ``given``,
    and climbs, passing it to its parents, when it was entered from below
    outside ``given`` or from above as an open collider.  A variable's
    implicit mechanism node is reached exactly when the variable climbs.
    Edges in ``severed`` are not traversed, while colliders stay open as in
    the whole graph: the trails found are the active trails that avoid those
    edges.
    """
    open_colliders = _open_colliders(game, given)
    pred, succ = _sever(game, severed)
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
            for p in pred.get(node, ()):
                if p not in up:
                    up.add(p)
                    rising.append(p)
        if node not in given:
            for c in succ.get(node, ()):
                if c not in down:
                    down.add(c)
                    falling.append(c)
    return up | down, (up - given) | (down & open_colliders)


def active_paths(game: CausalGame, starts, zs, given) -> list[Path]:
    """All simple paths from the edges ``starts`` to ``zs`` left unblocked
    by ``given``.

    Each start edge leaves an implicit mechanism node, so every path opens
    with a forward arrow into a variable, and paths never revisit a node.
    A path grows, on an explicit stack, only while it is open: each step
    checks the node it leaves, which blocks as a non-collider in ``given``
    or as a collider outside the ancestral closure of ``given``.  Paths
    found plus paths still open count against ``ENUM_BUDGET``.
    """
    stack = [(edge, (FORWARD,)) for edge in starts]
    zs, given = set(zs), frozenset(given)
    open_colliders = _open_colliders(game, given)
    found = []
    while stack:
        nodes, arrows = stack.pop()
        here = nodes[-1]
        if here in zs:
            found.append(Path(nodes, arrows, given))
            continue
        # leaving ``here`` backward after a forward arrival makes it a
        # collider, open only in ``open_colliders``; any other step is
        # blocked by ``here`` in ``given``
        onward = here not in given
        back = here in open_colliders if arrows[-1] == FORWARD else onward
        for step, arrow, ok in (
            (game._children, FORWARD, onward), (game.parents, BACKWARD, back)
        ):
            if ok:
                for nxt in step.get(here, ()):
                    if nxt not in nodes:
                        stack.append((nodes + (nxt,), arrows + (arrow,)))
        if len(found) + len(stack) > ENUM_BUDGET:
            raise SolverError(
                f"would enumerate more than {len(found) + len(stack):,} "
                f"witness paths; budget {ENUM_BUDGET:,}"
            )
    found.sort(key=lambda p: (len(p.nodes), p.nodes, p.arrows))
    return found


# -- strategic relevance ------------------------------------------------------


def _relevance_tests(game: CausalGame, target: str):
    """The d-connection tests behind best-response relevance.

    A mechanism is relevant to a decision's rule node when, in the
    independent mechanised graph, it is either (a) d-connected to the
    deciding agent's utility variables downstream of the decision given the
    decision and its parents, or (b) d-connected to the decision's parents
    given nothing.  Returns the (targets, conditioning set) pairs whose
    target set is non-empty, kept on the game.
    """
    kept = vars(game).setdefault("_tests", {})
    if target not in kept:
        decision = target[3:]
        if not target.startswith("PI_") or game.kind(decision) != DECISION:
            raise ValidationError(f"{target!r} is not a decision-rule node")
        downstream = _closure(game._children, {decision})
        utils = frozenset(game.utilities_of(game.agent_of(decision))) & downstream
        parents = frozenset(game.parents_of(decision))
        tests = ((utils, parents | {decision}), (parents, frozenset()))
        kept[target] = [(t, cond) for t, cond in tests if t]
    return kept[target]


def _relevant(game: CausalGame, target: str, severed=frozenset()) -> frozenset:
    """The mechanism nodes relevant to rule node ``target`` by trails that
    avoid the edges in ``severed``: those of the variables whose searches
    climb, except an object-fixed decision's and any with a severed edge.
    With nothing given no collider is open, so test (b)'s search climbs from
    the decision's parents to their ancestors and no further: a closure."""
    pred, climbed = _sever(game, severed)[0], set()
    for t, cond in _relevance_tests(game, target):
        climbed |= _reachable(game, t, cond, severed)[1] if cond else _closure(pred, t)
    return frozenset(
        m for m, vs in _mechanisms(game, climbed).items()
        if vs and (m, vs[0]) not in severed
    )


def _start_edges(game: CausalGame, mech: str) -> list:
    """Mechanism node ``mech``'s edge into its variable, as the start edges
    of ``active_paths``: none for an object-fixed decision's rule node."""
    v = mech.partition("_")[2]  # PI_<d> or THETA_<v>; any other name fails below
    edges = _mechanisms(game, [v]) if game.has_variable(v) else {}
    if mech not in edges:
        raise ValidationError(f"unknown mechanism node {mech!r}")
    return [(mech, w) for w in edges[mech]]


def relevant_mechanisms(game: CausalGame, target: str) -> frozenset:
    """Every mechanism node best-response relevant to rule node ``target``.

    d-connection is symmetric, so one reachable-set search from each test's
    target set finds every mechanism it d-connects; for the test that gives
    nothing, the search is the ancestor closure.  The set may hold
    ``target`` itself; callers building edges skip it.
    """
    return _relevant(game, target)


def reachability_paths(game: CausalGame, mech: str, target: str) -> list[Path]:
    """Every path witnessing the relevance of ``mech`` to ``target``.

    Each path starts with ``mech``'s edge into its variable and is annotated
    with the conditioning set of the test it witnesses.  Empty exactly when
    ``mech`` is not in ``relevant_mechanisms(game, target)``.
    """
    tests = _relevance_tests(game, target)
    start = _start_edges(game, mech)
    return [p for t, cond in tests for p in active_paths(game, start, t, cond)]


@_record
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


@_record
class MechanisedGraph:
    """Inter-mechanism relevance edges of a game: with the game's own edges
    and each mechanism's edge into its variable, its mechanised graph."""

    inter_mechanism_edges: frozenset


def build_mechanised_graph(game: CausalGame) -> MechanisedGraph:
    """Construct the full mechanised graph under best response.

    Inter-mechanism edges run into each free or object-fixed decision's rule
    node from every other mechanism ``relevant_mechanisms`` finds.  A rule
    node pinned by a mechanism-level fix takes no inputs: a constant rule
    depends on nothing.
    """
    inter = {
        (mech, rule_node(d))
        for d in game.decisions()
        if d not in game.rule_fixes
        for mech in relevant_mechanisms(game, rule_node(d))
        if mech != rule_node(d)
    }
    return MechanisedGraph(frozenset(inter))
