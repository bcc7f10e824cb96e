"""The intervention algebra.

Four primitive game modifications: fixing an object-level variable's CPD
(and possibly its parent set), fixing a mechanism (a parameter node's CPD or
a decision-rule node's imposed rule), adding a variable, and removing one.
Edge additions/removals are derived fixes.  Every application builds the
new game and checks it with ``model.violations`` on the variables it
changed, so a primitive maps a valid game to a valid one or refuses.  Every
application records its inverse primitive, built from the state it
replaced, so primitives invert exactly; ordered compositions invert by
reversing inverted steps.

``decompose`` turns a set of labelled interventions plus per-agent
visibility into an ordered list of primitive stages such that, after the
stages up to an agent's own, the game equals exactly the state that agent
sees when choosing their policy.  A later stage's primitives undo the
previous group's non-shared primitives and then apply the next group's, so
replaying them in order reproduces every stage game; the stage game itself
is built once, by applying only the group's own interventions to the shared
prefix (the common stage's game, or the base game).
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Iterable, Mapping, Sequence, Union

from .errors import InterventionError, ValidationError
from .graphs import (
    _mechanisms,
    _relevant,
    build_mechanised_graph,
    param_node,
    reachability_paths,
    relevant_mechanisms,
    rule_node,
    variable_of_mechanism,
)
from .model import (
    DECISION,
    CausalGame,
    TabularCPD,
    Variable,
    _record,
    tabulate,
    violations,
)


@_record
class FixObject:
    """Replace a variable's parent set and CPD.

    On a decision, a non-None ``cpd`` pins the decision at the object level
    (its rule node no longer governs it); ``cpd=None`` rewires the
    information set and leaves the rule to be re-solved.  ``rule_fix`` is
    used by inversion to restore a previously committed rule.
    """

    target: str
    parents: tuple[str, ...]
    cpd: TabularCPD | None = None
    rule_fix: TabularCPD | None = None
    inverse: Primitive | None = None

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))


@_record
class FixMechanism:
    """Fix a mechanism node: THETA_<v> gets a new CPD, PI_<d> an imposed rule.

    ``cpd=None`` on a rule node removes the imposed rule, restoring the
    default rationality relation.
    """

    target: str
    cpd: TabularCPD | None = None
    inverse: Primitive | None = None


@_record
class AddVariable:
    """Insert a new variable with the given parents and children.

    Children keep their rows by default, duplicated across the new parent's
    values (appended last); ``child_cpds`` overrides that with explicit
    extended tables (each carrying its own parent order), ``child_parents``
    does the same for decision children.  ``rule_fix`` re-commits an added
    free decision (inversion of removing a committed one).
    """

    variable: Variable
    parents: tuple[str, ...]
    children: tuple[str, ...]
    cpd: TabularCPD | None = None
    child_cpds: Mapping[str, TabularCPD] | None = None
    child_parents: Mapping[str, tuple] | None = None
    rule_fix: TabularCPD | None = None
    index: int | None = None
    inverse: Primitive | None = None

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "children", tuple(self.children))


@_record
class RemoveVariable:
    """Delete a variable, marginalising it out of its children's CPDs.

    Auto-marginalisation needs the removed variable to carry a CPD or an
    imposed rule whose parents are nested in the child's remaining parents;
    otherwise an explicit replacement in ``child_cpds`` is required.
    """

    target: str
    child_cpds: Mapping[str, TabularCPD] | None = None
    child_parents: Mapping[str, tuple] | None = None
    inverse: Primitive | None = None


Primitive = Union[FixObject, FixMechanism, AddVariable, RemoveVariable]


@_record
class CompoundIntervention:
    """An ordered list of primitives, applied first to last."""

    steps: tuple[Primitive, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    def apply(self, game: CausalGame) -> tuple[CausalGame, "CompoundIntervention"]:
        applied = []
        for p in self.steps:
            game, ap = apply_journaled(game, p)
            applied.append(ap)
        return game, CompoundIntervention(tuple(applied))

    def invert(self) -> "CompoundIntervention":
        return CompoundIntervention(tuple(invert(p) for p in reversed(self.steps)))


def as_compound(x) -> CompoundIntervention:
    """Coerce a primitive, compound, or iterable of either to a compound."""
    if isinstance(x, CompoundIntervention):
        return x
    if isinstance(x, (FixObject, FixMechanism, AddVariable, RemoveVariable)):
        return CompoundIntervention((x,))
    steps: list[Primitive] = []
    for item in x:
        steps.extend(as_compound(item).steps)
    return CompoundIntervention(tuple(steps))


# -- application ---------------------------------------------------------------


def _checked(game: CausalGame, names) -> CausalGame:
    """``game`` if the variables ``names`` break no rule of ``validate_game``.

    ``names`` are the variables whose parents, table, rule or existence the
    primitive changed; ``violations`` checks exactly what that can break.
    """
    report = violations(game, names)
    if report:
        raise InterventionError("; ".join(report))
    return game


def _restoring(game: CausalGame, name: str) -> dict:
    """The ``cpd``/``rule_fix`` fields that put ``name``'s pinning back."""
    return {"cpd": game.cpds.get(name), "rule_fix": game.rule_fixes.get(name)}


def _apply_fix_object(game: CausalGame, p: FixObject):
    t = p.target
    if not game.has_variable(t):
        raise InterventionError(f"unknown variable {t!r}")
    cpds = {k: c for k, c in game.cpds.items() if k != t}
    rule_fixes = {k: r for k, r in game.rule_fixes.items() if k != t}
    if p.cpd is not None:
        cpds[t] = p.cpd
    elif p.rule_fix is not None and game.kind(t) == DECISION:
        if t not in game.rule_fixes and t not in game.cpds:
            raise InterventionError(f"{t} is free; commit its rule at PI_{t}")
        rule_fixes[t] = p.rule_fix
    elif t in game.rule_fixes:
        raise InterventionError(
            f"cannot rewire committed decision {t}; unfix the rule first"
        )
    new_game = game._derive(
        parents={**game.parents, t: p.parents}, cpds=cpds, rule_fixes=rule_fixes
    )
    inverse = FixObject(t, game.parents_of(t), **_restoring(game, t))
    return _checked(new_game, (t,)), inverse


def _apply_fix_mechanism(game: CausalGame, p: FixMechanism):
    try:
        var = variable_of_mechanism(p.target)
    except ValidationError as exc:
        raise InterventionError(str(exc)) from None
    if not game.has_variable(var):
        raise InterventionError(f"unknown variable behind {p.target!r}")
    kind = game.kind(var)
    inverse = FixMechanism(p.target, game.factor_cpd(var))
    if p.target == param_node(var):
        if kind == DECISION:
            raise InterventionError(
                f"{p.target}: decisions have rule nodes, not parameter nodes"
            )
        if p.cpd is None:
            raise InterventionError(
                f"{p.target}: a parameter fix requires a CPD"
            )
        if tuple(p.cpd.parents) != game.parents_of(var):
            raise InterventionError(
                f"{p.target}: a mechanism fix may not change the parent set; "
                "use an object-level fix"
            )
        new_game = game._derive(cpds={**game.cpds, var: p.cpd})
        return _checked(new_game, (var,)), inverse
    # rule node
    if kind != DECISION:
        raise InterventionError(f"{p.target}: {var} is not a decision")
    if var in game.cpds:
        raise InterventionError(
            f"{p.target}: {var} is object-fixed; its rule no longer governs it"
        )
    rule_fixes = dict(game.rule_fixes)
    if p.cpd is None:
        if var not in rule_fixes:
            raise InterventionError(f"{p.target}: decision rule is not fixed")
        rule_fixes.pop(var)
    else:
        rule_fixes[var] = p.cpd
    return _checked(game._derive(rule_fixes=rule_fixes), (var,)), inverse


def _rewire_children(game, p, children, parents, cpds, default, derive):
    """Give each child of an added or removed variable its new parent tuple
    in ``parents`` and its new table in ``cpds``; return the tables and
    tuples replaced (the inverse's ``child_cpds`` and ``child_parents``).

    A child's order is its ``p.child_parents`` entry, else the parents of
    its replacement table in ``p.child_cpds``, else ``default(child)``; any
    order must hold exactly the parents of ``default(child)``.  A child with
    a table gets the replacement, else ``derive(child, order)``; a free
    decision takes no replacement, which would pin it.
    """
    orders, tables = p.child_parents or {}, p.child_cpds or {}
    old_orders, old_tables = {}, {}
    for child in children:
        if child in game.rule_fixes:
            raise InterventionError(
                f"cannot change the information set of committed decision "
                f"{child}"
            )
        want = default(child)
        table = tables.get(child)
        order = orders.get(child)
        if order is None:
            order = want if table is None else table.parents
        order = tuple(order)
        if set(order) != set(want):
            raise InterventionError(
                f"parent order for {child} must cover {sorted(want)}"
            )
        old_orders[child] = game.parents_of(child)
        parents[child] = order
        if child in game.cpds:
            old_tables[child] = game.cpds[child]
            cpds[child] = derive(child, order) if table is None else table
        elif table is not None:
            raise InterventionError(
                f"cannot give free decision {child} a replacement table; "
                "pin it with an object fix"
            )
    return old_tables, old_orders


def _extend_child_cpd(game, child, y_name, y_domain, order=None):
    """A child's CPD with the new parent ``y_name`` in its parent ``order``
    (default: appended last), each old row copied across y's values, which
    leaves the induced joint unchanged until re-parameterised."""
    old_parents = game.parents_of(child)
    order = old_parents + (y_name,) if order is None else order
    rows = game.cpds[child].table
    return tabulate(
        child, order, lambda q: y_domain if q == y_name else game.domain(q),
        lambda at: rows[tuple(at[q] for q in old_parents)],
    )


def _apply_add_variable(game: CausalGame, p: AddVariable):
    v = p.variable
    if game.has_variable(v.name):
        raise InterventionError(f"variable {v.name!r} already exists")
    for n in p.children:
        if not game.has_variable(n):
            raise InterventionError(f"unknown variable {n!r}")
    parents = {**game.parents, v.name: p.parents}
    cpds = dict(game.cpds)
    rule_fixes = dict(game.rule_fixes)
    old_tables, old_orders = _rewire_children(
        game, p, p.children, parents, cpds,
        lambda child: game.parents_of(child) + (v.name,),
        lambda child, order: _extend_child_cpd(game, child, v.name, v.domain, order),
    )
    if p.cpd is not None:
        cpds[v.name] = p.cpd
    elif p.rule_fix is not None:
        rule_fixes[v.name] = p.rule_fix
    pos = len(game.variables) if p.index is None else p.index
    new_game = game._derive(
        variables=game.variables[:pos] + (v,) + game.variables[pos:],
        parents=parents, cpds=cpds, rule_fixes=rule_fixes,
    )
    inverse = RemoveVariable(
        v.name, child_cpds=old_tables, child_parents=old_orders
    )
    return _checked(new_game, (v.name, *p.children)), inverse


def _marginalise_out(game, child, y_name, remaining):
    """Marginalise the parent ``y_name`` out of a child's CPD under its
    table or imposed rule; the child keeps the parents ``remaining``."""
    y_cpd = game.factor_cpd(y_name)
    if y_cpd is None:
        raise InterventionError(
            f"cannot marginalise {y_name} out of {child}: {y_name} is a free "
            f"decision; child {child} needs an explicit replacement CPD"
        )
    if not set(y_cpd.parents) <= set(remaining):
        raise InterventionError(
            f"cannot marginalise {y_name} out of {child}: its CPD conditions "
            f"on {sorted(set(y_cpd.parents) - set(remaining))}; child {child} "
            "needs an explicit replacement CPD"
        )
    old_parents = game.parents_of(child)
    old_cpd = game.cpds[child]

    def row(at):
        y_row = y_cpd.row(tuple(at[q] for q in y_cpd.parents))
        acc = [0.0] * len(game.domain(child))
        for yi, y in enumerate(game.domain(y_name)):
            ctx = tuple(y if q == y_name else at[q] for q in old_parents)
            for i, val in enumerate(old_cpd.row(ctx)):
                acc[i] += y_row[yi] * val
        return acc

    return tabulate(child, remaining, game.domain, row)


def _apply_remove_variable(game: CausalGame, p: RemoveVariable):
    t = p.target
    if not game.has_variable(t):
        raise InterventionError(f"unknown variable {t!r}")
    children = game.children_of(t)
    parents = {k: ps for k, ps in game.parents.items() if k != t}
    cpds = {k: c for k, c in game.cpds.items() if k != t}
    old_tables, old_orders = _rewire_children(
        game, p, children, parents, cpds,
        lambda child: tuple(q for q in game.parents_of(child) if q != t),
        lambda child, order: _marginalise_out(game, child, t, order),
    )
    new_game = game._derive(
        variables=tuple(x for x in game.variables if x.name != t),
        parents=parents,
        cpds=cpds,
        rule_fixes={k: r for k, r in game.rule_fixes.items() if k != t},
    )
    inverse = AddVariable(
        game.variable(t),
        game.parents_of(t),
        children,
        child_cpds=old_tables,
        child_parents=old_orders,
        index=game.names().index(t),
        **_restoring(game, t),
    )
    return _checked(new_game, (t, *children)), inverse


_APPLIERS = {
    FixObject: _apply_fix_object,
    FixMechanism: _apply_fix_mechanism,
    AddVariable: _apply_add_variable,
    RemoveVariable: _apply_remove_variable,
}


def apply_journaled(game: CausalGame, p: Primitive):
    """Apply a primitive; return the new game and the applied primitive.

    The applied primitive's ``inverse`` is the primitive that restores the
    state this application replaced.
    """
    new_game, inverse = _APPLIERS[type(p)](game, p)
    return new_game, dc_replace(p, inverse=inverse)


def apply_primitive(game: CausalGame, p: Primitive) -> CausalGame:
    """Apply a primitive intervention, returning the intervened game."""
    return _APPLIERS[type(p)](game, p)[0]


def apply_all(game: CausalGame, interventions: Iterable) -> CausalGame:
    for item in interventions:
        game, _ = as_compound(item).apply(game)
    return game


def invert(p: Primitive) -> Primitive:
    """The primitive restoring the state an applied primitive replaced."""
    if p.inverse is None:
        raise InterventionError(
            "cannot invert an intervention that was never applied (no journal)"
        )
    return p.inverse


# -- derived interventions -----------------------------------------------------


def make_add_edge(game: CausalGame, src: str, dst: str) -> FixObject:
    """The object-level fix realising a new dependency ``src -> dst``: a
    table of ``dst`` (an object-fixed decision's too, which stays pinned) is
    copied across ``src``'s values; a decision without one gains the edge."""
    if not game.has_variable(src) or not game.has_variable(dst):
        raise InterventionError(f"unknown edge endpoint in {src}->{dst}")
    if src in game.parents_of(dst):
        raise InterventionError(f"edge {src}->{dst} already present")
    if dst not in game.cpds:
        return FixObject(dst, game.parents_of(dst) + (src,), None)
    cpd = _extend_child_cpd(game, dst, src, game.domain(src))
    return FixObject(dst, cpd.parents, cpd)


def make_remove_edge(game: CausalGame, src: str, dst: str) -> FixObject:
    """The object-level fix deleting the dependency ``src -> dst``.

    A table of ``dst`` (an object-fixed decision's too, which stays pinned)
    has ``src`` marginalised out under ``src``'s table or imposed rule (a
    free decision has neither, so that deletion is refused); a decision
    without a table just loses the observation."""
    if src not in game.parents_of(dst):
        raise InterventionError(f"edge {src}->{dst} not present")
    remaining = tuple(q for q in game.parents_of(dst) if q != src)
    if dst not in game.cpds:
        return FixObject(dst, remaining, None)
    cpd = _marginalise_out(game, dst, src, remaining)
    return FixObject(dst, remaining, cpd)


# -- side effects and structural analyses ---------------------------------------


@_record
class SideEffectReport:
    """Inter-mechanism edges removed/added by an intervention."""

    removed: frozenset
    added: frozenset

    @property
    def empty(self) -> bool:
        return not self.removed and not self.added


def side_effects(game: CausalGame, intervention) -> SideEffectReport:
    """Diff of inter-mechanism edges after rebuilding the mechanised graph."""
    before = build_mechanised_graph(game).inter_mechanism_edges
    intervened = apply_all(game, [intervention])
    after = build_mechanised_graph(intervened).inter_mechanism_edges
    return SideEffectReport(before - after, after - before)


def predicted_edge_removals(game: CausalGame, p: FixObject) -> set:
    """Removals implied by the severed-edge path criterion.

    An object-level fix on X severs the incoming edges W -> X for parents W
    dropped from the new parent set (plus the rule edge when it pins a
    decision).  An inter-mechanism edge is predicted to disappear when every
    one of its reachability paths crosses a severed edge.  The criterion is
    sufficient, not complete: the rebuilt graph is ground truth.

    No path is enumerated: each rule node's relevance searches run once more
    without traversing the severed edges, colliders kept open as in the
    unsevered graph, and an edge is predicted removed when that second run
    no longer reaches its mechanism.  The two agree because an active trail
    that avoids the severed edges shortcuts to an active simple path that
    avoids them too: the open colliders form an ancestral set.
    """
    if not isinstance(p, FixObject):
        raise InterventionError("the path criterion applies to object fixes")
    severed = {
        (w, p.target)
        for w in game.parents_of(p.target)
        if w not in p.parents
    }
    if game.kind(p.target) == DECISION and p.cpd is not None:
        severed.add((rule_node(p.target), p.target))
    edges = build_mechanised_graph(game).inter_mechanism_edges
    kept = {t: _relevant(game, t, severed) for t in {t for _, t in edges}}
    return {(mech, target) for mech, target in edges if mech not in kept[target]}


def minimum_intervention_set(
    game: CausalGame, mech: str, target: str
) -> tuple[str, ...]:
    """Smallest set of object-level variables breaking a mechanism dependency.

    Each reachability path contributes the set of its on-path nodes with an
    incoming on-path edge (a mechanism node has none); the answer is a
    minimum hitting set over those.  Every path starts with the edge from
    ``mech`` into its own variable, so one node always hits every path: the
    answer is the first name, in sort order, that all the sets share.
    """
    paths = reachability_paths(game, mech, target)
    if not paths:
        raise InterventionError(
            f"dependency already absent: no reachability paths from {mech} "
            f"to {target}"
        )
    shared = set.intersection(*({head for _, head in p.edges()} for p in paths))
    return (min(shared),)


def incentive_invariant(game: CausalGame, intervention) -> bool:
    """Whether the zero/positive reachability pattern survives the intervention.

    Quantifies over mechanism/rule-node pairs present in both the original
    and the intervened game.
    """
    intervened = apply_all(game, [intervention])
    # a mechanism is compared only where it keeps its node name
    mechs = _mechanisms(game).keys() & _mechanisms(intervened).keys()
    return not any(
        (relevant_mechanisms(game, t) ^ relevant_mechanisms(intervened, t))
        & (mechs - {t})
        for t in map(rule_node, game.decisions())
        if t in mechs
    )


# -- decomposition of visible intervention sets ---------------------------------


@_record
class Stage:
    """One stage of a decomposition: primitives applied, then agents fixing.

    ``game`` is the game after this stage's primitives (and every earlier
    stage's).
    """

    primitives: tuple[Primitive, ...]
    agents: frozenset
    tags: frozenset  # of (label, inverted: bool)
    game: CausalGame


@_record
class Decomposition:
    """Ordered primitive stages with the agent partition they serve.

    For every agent in a stage's set, the game after the stages up to and
    including that one structurally equals the game under exactly the
    agent's visible interventions.
    """

    stages: tuple[Stage, ...]
    agent_stage: Mapping[int, int]
    labels: tuple[str, ...]
    final_game: CausalGame


def decompose(
    game: CausalGame,
    interventions: Sequence,
    visibility: Mapping[int, Iterable[str]],
    agent_order: Sequence[int] | None = None,
    merge_common: bool = True,
) -> Decomposition:
    """Stage a labelled intervention set by per-agent visibility.

    ``interventions`` is a sequence of (label, intervention) pairs in
    application order; ``visibility`` maps each agent to the labels it sees
    (absent agents see nothing).  The commonly visible labels form stage 0,
    whose agent set collects everyone seeing exactly the common set; each
    remaining visibility group gets a stage whose primitives first undo the
    previous group's non-shared primitives and then apply its own, and whose
    game is its own interventions applied to the common stage's game.
    Interventions visible to no one are applied in a trailing agentless
    stage.  With ``merge_common=False`` the common stage is skipped, groups
    follow ``agent_order`` directly and each stage undoes everything the
    previous group applied, its game built from the base game.
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
