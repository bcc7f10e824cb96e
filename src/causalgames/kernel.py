"""The contraction kernel: expected utilities and event probabilities.

Expected utilities and event probabilities are partial contractions of the
product of a game's factors (``expectations``): variable elimination over
the ancestors of each value factor, a utility's CPD times its values or an
event's 0/1 indicator, for many rule choices at once, each decision's
stacked in one array (a ``TabularCPD`` is built per answer).  numpy is
imported inside the functions that build or contract arrays, on their first
call, so a program that only reads a game's structure (its graphs,
interventions and validation) never loads it.

The shared mutable state is two caches keyed by structure alone, each
keeping its last ``PLAN_CACHE`` entries: the contraction plans (``_plan``),
holding no array or value, and the read-only pure-rule stacks
(``_rule_stack``) of at most ``DIRECT_SPACE`` entries, 8 MB in all.  A CPD
keeps the arrays built from it (``_cpd_tensor``), and those are read-only.
Those budgets stay in ``model`` with every other constant; ``DIRECT_SPACE``
is read from there on each call.
"""

from __future__ import annotations

import functools
import heapq
import math
from typing import TYPE_CHECKING, Mapping

from . import model
from .errors import SolverError, ValidationError
from .model import (
    DECISION, ENUM_BUDGET, PLAN_CACHE, CausalGame, PolicyProfile, TabularCPD,
    _check_agent, _closure, _factor_cpds,
)

if TYPE_CHECKING:
    import numpy as np


def expected_utility(game: CausalGame, profile: PolicyProfile, agent: int) -> float:
    """Expected sum of the agent's utility variables under the profile."""
    return float(payoff_tensors(game, profile, [agent])[0])


# -- factor contraction -------------------------------------------------------


def payoff_tensors(
    game: CausalGame, profile: PolicyProfile, agents, stacks=None
) -> list[np.ndarray]:
    """Each agent's expected utility for every choice of rules in ``stacks``,
    one axis per stacked decision (``expectations``)."""
    values = [utility_factors(game, [agent]) for agent in agents]
    return expectations(game, profile, values, stacks)


def utility_factors(game: CausalGame, agents) -> list[tuple]:
    """The value factors of the agents' utilities: CPD times values."""
    for agent in agents:
        _check_agent(game, agent)
    return [
        (game.parents_of(u), _cpd_tensor(game, u, game.cpds[u], values=True))
        for agent in agents
        for u in game.utilities_of(agent)
    ]


def event_factor(game: CausalGame, assignment: Mapping[str, object]) -> tuple:
    """The value factor of an event: 1 where every variable takes its value."""
    import numpy as np

    indicator = np.zeros([len(game.domain(n)) for n in assignment])
    indicator[tuple(game.domain(n).index(v) for n, v in assignment.items())] = 1.0
    return tuple(assignment), indicator


def expectations(
    game: CausalGame, profile: PolicyProfile, values, stacks=None, leaf_axis=(),
) -> list[np.ndarray]:
    """The expectation of each value for every choice of rules in ``stacks``.

    A value is a list of value factors ``(labels, array)``: utilities' CPDs
    times their values, or an event's 0/1 indicator.  Each is one contraction
    over its labels' ancestral set.  ``stacks`` maps decisions to arrays
    ``(n_rules, *parent dims, |dom|)`` of rules, each one axis of every result
    (0-d without stacks); the other decisions follow their pinned CPD,
    imposed rule or the profile's rule, which may also be an array laid out
    as ``_cpd_tensor`` lays out a table.  The stacked decisions named in
    ``leaf_axis`` share one axis instead, at the place of the first of them:
    entry ``i`` puts each of them on its ``i``-th rule, linear in the rules.
    """
    import numpy as np

    stacks = dict(stacks or {})
    cpds = _factor_cpds(game, profile, stacks)
    # stack axis labels are tuples, variable labels strings
    axis = {d: ("leaf",) if d in leaf_axis else ("rule", d) for d in stacks}
    size = {axis[d]: len(rules) for d, rules in stacks.items()}
    keep, shape = tuple(size), tuple(size.values())
    factors: dict[str, tuple] = {}

    def factor(name):
        if name not in factors:
            labels = game.parents_of(name) + (name,)
            if name in stacks:
                factors[name] = (axis[name],) + labels, stacks[name]
            elif isinstance(cpd := cpds[name], np.ndarray):
                factors[name] = labels, cpd
            else:
                factors[name] = labels, _cpd_tensor(game, name, cpd)
        return factors[name]

    out = []
    for value in values:
        total = np.zeros(shape)
        for labels, array in value:
            ancestral = _closure(game.parents, labels)  # taken in declaration order
            parts = [factor(n) for n in game.names() if n in ancestral]
            parts.append((labels, array))
            total = total + _contract(parts, keep)
        out.append(total)
    return out


def _cpd_tensor(
    game: CausalGame, name: str, cpd: TabularCPD, values: bool = False
) -> np.ndarray:
    """``cpd`` as an array with one axis per parent, then one for ``name``;
    with ``values``, that axis is summed against ``name``'s domain values (a
    utility's value factor).

    Each array is built once per layout, the domains it is laid out over,
    and kept read-only on the CPD; a copy of the CPD starts without them.
    """
    import numpy as np

    doms = tuple(game.domain(n) for n in (*game.parents_of(name), name))
    kept = vars(cpd).setdefault("_arrays", {})
    array = kept.get((doms, values))
    if array is None:
        _check_axes(len(doms), f"the table of {name}")
        if values:  # without parents, a 0-d array rather than a numpy scalar
            domain_values = np.array(doms[-1], dtype=float)
            array = np.asarray(_cpd_tensor(game, name, cpd) @ domain_values)
        else:
            rows = list(map(cpd.table.__getitem__, game.contexts(name)))
            array = np.array(rows, dtype=float).reshape([len(d) for d in doms])
        array.flags.writeable = False
        kept[doms, values] = array
    return array


@functools.cache
def _max_axes() -> int:
    """numpy's most axes per array: 32 in numpy 1.x, 64 in 2.x.  One einsum
    takes one operand fewer, its output being the last."""
    try:
        from numpy._core.multiarray import MAXDIMS
    except ImportError:  # numpy 1.x
        from numpy.core.multiarray import MAXDIMS
    return MAXDIMS


_SUBSCRIPTS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"  # numpy's, in order


def _max_labels() -> int:
    """Most labels one einsum carries: an axis and a subscript letter each."""
    return min(len(_SUBSCRIPTS), _max_axes())


def _check_axes(count: int, what: str) -> None:
    if count > _max_axes():
        raise SolverError(
            f"{what} needs {count} axes; numpy arrays have at most {_max_axes()}"
        )


def _contract(factors, keep) -> np.ndarray:
    """Sum every label outside ``keep`` out of the product of ``factors``.

    ``factors`` are ``(labels, array)`` pairs, one array axis per label.
    The einsum steps come from ``_plan``, made once per signature (each
    factor's labels and shape, ``keep`` and ``DIRECT_SPACE``) and kept
    among the last ``PLAN_CACHE``; here they run on the arrays.  The result
    has one axis per ``keep`` label, in order, of length 1 where no factor
    carries it.
    """
    import numpy as np

    steps, shape = _plan(
        tuple((scope, array.shape) for scope, array in factors),
        tuple(keep),
        model.DIRECT_SPACE,
    )
    live = [array for _, array in factors]
    for ids, subscripts in steps:
        operands = [live[i] for i in ids]
        for i in ids:
            live[i] = None  # each operand is read once
        live.append(np.einsum(subscripts, *operands))
    return live[-1].reshape(shape)


@functools.lru_cache(maxsize=PLAN_CACHE)
def _plan(signature, keep, space) -> tuple:
    """The einsum steps contracting factors of these ``(labels, shape)``
    onto ``keep``, and the result's shape.

    A step is ``(ids, subscripts)``: its operands' positions in the list
    of the factors followed by each earlier step's result, and its einsum
    subscripts, a letter per label (numpy refuses integer sublists past
    about 256 characters).  When the labels span at most ``space`` index
    entries, one step multiplies all factors at once: ordering costs more
    than it saves on so little arithmetic.  numpy caps the labels of an
    einsum (see ``_max_labels``), so larger sets are ordered too.
    Otherwise variable elimination: the labels go one at a time, each time
    the one whose summed-out factor is smallest (greedy min-size), and one
    step multiplies just the factors that carry it, so no step sees more
    labels than that factor and the label being summed.  Past numpy's
    operand cap the first operands of a step are multiplied apart, onto the
    labels that the rest or its output still carry.  A step over more
    labels than one einsum takes is a ``SolverError``.
    """
    size = {}
    for scope, shape in signature:
        size.update(zip(scope, shape))
    steps = []

    def step(parts, out) -> int:
        """Add the product of ``parts``, ``(id, labels)`` pairs, summed onto
        the labels ``out``; return its id."""
        most = _max_axes() - 1
        while len(parts) > most:
            head, parts = parts[:most], parts[most:]
            need = set(out).union(*(scope for _, scope in parts))
            scope = tuple(dict.fromkeys(x for _, s in head for x in s if x in need))
            parts = [(step(head, scope), scope), *parts]
        labels = dict.fromkeys(x for _, s in parts for x in s)
        if len(labels) > _max_labels():
            raise SolverError(
                f"a contraction step spans {len(labels)} variables; numpy's einsum "
                f"takes at most {_max_labels()}"
            )
        letter = dict(zip(labels, _SUBSCRIPTS))
        subscripts = ",".join("".join(map(letter.get, s)) for _, s in parts)
        subscripts += "->" + "".join(map(letter.get, out))
        steps.append((tuple(i for i, _ in parts), subscripts))
        return len(signature) + len(steps) - 1

    live = {i: scope for i, (scope, _) in enumerate(signature)}
    if len(size) > _max_labels() or math.prod(size.values()) > space:
        holders: dict = {}  # label -> ids of the live factors carrying it, ascending
        for i, scope in live.items():
            for x in scope:
                holders.setdefault(x, []).append(i)
        rank = {x: k for k, x in enumerate(holders)}  # ties go to the first seen

        def merged_scope(label):
            return tuple(dict.fromkeys(
                x for i in holders[label] for x in live[i] if x != label
            ))

        cost = {x: math.prod(size[y] for y in merged_scope(x))
                for x in holders if x not in keep}
        heap = [(c, rank[x], x) for x, c in cost.items()]
        heapq.heapify(heap)
        while heap:
            c, _, label = heapq.heappop(heap)
            if cost.get(label) != c:  # eliminated, or stale
                continue
            del cost[label]
            scope = merged_scope(label)
            ids = holders.pop(label)
            new = step([(i, live.pop(i)) for i in ids], scope)
            live[new] = scope
            for x in scope:
                holders[x] = [i for i in holders[x] if i not in ids] + [new]
            for x in scope:
                if x in cost:
                    cost[x] = math.prod(size[y] for y in merged_scope(x))
                    heapq.heappush(heap, (cost[x], rank[x], x))
    step(list(live.items()), [x for x in keep if x in size])
    return tuple(steps), tuple(size.get(x, 1) for x in keep)


def require_budget(game: CausalGame, decisions) -> None:
    """Raise ``SolverError`` if the decisions have more pure rule profiles
    than ``ENUM_BUDGET``: counted, not built (past 2 ** 100 a count is inf)."""
    count = 1
    for d in decisions:
        n = len(game.domain(d))
        contexts = math.prod(len(game.domain(p)) for p in game.parents_of(d))
        count *= n ** contexts if n < 2 or contexts * math.log2(n) <= 100 else math.inf
    if count > ENUM_BUDGET:
        shown = f"{count:,}" if count < 10 ** 30 else "more than 10^30"
        raise SolverError(
            f"would enumerate {shown} pure rule profiles of "
            f"{', '.join(decisions)}; budget {ENUM_BUDGET:,}"
        )


def enumerate_pure_rules(game: CausalGame, decision: str) -> list[TabularCPD]:
    """All pure decision rules for ``decision``, lexicographically ordered.

    Order: the tuple of actions over contexts (contexts in their
    deterministic order, first context most significant, actions in domain
    order).  Count: |dom(D)| ** |dom(Pa_D)|.  A view of ``_pure_rules``, one
    ``TabularCPD`` per rule; the solvers use the stack itself.
    """
    if game.kind(decision) != DECISION:
        raise ValidationError(f"{decision!r} is not a decision variable")
    require_budget(game, [decision])
    return [_rule_of(game, decision, rule) for rule in _pure_rules(game, decision)]


def _pure_rules(game: CausalGame, decision: str) -> np.ndarray:
    """Every pure rule of ``decision``, one-hot and read-only, in
    ``enumerate_pure_rules`` order: rule k plays the base-|dom| digits of k
    over the contexts, first context most significant.  The caller checks
    the budget.  A stack of at most ``DIRECT_SPACE`` entries is shared by
    every decision of its layout (``_rule_stack``); a larger one is built
    per call."""
    n = len(game.domain(decision))
    dims = tuple(len(game.domain(p)) for p in game.parents_of(decision))
    _check_axes(len(dims) + 2, f"the rule stack of {decision}")
    k = math.prod(dims)
    if n ** k * k * n <= model.DIRECT_SPACE:
        return _rule_stack(n, dims)
    return _rule_stack.__wrapped__(n, dims)


@functools.lru_cache(maxsize=PLAN_CACHE)
def _rule_stack(n: int, dims: tuple) -> np.ndarray:
    """The read-only one-hot stack of every pure rule of |dom| ``n`` over
    parents of sizes ``dims`` (see ``_pure_rules``)."""
    import numpy as np

    k = math.prod(dims)
    # digits by division, not np.indices, which stops at 64 dimensions
    digits = np.arange(n ** k)[:, None] // n ** np.arange(k)[::-1] % n
    rules = np.eye(n)[digits].reshape(-1, *dims, n)
    rules.flags.writeable = False
    return rules


def _rule_of(game: CausalGame, decision: str, array) -> TabularCPD:
    """One stack entry (parent dims, then |dom|) as a ``TabularCPD``."""
    rows = zip(game.contexts(decision), array.reshape(-1, array.shape[-1]).tolist())
    return TabularCPD(decision, game.parents_of(decision), dict(rows))
