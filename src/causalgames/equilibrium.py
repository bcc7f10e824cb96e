"""Equilibrium computation: best responses, Nash enumeration, commitment.

Every solver reads contractions of the game's factors (``kernel``), never
a joint table.  Pure equilibria, best responses, verification and
commitment read payoff tensors (``kernel.payoff_tensors``): each free
decision's pure rules lie on one axis, as one one-hot array, and variable
elimination gives an agent's expected utility for every rule choice at
once.  ``TabularCPD`` objects are built only for the rules a solver
returns.  Behavioral equilibria for small two-agent games come from
support enumeration as array algebra: one contraction gives every action
value's coefficients, every support pattern's indifference system is a
sub-matrix of one array per decision, all of them row-reduced together,
and underdetermined solutions are reported as parametric families with
interval parameters; candidates' corners are verified from the same
coefficients (each payoff is bilinear in the two rules), ``STABLE_CHUNK``
corners at a time, with no further contraction.  Commitment reads the
same interval routine (``_bounds``): a follower response's best-response
inequalities are affine in the one commitment probability.
Rule-fixed (committed) and object-fixed decisions are constants throughout;
only free decisions are strategic, and every solver's rationality relation
is best response.

Results are deterministic: profiles enumerate in (decision order, rule
index) order.
"""

from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING

from .errors import SolverError, ValidationError
from .kernel import (
    _cpd_tensor,
    _pure_rules,
    _rule_of,
    expectations,
    payoff_tensors,
    require_budget,
    utility_factors,
)
from .model import (
    COEFF_EPS, COMMIT_EPS, EQ_EPS, PIVOT_EPS, ROUND_DIGITS, SAME_POINT_EPS,
    STABLE_CHUNK, VERIFY_EPS,
    CausalGame,
    PolicyProfile,
    TabularCPD,
    _check_agent,
    _record,
    field,
)

if TYPE_CHECKING:
    import numpy as np


def _pure_stacks(game: CausalGame, decisions) -> dict:
    require_budget(game, decisions)
    return {d: _pure_rules(game, d) for d in decisions}


def _profiles(game, stacks: dict, at) -> list[PolicyProfile]:
    """The pure profiles playing the rule indices ``at`` (one per decision of
    ``stacks``): one ``TabularCPD`` per (decision, rule index), shared by
    every profile that plays it, so equal rules are the same object."""
    rule = functools.cache(lambda d, i: _rule_of(game, d, stacks[d][i]))
    return [PolicyProfile({d: rule(d, i) for d, i in zip(stacks, ix)}) for ix in at]


def best_responses(
    game: CausalGame, agent: int, others: PolicyProfile
) -> list[PolicyProfile]:
    """All pure policies maximising the agent's expected utility.

    ``others`` must cover exactly the free decisions not owned by the agent.
    Ties are all returned, in deterministic enumeration order.
    """
    _check_agent(game, agent)
    needed = set(game.free_decisions()) - set(game.free_decisions_of(agent))
    have = set(others.decisions())
    if have != needed:
        raise ValidationError(
            f"profile for other agents must cover exactly {sorted(needed)}, "
            f"got {sorted(have)}"
        )
    import numpy as np

    stacks = _pure_stacks(game, game.free_decisions_of(agent))
    [payoff] = payoff_tensors(game, others, [agent], stacks)
    best = np.argwhere(payoff >= payoff.max() - EQ_EPS)
    return _profiles(game, stacks, best.tolist())


def verify_rational_outcome(
    game: CausalGame,
    profile: PolicyProfile,
    eps: float = EQ_EPS,
) -> bool:
    """True iff no agent has a pure deviation improving their utility by > eps.

    Pure deviations suffice in finite games: some pure policy always attains
    the best-response value against the rest of the profile.  One payoff
    tensor per agent: each of the agent's free decisions stacks its pure
    rules, then the profile's rule, so the all-played entry is the last.
    """
    import numpy as np

    if not profile.is_full(game):
        raise ValidationError("profile must cover every free decision")
    stable = True
    for agent in range(1, game.n_agents + 1):
        if not (own := game.free_decisions_of(agent)):
            continue
        stacks = {
            d: np.concatenate([pure, _cpd_tensor(game, d, profile[d])[None]])
            for d, pure in _pure_stacks(game, own).items()
        }
        [payoff] = payoff_tensors(game, profile, [agent], stacks)
        best = payoff[(slice(-1),) * len(own)].max()
        stable &= not best > payoff[(-1,) * len(own)] + eps
    return stable


@_record
class FreeParam:
    """A free behavioral parameter with its admissible interval."""

    name: str
    low: float
    high: float


@_record
class BehavioralFamily:
    """A parametric family of equilibria.

    ``entries`` maps (decision, context), each decision's contexts in the
    game's order, to either a float (the probability of the decision's first
    action) or a parameter name.  Instantiating at a parameter assignment
    yields a concrete profile, its tables' rows in that order.
    """

    decisions: tuple[str, ...]
    entries: dict
    params: tuple[FreeParam, ...]
    _parents: dict = field(default_factory=dict, compare=False)

    def instantiate(self, values: dict) -> PolicyProfile:
        tables = {d: {} for d in self.decisions}
        for (d, ctx), entry in self.entries.items():
            p = values[entry] if isinstance(entry, str) else entry
            tables[d][ctx] = (p, 1.0 - p)
        return PolicyProfile(
            {d: TabularCPD(d, self._parents[d], t) for d, t in tables.items()}
        )

    def extreme_profiles(self) -> list[PolicyProfile]:
        """Profiles at every corner of the parameter box (one without
        parameters), the first parameter most significant."""
        names = [p.name for p in self.params]
        corners = itertools.product(*[(p.low, p.high) for p in self.params])
        return [self.instantiate(dict(zip(names, c))) for c in corners]


@_record
class RationalOutcomeSet:
    """Equilibria of a game: point profiles plus parametric families."""

    outcomes: tuple[PolicyProfile, ...]
    families: tuple[BehavioralFamily, ...] = ()

    def extreme_profiles(self) -> list[PolicyProfile]:
        out = list(self.outcomes)
        for fam in self.families:
            out.extend(fam.extreme_profiles())
        return out


def _pure_equilibria(game: CausalGame) -> tuple[dict, list[list[int]]]:
    """Every free decision's read-only pure-rule stack and, for each pure
    equilibrium in enumeration order, the rule index it plays per decision.

    Each agent's payoff tensor has one axis per free decision, stacking its
    pure rules; a profile is kept unless, for some agent, the maximum over
    that agent's own axes exceeds their entry by more than ``EQ_EPS``, that
    is, some joint deviation of their own decisions improves.
    """
    import numpy as np

    decisions = game.free_decisions()
    stacks = _pure_stacks(game, decisions)
    owned = {
        a: tuple(i for i, d in enumerate(decisions) if game.agent_of(d) == a)
        for a in range(1, game.n_agents + 1)
    }
    agents = [a for a, own in owned.items() if own]
    stable = np.ones(tuple(len(rules) for rules in stacks.values()), dtype=bool)
    payoffs = payoff_tensors(game, PolicyProfile({}), agents, stacks)
    for a, payoff in zip(agents, payoffs):
        stable &= ~(payoff.max(axis=owned[a], keepdims=True) > payoff + EQ_EPS)
    return stacks, np.argwhere(stable).tolist()


def pure_nash(game: CausalGame) -> RationalOutcomeSet:
    """Every pure full profile that is an equilibrium, in enumeration order
    (``_pure_equilibria``)."""
    stacks, at = _pure_equilibria(game)
    return RationalOutcomeSet(tuple(_profiles(game, stacks, at)))


# -- behavioral equilibria via support enumeration ---------------------------


def _check_behavioral_supported(game: CausalGame):
    agents = sorted(
        {game.agent_of(d) for d in game.free_decisions()}
    )
    if len(agents) > 2:
        raise SolverError("unsupported size: more than 2 strategic agents")
    for a in agents:
        if len(game.free_decisions_of(a)) > 1:
            raise SolverError(
                "unsupported size: an agent owns more than one free decision"
            )
    for d in game.free_decisions():
        if len(game.domain(d)) != 2:
            raise SolverError("unsupported size: non-binary decision domain")
        if len(game.contexts(d)) > 4:
            raise SolverError("unsupported size: more than 4 decision contexts")


def _coefficients(game: CausalGame, decisions) -> tuple[np.ndarray, np.ndarray]:
    """Every free decision's ``(w, reach)``, all from one contraction.

    ``w[k, c, a, c2, b]`` sums decision ``k``'s owner's utility total,
    weighted by the pinned factors alone, over the instantiations in which
    the decision plays ``a`` in its context ``c`` and the other free
    decision ``b`` in its context ``c2``; ``reach`` says whether those
    instantiations have any weight (the factors are non-negative, so a sum
    is non-zero exactly when some term is).  Each decision stacks one
    indicator rule per (context, action), the rows of an identity matrix,
    and every value factor carries both decisions' labels, so neither is
    summed out where a utility ignores it.  Both blocks are padded with
    zeros to the larger context count, and a missing decision has a block
    of zeros (and one context of zeros in the other's), so padded slots are
    never reached and padded columns add nothing.
    """
    import numpy as np

    shapes = {d: [len(game.domain(x)) for x in (*game.parents_of(d), d)]
              for d in decisions}  # parent dims, then the decision's
    stacks = {d: np.eye(np.prod(s)).reshape(-1, *s) for d, s in shapes.items()}

    def over_decisions(labels, array):
        extra = tuple(d for d in decisions if d not in labels)
        array = array.reshape(array.shape + (1,) * len(extra))
        shape = array.shape[:len(labels)] + tuple(shapes[d][-1] for d in extra)
        return labels + extra, np.broadcast_to(array, shape)

    values = [
        [over_decisions(*f) for f in utility_factors(game, [game.agent_of(d)])]
        for d in decisions
    ]
    values.append([over_decisions((), np.ones(()))])
    *totals, weight = expectations(game, PolicyProfile({}), values, stacks)
    sizes = [len(game.contexts(d)) for d in decisions]
    shape = [*(n for c in sizes for n in (c, 2)), 1, 1][:4]
    size = max(sizes, default=1)
    w = np.zeros((2, size, 2, size, 2))
    reach = np.zeros(w.shape, dtype=bool)
    for k, total in enumerate(totals):
        pair = total.reshape(shape), weight.reshape(shape) != 0.0
        if k:  # the decision's own axes first
            pair = [x.transpose(2, 3, 0, 1) for x in pair]
        for out, x in zip((w, reach), pair):
            out[k, :x.shape[0], :, :x.shape[2], :x.shape[3]] = x
    return w, reach


def _action_values(coefficients, other):
    """Every slot of each free decision, for each support pattern of the
    other free decision: whether it is reached, and its two action values.

    ``coefficients`` is ``(w, reach)`` from ``_coefficients``.  Row
    ``other[k, p]`` gives decision ``k``'s other decision's support in
    each of its contexts: 0 (its first action), 1 (its second) or 2 (both);
    padded contexts, and the context standing for no other decision, are
    0.  A slot is reached when some instantiation of positive weight puts
    the other decision inside its support.  The value of action ``a`` at
    slot ``c``, d E[U^agent] / d pi(a | c), is ``const[k, p, c, a] +
    coef[k, p, c, a] @ q``, where ``q`` holds the other decision's
    probability of its first action per context: a context with both
    actions adds ``q * w[..., 0] + (1 - q) * w[..., 1]`` and one with a
    single action its entry, so the coefficients of single-action contexts,
    and those at or below ``COEFF_EPS``, are 0.
    """
    import numpy as np

    w, reach = coefficients
    k, c2 = np.arange(len(w))[:, None, None], np.arange(w.shape[3])
    # the entry each support's constant reads, and the actions it allows
    const = w[..., [0, 1, 1]][k, :, :, c2, other].sum(2)
    allowed = np.array([[1, 0], [0, 1], [1, 1]], dtype=bool)
    hit = (reach.any(2)[..., None, :] & allowed).any(-1)  # (k, c, c2, support)
    reached = hit[k, :, c2, other].any(2)
    slope = w[..., 0] - w[..., 1]
    slope = np.where(np.abs(slope) > COEFF_EPS, slope, 0.0)
    coef = np.where((other == 2)[:, :, None, None], slope[:, None], 0.0)
    return reached, const, coef


def _reduce(m):
    """Gauss-Jordan elimination of a batch of augmented systems, in place.

    ``m`` is (systems, rows, unknowns + 1), each row its coefficients, then
    its right-hand side.  Each unknown in turn pivots on the first row not
    yet used whose coefficient exceeds ``PIVOT_EPS``: that row moves up to
    the next place and is scaled to 1 there, and the unknown is eliminated
    from every other row whose coefficient exceeds ``PIVOT_EPS``.  Returns
    which unknowns pivot, (systems, unknowns): a system's k-th row belongs to
    its k-th pivot, and its rows past the last pivot are left over.
    """
    import numpy as np

    n, rows, width = m.shape
    at = np.arange(rows)
    used = np.zeros(n, dtype=int)
    pivots = []
    for c in range(width - 1):
        open_rows = (np.abs(m[:, :, c]) > PIVOT_EPS) & (at >= used[:, None])
        pivots.append(open_rows.any(1))
        hit = np.flatnonzero(pivots[-1])
        r, p = used[hit], open_rows[hit].argmax(1)
        m[hit, r], m[hit, p] = m[hit, p], m[hit, r]
        m[hit, r] /= m[hit, r, c][:, None]
        column = m[hit, :, c]
        rest = (np.abs(column) > PIVOT_EPS) & (at != r[:, None])
        m[hit] -= np.where(rest, column, 0.0)[:, :, None] * m[hit, r][:, None]
        used += pivots[-1]
    return np.stack(pivots, axis=1)


def _bounds(coef, const, eps):
    """The interval each unknown's inequalities leave it in [0, 1].

    Row ``r`` of ``coef`` (..., rows, unknowns) and ``const`` (..., rows)
    requires ``coef[r] @ q + const[r] >= 0`` and has at most one non-zero
    coefficient (a row without one bounds nothing).  Returns ``(low, high,
    fits)``: each unknown's bounds, clipped into [0, 1] with ``low <=
    high``, and whether no interval is empty by more than ``eps``.
    """
    import numpy as np

    with np.errstate(divide="ignore", invalid="ignore"):
        limit = -const[..., None] / coef
    low = np.where(coef > 0, limit, 0.0).max(-2, initial=0.0)
    high = np.where(coef < 0, limit, 1.0).min(-2, initial=1.0)
    fits = ~(low > high + eps).any(-1)
    high = np.maximum(high, 0.0)
    return np.minimum(np.minimum(low, 1.0), high), high, fits


def _verified(w, blocks, values, free, low, high):
    """Which candidates are equilibria at every corner, read off the
    coefficients ``w`` of ``_coefficients``, ``STABLE_CHUNK`` corners at a
    time.

    Candidate ``i`` plays each decision's first action with probability
    ``values[i]`` per slot, its free slots at ``low[i]`` or ``high[i]``:
    ``2^k`` corners in ``extreme_profiles`` order, the first free slot most
    significant.  ``blocks[k]`` lists decision ``k``'s slots, padded with
    ``len(values[i])``, which plays the first action (so a missing decision
    plays it in its one zero context, as in ``_action_values``).  At a
    corner, action ``a`` in context ``c`` is worth ``base[k, c, a] + q @
    slope[k, c, a]`` to decision ``k``'s owner, ``q`` the other decision's
    first-action probabilities; the owner's best pure deviation is the sum
    over contexts of the larger value, and the corner is stable when, for
    each owner, it beats the played mixture by at most ``VERIFY_EPS``.
    """
    import numpy as np

    base, slope = w[..., 1].sum(-1), w[..., 0] - w[..., 1]
    count = 2 ** free.sum(1)
    ends = np.cumsum(count)
    later = free[:, ::-1].cumsum(1)[:, ::-1] - free  # free slots after each
    stable = []
    for start in range(0, ends[-1], STABLE_CHUNK):
        corner = np.arange(start, min(start + STABLE_CHUNK, ends[-1]))
        i = np.searchsorted(ends, corner, side="right")
        at_high = (corner - ends[i] + count[i])[:, None] >> later[i] & 1
        p = np.where(free[i], np.where(at_high, high[i], low[i]), values[i])
        p = np.append(p, np.ones((len(p), 1)), 1)[:, blocks]  # (corner, k, c)
        value = base + (p[:, ::-1, None, None] * slope).sum(-1)  # (corner, k, c, a)
        worth = (p * value[..., 0] + (1.0 - p) * value[..., 1]).sum(-1)
        best = value.max(-1).sum(-1)
        stable.append(~(best > worth + VERIFY_EPS).any(1))
    return np.logical_and.reduceat(np.concatenate(stable), ends - count)


def behavioral_nash_small(game: CausalGame) -> RationalOutcomeSet:
    """Behavioral equilibria of a small game via support enumeration.

    Supported games: at most two strategic agents, one free decision each,
    binary actions, at most four contexts per decision.  For each profile of
    per-context supports the indifference system (linear in the opponent's
    probabilities) is solved; solutions in [0,1] that survive the
    best-response inequalities are kept.  Probabilities left unconstrained
    (typically at unreached contexts) become family parameters whose
    admissible interval comes from the inequalities.

    All patterns are solved together: a decision's action values are affine
    in the other decision's probabilities only, so each pattern's system is
    one block per decision, rows its mixed reached slots and columns the
    other decision's mixed slots, every other entry 0.  Coupled families
    (a consistent system pinning a probability to a free one, or a first
    bad inequality with two free ones) are refused.
    """
    import numpy as np

    _check_behavioral_supported(game)
    decisions = game.free_decisions()
    slots = [(d, tuple(ctx)) for d in decisions for ctx in game.contexts(d)]
    n = len(slots)
    # every pattern, in itertools.product order: per slot 0 (the first
    # action), 1 (the second) or 2 (both), then a column n of 0s
    powers = 3 ** np.array([*range(n)][::-1] + [n])
    support = np.arange(3 ** n)[:, None] // powers % 3
    coefficients = _coefficients(game, decisions)
    size = coefficients[0].shape[1]
    # block k: decision k's slots as rows, the other decision's as columns,
    # padded to ``size`` with column n (a missing decision has no slots)
    index = [[i for i, (d, _) in enumerate(slots) if d == x] for x in decisions]
    index += [[]] * (2 - len(index))
    blocks = np.array([x + [n] * (size - len(x)) for x in index], dtype=int)
    own, other = (support[:, b].transpose(1, 0, 2) for b in (blocks, blocks[::-1]))
    reached, const, coef = _action_values(coefficients, other)
    gap = coef[..., 0, :] - coef[..., 1, :]  # first action's value minus second's
    diff = const[..., 0] - const[..., 1]
    m = np.where((reached & (own == 2))[..., None],
                 np.concatenate([gap, -diff[..., None]], -1), 0.0)
    pivots = _reduce(m.reshape(-1, size, size + 1)).reshape(other.shape)
    left = np.arange(size) >= pivots.sum(-1, keepdims=True)
    solvable = ~(left & (np.abs(m[..., -1]) > PIVOT_EPS)).any((0, 2))
    coupled = (~left & ((np.abs(m[..., :-1]) > PIVOT_EPS).sum(-1) > 1)).any((0, 2))
    value = np.take_along_axis(m[..., -1], np.maximum(pivots.cumsum(-1) - 1, 0), -1)
    in_range = ~(pivots & ((value < -EQ_EPS) | (value > 1.0 + EQ_EPS))).any((0, 2))
    value = np.clip(value, 0.0, 1.0)
    # the single action's value minus the other's, at the pinned values,
    # must be >= -EQ_EPS
    sign = np.where(own == 0, 1.0, -1.0)
    a = sign[..., None] * gap
    b = sign * diff + np.where(
        pivots[..., None, :], a * value[..., None, :], 0.0
    ).sum(-1)
    unpinned = (other == 2) & ~pivots
    a = np.where(unpinned[..., None, :] & (np.abs(a) > COEFF_EPS), a, 0.0)
    frees = (a != 0.0).sum(-1)
    inequality = reached & (own < 2)
    low, high, fits = _bounds(
        np.where((inequality & (frees == 1))[..., None], a, 0.0), b, EQ_EPS
    )
    # each slot's row in its decision's block, and column in the other's
    block = np.array([k for k, x in enumerate(index) for _ in x], dtype=int)
    at = np.array([i for x in index for i in range(len(x))], dtype=int)

    def columns(x):
        return x[1 - block, :, at].T

    violated = (inequality & (frees == 0) & (b < -EQ_EPS))[block, :, at].T
    joint = (inequality & (frees > 1))[block, :, at].T
    # a pattern whose first bad inequality couples two free probabilities
    joint_first = (joint & (np.cumsum(violated | joint, axis=1) == 1)).any(1)
    refused = solvable & (coupled | (in_range & joint_first))
    if refused.any():
        raise SolverError(
            "unsupported size: coupled parametric equilibrium family"
            if coupled[refused.argmax()] else
            "unsupported size: inequality couples two family parameters"
        )
    kept = np.flatnonzero(solvable & in_range & ~violated.any(1) & fits.all(0))
    if not len(kept):
        return RationalOutcomeSet(())
    pinned = columns(pivots)[kept]
    free = (support[kept, :n] == 2) & ~pinned
    values = np.where(pinned, columns(value)[kept], support[kept, :n] == 0)
    low, high = columns(low)[kept], columns(high)[kept]
    for bound in (low, high):  # the reported digits, also at the corners
        bound[free] = [round(x, ROUND_DIGITS) for x in bound[free].tolist()]

    # candidates stable at every corner (a point, or a family's 2^k
    # corners), kept in pattern order unless already found
    stable = _verified(coefficients[0], blocks, values, free, low, high)
    parents = {d: game.parents_of(d) for d in decisions}
    points: list[PolicyProfile] = []
    families: list[BehavioralFamily] = []
    # kept candidates' pinned entries, by which slots are free and their bounds
    seen: dict[tuple, list] = {}
    for i in np.flatnonzero(stable).tolist():
        names = [f"q{s}" if f else None for s, f in enumerate(free[i].tolist())]
        params = tuple(
            FreeParam(u, lo, hi)
            for u, lo, hi in zip(names, low[i].tolist(), high[i].tolist()) if u
        )
        entries = [u or v for u, v in zip(names, values[i].tolist())]
        fixed = [e for e in entries if not isinstance(e, str)]
        found = seen.setdefault((tuple(names), params), [])
        if any(
            all(abs(x - y) <= SAME_POINT_EPS for x, y in zip(fixed, f))
            for f in found
        ):
            continue
        found.append(fixed)
        family = BehavioralFamily(
            decisions, dict(zip(slots, entries)), params, _parents=parents
        )
        if params:
            families.append(family)
        else:
            points.append(family.instantiate({}))
    return RationalOutcomeSet(tuple(points), tuple(families))


# -- commitment ----------------------------------------------------------------


def _leader_and_follower(game: CausalGame, leader: int) -> tuple[str, int | None]:
    """The leader's one free decision and the one agent owning the other
    free decisions (``None`` when there are none)."""
    _check_agent(game, leader)
    decisions = game.free_decisions_of(leader)
    if len(decisions) != 1:
        raise SolverError(
            "commitment optimisation requires the leader to own exactly one "
            f"free decision, found {len(decisions)}"
        )
    followers = {game.agent_of(d) for d in game.free_decisions()} - {leader}
    if len(followers) > 1:
        raise SolverError("commitment supports at most one follower agent")
    return decisions[0], (followers.pop() if followers else None)


def optimal_commitment(game: CausalGame, leader: int) -> tuple[TabularCPD, float]:
    """Best stochastic rule for the leader to commit to, and its value.

    The multiple-LP method of Conitzer & Sandholm (EC 2006) for a
    one-parameter leader: for each follower pure response, ``_bounds`` (the
    interval routine of support enumeration) intersects its best-response
    inequalities, affine in the commitment probability, into an interval,
    and the leader's affine utility is maximised over each interval's
    closure; candidate maxima at region boundaries implement
    leader-favourable tie-breaking.  Without a follower the one response's
    interval is [0, 1].  Leader values within ``COMMIT_EPS`` are ties, won
    by the earlier candidate: responses in enumeration order, each interval's
    low end first.
    """
    dec, follower = _leader_and_follower(game, leader)
    domain = game.domain(dec)
    contexts = game.contexts(dec)
    if len(domain) != 2 or len(contexts) != 1:
        raise SolverError(
            "commitment optimisation supports binary single-context "
            "leader decisions only"
        )
    import numpy as np  # here, so a refused game never loads numpy

    ctx = tuple(contexts[0])
    parents = game.parents_of(dec)

    def committed_rule(p: float) -> TabularCPD:
        return TabularCPD(dec, parents, {ctx: (p, 1.0 - p)})

    follower_decisions = tuple(d for d in game.free_decisions() if d != dec)
    # the commitment at p = 0 and p = 1, then every pure follower response
    committed = [_cpd_tensor(game, dec, committed_rule(p)) for p in (0.0, 1.0)]
    stacks = {dec: np.stack(committed)}
    stacks.update(_pure_stacks(game, follower_decisions))

    def affine(payoff):
        """(slope, intercept at p=0) of a utility, per follower response."""
        return [(v1 - v0, v0) for v0, v1 in zip(*payoff.reshape(2, -1).tolist())]

    # response i is a best response where (f_i - f_j)(p) >= 0 for every j; a
    # follower-less game's one response is one everywhere, whatever its line
    l_affine, f_affine = map(affine, payoff_tensors(
        game, PolicyProfile({}), [leader, follower or leader], stacks
    ))
    f = np.array(f_affine)
    gap = f[:, None] - f[None]
    slope = np.where(np.abs(gap[..., 0]) <= COMMIT_EPS, 0.0, gap[..., 0])
    low, high, fits = _bounds(slope[..., None], gap[..., 1], COMMIT_EPS)
    fits &= ~((slope == 0.0) & (gap[..., 1] < -COMMIT_EPS)).any(-1)
    ends = np.concatenate([low, high], 1) + 0.0  # no -0.0 from a -0.0 / slope bound
    candidates = [
        (p, la * p + lb)
        for (la, lb), kept, pair in zip(l_affine, fits.tolist(), ends.tolist())
        if kept
        for p in pair
    ]
    best_p, best_v = candidates[0]
    for p, v in candidates[1:]:
        if v > best_v + COMMIT_EPS:
            best_p, best_v = p, v
    return committed_rule(best_p), best_v
