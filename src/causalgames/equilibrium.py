"""Equilibrium computation: best responses, Nash enumeration, commitment.

Every solver reads contractions of the game's factors (``model``), never
a joint table.  Pure equilibria, best responses, verification and
commitment read payoff tensors (``model.payoff_tensors``): each free
decision's pure rules lie on one axis, as one one-hot array, and variable
elimination gives an agent's expected utility for every rule choice at
once.  ``TabularCPD`` objects are built only for the rules a solver
returns.  Behavioral equilibria for small two-agent games come from
support enumeration: one contraction gives every action value's
coefficients, each decision's slot values are formed once per support of
the other decision, the indifference/consistency system is solved per
support pattern, and underdetermined solutions are reported as parametric
families with interval parameters; candidates are verified together, one
contraction per agent for every ``STABLE_CHUNK`` profiles.
Rule-fixed (committed) and object-fixed decisions are constants throughout;
only free decisions are strategic.

Results are deterministic: profiles enumerate in (decision order, rule
index) order and sampling is a pure function of the seed.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import SolverError, ValidationError
from .graphs import BEST_RESPONSE, RationalityRelation, rule_node
from .interventions import FixMechanism, apply_primitive
from .model import (
    COEFF_EPS, COMMIT_EPS, ENUM_BUDGET, EQ_EPS, PIVOT_EPS, ROUND_DIGITS,
    SAME_POINT_EPS, STABLE_CHUNK, VERIFY_EPS,
    CausalGame,
    PolicyProfile,
    TabularCPD,
    _pure_rules,
    _rule_of,
    _rule_stack,
    cpds_equal,
    expectations,
    expected_utility,
    payoff_tensors,
    require_budget,
    utility_factors,
)

if TYPE_CHECKING:
    import numpy as np


def _require_best_response(relation: RationalityRelation):
    if relation.name != "best_response":
        raise SolverError(
            f"rationality relation {relation.name!r} has no solver"
        )


def _pure_stacks(game: CausalGame, decisions) -> dict:
    require_budget(game, decisions)
    return {d: _pure_rules(game, d) for d in decisions}


def _profiles_where(game, stacks: dict, mask: np.ndarray) -> list[PolicyProfile]:
    """The pure profiles at the true entries of ``mask``, in enumeration
    order: one ``TabularCPD`` per (decision, rule index), shared by every
    profile that plays it, so equal rules are the same object."""
    import numpy as np

    rule = functools.cache(lambda d, i: _rule_of(game, d, stacks[d][i]))
    return [
        PolicyProfile({d: rule(d, i) for d, i in zip(stacks, at)})
        for at in np.argwhere(mask).tolist()
    ]


def best_responses(
    game: CausalGame,
    agent: int,
    others: PolicyProfile,
    eps: float = EQ_EPS,
) -> list[PolicyProfile]:
    """All pure policies maximising the agent's expected utility.

    ``others`` must cover exactly the free decisions not owned by the agent.
    Ties are all returned, in deterministic enumeration order.
    """
    if not (1 <= agent <= game.n_agents):
        raise ValidationError(f"unknown agent index {agent}")
    needed = set(game.free_decisions()) - set(game.free_decisions_of(agent))
    have = set(others.decisions())
    if have != needed:
        raise ValidationError(
            f"profile for other agents must cover exactly {sorted(needed)}, "
            f"got {sorted(have)}"
        )
    stacks = _pure_stacks(game, game.free_decisions_of(agent))
    [payoff] = payoff_tensors(game, others, [agent], stacks)
    return _profiles_where(game, stacks, payoff >= payoff.max() - eps)


def verify_rational_outcome(
    game: CausalGame,
    profile: PolicyProfile,
    relation: RationalityRelation = BEST_RESPONSE,
    eps: float = EQ_EPS,
) -> bool:
    """True iff no agent has a pure deviation improving their utility by > eps.

    Pure deviations suffice in finite games: some pure policy always attains
    the best-response value against the rest of the profile.
    """
    _require_best_response(relation)
    if not profile.is_full(game):
        raise ValidationError("profile must cover every free decision")
    [stable] = _stable(game, [profile], eps)
    return stable


def _stable(game: CausalGame, profiles, eps: float):
    """Yield, for each full profile, whether no agent has a pure deviation
    gaining more than ``eps``: one contraction per agent for every
    ``STABLE_CHUNK`` profiles, so memory stays bounded however many come.

    Each of the agent's free decisions stacks its pure rules, then the
    chunk's rules; the other free decisions share one axis of the chunk's
    rules (each decision's chunk stack is built once for every agent).
    Profile ``i`` is worth the entry at its own rules on every axis, and its
    best deviation is the largest entry over the pure rules at ``i`` on the
    shared axis.  Entries the profiles give for decisions that are not free
    are checked and ignored, as the kernel does for any profile.
    """
    import numpy as np

    decisions = game.free_decisions()
    agents = [
        (utility_factors(game, [agent]), own, _pure_stacks(game, own))
        for agent in range(1, game.n_agents + 1)
        if (own := game.free_decisions_of(agent))
    ]
    profiles = iter(profiles)
    while chunk := list(itertools.islice(profiles, STABLE_CHUNK)):
        n = len(chunk)
        extra = PolicyProfile({
            d: rule for p in chunk for d, rule in p.rules.items()
            if d not in decisions
        })
        played = {d: _rule_stack(game, d, [p[d] for p in chunk]) for d in decisions}
        at = np.arange(n)
        stable = np.ones(n, dtype=bool)
        for utility, own, pure in agents:
            stacks = {d: np.concatenate([pure[d], played[d]]) for d in own}
            others = [d for d in decisions if d not in stacks]
            stacks.update({d: played[d] for d in others})
            [payoff] = expectations(game, extra, [utility], stacks, others)
            # the shared axis is missing when the agent owns every free
            # decision; the broadcast supplies it
            payoff = np.broadcast_to(
                payoff.reshape(payoff.shape[:len(own)] + (-1,)),
                tuple(len(stacks[d]) for d in own) + (n,),
            )
            best = payoff[tuple(slice(len(pure[d])) for d in own)]
            worth = payoff[tuple(len(pure[d]) + at for d in own) + (at,)]
            stable &= ~(best.reshape(-1, n).max(axis=0) > worth + eps)
        yield from stable.tolist()


@dataclass(frozen=True)
class FreeParam:
    """A free behavioral parameter with its admissible interval."""

    name: str
    low: float
    high: float


@dataclass(frozen=True)
class BehavioralFamily:
    """A parametric family of equilibria.

    ``entries`` maps (decision, context) to either a float (the probability
    of the decision's first action) or a parameter name.  Instantiating at a
    parameter assignment yields a concrete profile.
    """

    decisions: tuple[str, ...]
    entries: dict
    params: tuple[FreeParam, ...]
    _contexts: dict = field(default_factory=dict, compare=False)
    _parents: dict = field(default_factory=dict, compare=False)

    def instantiate(self, values: dict) -> PolicyProfile:
        rules = {}
        for d in self.decisions:
            table = {}
            for ctx in self._contexts[d]:
                entry = self.entries[(d, ctx)]
                p = values[entry] if isinstance(entry, str) else entry
                table[ctx] = (p, 1.0 - p)
            rules[d] = TabularCPD(d, self._parents[d], table)
        return PolicyProfile(rules)

    def extreme_profiles(self) -> list[PolicyProfile]:
        """Profiles at every corner of the parameter box."""
        if not self.params:
            return [self.instantiate({})]
        corners = itertools.product(
            *[(p.low, p.high) for p in self.params]
        )
        out = []
        for corner in corners:
            values = {p.name: v for p, v in zip(self.params, corner)}
            out.append(self.instantiate(values))
        return out


@dataclass(frozen=True)
class RationalOutcomeSet:
    """Equilibria of a game: point profiles plus parametric families."""

    outcomes: tuple[PolicyProfile, ...]
    families: tuple[BehavioralFamily, ...] = ()
    mode: str = "pure_exhaustive"

    def extreme_profiles(self) -> list[PolicyProfile]:
        out = list(self.outcomes)
        for fam in self.families:
            out.extend(fam.extreme_profiles())
        return out


def pure_nash(
    game: CausalGame,
    relation: RationalityRelation = BEST_RESPONSE,
    eps: float = EQ_EPS,
) -> RationalOutcomeSet:
    """Every pure full profile that is an equilibrium, in enumeration order.

    Each agent's payoff tensor has one axis per free decision, stacking its
    pure rules; a profile is kept unless, for some agent, the maximum over
    that agent's own axes exceeds their entry by more than ``eps``, that is,
    some joint deviation of their own decisions improves.
    """
    import numpy as np

    _require_best_response(relation)
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
        stable &= ~(payoff.max(axis=owned[a], keepdims=True) > payoff + eps)
    return RationalOutcomeSet(
        tuple(_profiles_where(game, stacks, stable)), mode="pure_exhaustive"
    )


def sample_rational_outcome(
    game: CausalGame,
    relation: RationalityRelation = BEST_RESPONSE,
    seed: int = 0,
) -> PolicyProfile:
    """Uniform draw over the pure equilibria; deterministic given the seed."""
    outcomes = pure_nash(game, relation).outcomes
    if not outcomes:
        raise SolverError(
            "no rational outcome found: the pure-profile solver found no "
            "equilibrium (the game may only have mixed equilibria)"
        )
    rng = random.Random(seed)
    return outcomes[rng.randrange(len(outcomes))]


# -- behavioral equilibria via support enumeration ---------------------------


class _Affine:
    """A scalar affine form c0 + sum(coeffs[u] * u) over named unknowns."""

    __slots__ = ("const", "coeffs")

    def __init__(self, const=0.0, coeffs=None):
        self.const = const
        self.coeffs = dict(coeffs or {})

    def minus(self, other):
        out = _Affine(self.const - other.const, self.coeffs)
        for k, v in other.coeffs.items():
            out.coeffs[k] = out.coeffs.get(k, 0.0) - v
        return out

    def pruned(self, tol=COEFF_EPS):
        return _Affine(
            self.const,
            {k: v for k, v in self.coeffs.items() if abs(v) > tol},
        )


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


def _coefficients(game: CausalGame, decisions) -> list[tuple[list, list]]:
    """Each free decision's ``(w, reach)``, all from one contraction.

    ``w[c][a][c2][b]`` sums the decision's owner's utility total, weighted
    by the pinned factors alone, over the instantiations in which the
    decision plays ``a`` in its context ``c`` and the other free decision
    ``b`` in its context ``c2``; ``reach`` says whether those instantiations
    have any weight (the factors are non-negative, so a sum is non-zero
    exactly when some term is).  Each decision stacks one indicator rule
    per (context, action), the rows of an identity matrix, and every value
    factor carries both decisions' labels, so neither is summed out where a
    utility ignores it.  Without another free decision the last two axes
    have length 1.
    """
    import numpy as np

    if not decisions:
        return []
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
    shape = [n for d in decisions for n in (len(game.contexts(d)), shapes[d][-1])]
    shape += [1, 1] * (2 - len(decisions))
    out = []
    for k, total in enumerate(totals):
        w, reach = total.reshape(shape), weight.reshape(shape) != 0.0
        if k:  # the decision's own axes first
            w, reach = w.transpose(2, 3, 0, 1), reach.transpose(2, 3, 0, 1)
        out.append((w.tolist(), reach.tolist()))
    return out


def _slot_values(coefficients, slots, others):
    """Reached slots of one free decision and their two action values.

    ``slots`` are the decision's slots in context order and ``others`` the
    other free decision's ``(support, unknown)`` per context, the unknown
    None unless the support has both actions (``[((0,), None)]`` when there
    is no other free decision).  A slot is reached when some instantiation
    of positive weight puts the other decision inside its support; an
    action's value is an affine form in the other decision's unknowns
    (``q`` for its first action, ``1 - q`` for its second) of
    d E[U^agent] / d pi(action | slot).
    """
    w, reach = coefficients
    values = {}
    for c, slot in enumerate(slots):
        if not any(
            reach[c][a][c2][b]
            for a in range(len(w[c]))
            for c2, (support, _) in enumerate(others)
            for b in support
        ):
            continue
        pair = []
        for row in w[c]:  # one action: row[c2][b]
            form = _Affine()
            for c2, (support, unknown) in enumerate(others):
                if unknown is None:
                    form.const += row[c2][support[0]]
                else:  # q * row[c2][0] + (1 - q) * row[c2][1]
                    form.const += row[c2][1]
                    form.coeffs[unknown] = row[c2][0] - row[c2][1]
            pair.append(form.pruned())
        values[slot] = tuple(pair)
    return values


def _solve_linear(equations, unknowns, tol=PIVOT_EPS):
    """Solve affine == 0 equations; return (pinned values, free unknowns).

    Returns None when inconsistent.  Raises when a pinned unknown would
    depend on a free one (coupled parametric solutions are out of scope).
    """
    import numpy as np

    if not unknowns:
        for eq in equations:
            if abs(eq.const) > tol:
                return None
        return {}, []
    cols = {u: i for i, u in enumerate(unknowns)}
    rows = []
    for eq in equations:
        row = np.zeros(len(unknowns) + 1)
        for u, c in eq.coeffs.items():
            row[cols[u]] = c
        row[-1] = -eq.const
        rows.append(row)
    if not rows:
        return {}, list(unknowns)
    m = np.array(rows, dtype=float)
    nvars = len(unknowns)
    pivot_cols = []
    r = 0
    for c in range(nvars):
        pivot = None
        for i in range(r, len(m)):
            if abs(m[i, c]) > tol:
                pivot = i
                break
        if pivot is None:
            continue
        m[[r, pivot]] = m[[pivot, r]]
        m[r] = m[r] / m[r, c]
        for i in range(len(m)):
            if i != r and abs(m[i, c]) > tol:
                m[i] = m[i] - m[i, c] * m[r]
        pivot_cols.append(c)
        r += 1
        if r == len(m):
            break
    for i in range(r, len(m)):
        if abs(m[i, -1]) > tol:
            return None
    free = [u for u in unknowns if cols[u] not in pivot_cols]
    pinned = {}
    for row_i, c in enumerate(pivot_cols):
        coeffs = {
            unknowns[j]: m[row_i, j]
            for j in range(nvars)
            if j != c and abs(m[row_i, j]) > tol
        }
        if coeffs:
            raise SolverError(
                "unsupported size: coupled parametric equilibrium family"
            )
        pinned[unknowns[c]] = float(m[row_i, -1])
    return pinned, free


def behavioral_nash_small(
    game: CausalGame,
    relation: RationalityRelation = BEST_RESPONSE,
    eps: float = EQ_EPS,
) -> RationalOutcomeSet:
    """Behavioral equilibria of a small game via support enumeration.

    Supported games: at most two strategic agents, one free decision each,
    binary actions, at most four contexts per decision.  For each profile of
    per-context supports the indifference system (linear in the opponent's
    probabilities) is solved; solutions in [0,1] that survive the
    best-response inequalities are kept.  Probabilities left unconstrained
    (typically at unreached contexts) become family parameters whose
    admissible interval comes from the inequalities.
    """
    _require_best_response(relation)
    _check_behavioral_supported(game)
    decisions = game.free_decisions()
    slots = [(d, tuple(ctx)) for d in decisions for ctx in game.contexts(d)]
    options = ((0,), (1,), (0, 1))
    name = {slot: f"q{idx}" for idx, slot in enumerate(slots)}
    own = [[s for s in slots if s[0] == d] for d in decisions]
    others = own[::-1] if len(own) == 2 else [[]] * len(own)

    # a decision's slot values depend only on the other decision's
    # supports: one table per decision, keyed by those supports
    tables = [
        {
            half: _slot_values(coefficients, slots_k, [
                (support, name[slot] if len(support) == 2 else None)
                for slot, support in zip(other, half)
            ] or [((0,), None)])
            for half in itertools.product(options, repeat=len(other))
        }
        for coefficients, slots_k, other
        in zip(_coefficients(game, decisions), own, others)
    ]

    fam_meta = {
        "_contexts": {d: [tuple(c) for c in game.contexts(d)] for d in decisions},
        "_parents": {d: game.parents_of(d) for d in decisions},
    }
    candidates: list[BehavioralFamily] = []
    for combo in itertools.product(options, repeat=len(slots)):
        sigma = dict(zip(slots, combo))
        unknown_of = {s: name[s] for s in slots if len(sigma[s]) == 2}
        unknowns = list(unknown_of.values())
        values = {}
        for table, other in zip(tables, others):
            values.update(table[tuple(sigma[s] for s in other)])

        equations = []
        inequalities = []  # affine forms required >= -eps
        for slot in slots:
            if slot not in values:  # unreached under this support pattern
                continue
            vals = values[slot]
            if len(sigma[slot]) == 2:
                equations.append(vals[0].minus(vals[1]))
            else:
                inside = sigma[slot][0]
                inequalities.append(vals[inside].minus(vals[1 - inside]))
        solved = _solve_linear(equations, unknowns)
        if solved is None:
            continue
        pinned, free = solved
        if any(val < -eps or val > 1.0 + eps for val in pinned.values()):
            continue
        pinned = {u: min(max(v, 0.0), 1.0) for u, v in pinned.items()}

        bounds = {u: [0.0, 1.0] for u in free}
        feasible = True
        for ineq in inequalities:
            expr = _Affine(ineq.const, ineq.coeffs)
            for u, val in pinned.items():
                if u in expr.coeffs:
                    expr.const += expr.coeffs.pop(u) * val
            expr = expr.pruned()
            frees_in = [u for u in expr.coeffs if u in bounds]
            if not frees_in:
                if expr.const < -eps:
                    feasible = False
                    break
                continue
            if len(frees_in) > 1:
                raise SolverError(
                    "unsupported size: inequality couples two family parameters"
                )
            u = frees_in[0]
            coef = expr.coeffs[u]
            # coef * u + const >= 0
            limit = -expr.const / coef
            if coef > 0:
                bounds[u][0] = max(bounds[u][0], limit)
            else:
                bounds[u][1] = min(bounds[u][1], limit)
        if not feasible or any(lo > hi + eps for lo, hi in bounds.values()):
            continue

        entries = {
            slot: pinned.get(unknown_of[slot], unknown_of[slot])
            if slot in unknown_of else float(sigma[slot] == (0,))
            for slot in slots
        }
        params = tuple(
            FreeParam(u, *(round(b, ROUND_DIGITS) for b in bounds[u]))
            for u in free
        )
        candidates.append(BehavioralFamily(decisions, entries, params, **fam_meta))

    # every candidate's profiles (a point, or a family's 2^k corners)
    # verified a chunk at a time, then kept in pattern order unless already
    # found; the tee holds only the profiles of the chunk being checked
    profiles, to_check = itertools.tee(
        prof for fam in candidates for prof in fam.extreme_profiles()
    )
    checked = zip(profiles, _stable(game, to_check, VERIFY_EPS))
    points: list[PolicyProfile] = []
    families: list[BehavioralFamily] = []
    # kept families' pinned entries, by which slots are free and their bounds
    seen: dict[tuple, list] = {}
    for fam in candidates:
        profs, verdicts = zip(*itertools.islice(checked, 2 ** len(fam.params)))
        if not all(verdicts):
            continue
        if fam.params:
            entries = fam.entries.values()
            free = tuple(e if isinstance(e, str) else None for e in entries)
            pinned = [e for e in entries if not isinstance(e, str)]
            kept = seen.setdefault((free, fam.params), [])
            if not any(
                all(abs(x - y) <= SAME_POINT_EPS for x, y in zip(pinned, other))
                for other in kept
            ):
                kept.append(pinned)
                families.append(fam)
        else:
            [profile] = profs
            if not any(
                all(cpds_equal(profile[d], q[d], SAME_POINT_EPS) for d in decisions)
                for q in points
            ):
                points.append(profile)

    return RationalOutcomeSet(
        tuple(points), tuple(families), mode="behavioral_support_enum"
    )


# -- commitment ----------------------------------------------------------------


def commitment_value(
    game: CausalGame, leader: int, rule: TabularCPD, eps: float = EQ_EPS
) -> tuple[PolicyProfile, float]:
    """Leader's expected utility after committing to ``rule``.

    Followers best-respond to the committed rule; among tied follower
    responses the leader-preferred one is chosen.
    """
    decision = _single_leader_decision(game, leader)
    committed = apply_primitive(game, FixMechanism(rule_node(decision), rule))
    follower_decisions = committed.free_decisions()
    if not follower_decisions:
        return PolicyProfile({}), expected_utility(
            committed, PolicyProfile({}), leader
        )
    follower_agents = {committed.agent_of(d) for d in follower_decisions}
    if len(follower_agents) > 1:
        raise SolverError("commitment supports at most one follower agent")
    follower = follower_agents.pop()
    responses = best_responses(committed, follower, PolicyProfile({}), eps)
    best_profile, best_eu = None, None
    for resp in responses:
        eu = expected_utility(committed, resp, leader)
        if best_eu is None or eu > best_eu:
            best_profile, best_eu = resp, eu
    return best_profile, best_eu


def _single_leader_decision(game: CausalGame, leader: int) -> str:
    if not (1 <= leader <= game.n_agents):
        raise ValidationError(f"unknown agent index {leader}")
    decisions = game.free_decisions_of(leader)
    if len(decisions) != 1:
        raise SolverError(
            "commitment optimisation requires the leader to own exactly one "
            f"free decision, found {len(decisions)}"
        )
    return decisions[0]


def optimal_commitment(
    game: CausalGame,
    leader: int,
    decision: str | None = None,
    mode: str = "exact",
    grid_step: float = 1e-3,
) -> tuple[TabularCPD, float]:
    """Best stochastic rule for the leader to commit to, and its value.

    Exact mode enumerates follower pure responses, intersects the
    best-response inequalities into an interval of commitment probabilities
    per response, and maximises the leader's (affine) utility over each
    interval's closure; candidate maxima at region boundaries implement
    leader-favourable tie-breaking.  Grid mode sweeps the commitment
    probability with the given step, which must lie in (0, 1]; a grid of
    more than ``ENUM_BUDGET`` points raises ``SolverError``.
    """
    if not 0.0 < grid_step <= 1.0:  # also rejects NaN
        raise ValidationError(f"grid step must be in (0, 1], got {grid_step!r}")
    dec = _single_leader_decision(game, leader)
    if decision is not None and decision != dec:
        raise ValidationError(f"{decision!r} is not the leader's free decision")
    domain = game.domain(dec)
    contexts = game.contexts(dec)
    if len(domain) != 2 or len(contexts) != 1:
        raise SolverError(
            "commitment optimisation supports binary single-context "
            "leader decisions only"
        )
    ctx = tuple(contexts[0])
    parents = game.parents_of(dec)

    def committed_rule(p: float) -> TabularCPD:
        return TabularCPD(dec, parents, {ctx: (p, 1.0 - p)})

    follower_decisions = tuple(
        d for d in game.free_decisions() if d != dec
    )
    follower_agents = {game.agent_of(d) for d in follower_decisions}
    if len(follower_agents) > 1:
        raise SolverError("commitment supports at most one follower agent")
    follower = follower_agents.pop() if follower_agents else None

    # the commitment at p = 0 and p = 1, then every pure follower response
    stacks = {dec: _rule_stack(game, dec, [committed_rule(0.0), committed_rule(1.0)])}
    stacks.update(_pure_stacks(game, follower_decisions))

    def affine(payoff):
        """(slope, intercept at p=0) of a utility, per follower response."""
        return [(v1 - v0, v0) for v0, v1 in zip(*payoff.reshape(2, -1).tolist())]

    if follower is None:
        [payoff] = payoff_tensors(game, PolicyProfile({}), [leader], stacks)
        [(slope, intercept)] = affine(payoff)
        cands = [(0.0, intercept), (1.0, slope + intercept)]
        p_hat, value = max(cands, key=lambda t: (t[1], -t[0]))
        return committed_rule(p_hat), value

    l_affine, f_affine = map(affine, payoff_tensors(
        game, PolicyProfile({}), [leader, follower], stacks
    ))

    if mode == "grid":
        points = 1.0 / grid_step + 1  # a float: inf for the tiniest steps
        if points > ENUM_BUDGET:
            raise SolverError(
                f"would evaluate {points:.3g} grid points; budget {ENUM_BUDGET:,}"
            )
        n = round(1.0 / grid_step)
        best_p, best_v = 0.0, None
        for i in range(n + 1):
            p = i / n
            f_best = max(a * p + b for a, b in f_affine)
            value = max(
                la * p + lb
                for (la, lb), (fa, fb) in zip(l_affine, f_affine)
                if fa * p + fb >= f_best - COMMIT_EPS
            )
            if best_v is None or value > best_v + COMMIT_EPS:
                best_p, best_v = p, value
        return committed_rule(best_p), best_v
    if mode != "exact":
        raise ValidationError(f"unknown commitment mode {mode!r}")

    candidates = []
    for i, (fa, fb) in enumerate(f_affine):
        lo, hi = 0.0, 1.0
        empty = False
        for j, (ga, gb) in enumerate(f_affine):
            if i == j:
                continue
            da, db = fa - ga, fb - gb  # need da*p + db >= 0
            if abs(da) <= COMMIT_EPS:
                if db < -COMMIT_EPS:
                    empty = True
                    break
                continue
            bound = -db / da
            if da > 0:
                lo = max(lo, bound)
            else:
                hi = min(hi, bound)
        if empty or lo > hi + COMMIT_EPS:
            continue
        lo, hi = max(0.0, min(1.0, lo)), max(0.0, min(1.0, hi))
        la, lb = l_affine[i]
        for p in (lo, hi):
            candidates.append((p, la * p + lb))
    best_p, best_v = candidates[0]
    for p, v in candidates[1:]:
        if v > best_v + COMMIT_EPS:
            best_p, best_v = p, v
    return committed_rule(best_p), best_v
