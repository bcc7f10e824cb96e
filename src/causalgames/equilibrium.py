"""Equilibrium computation: best responses, Nash enumeration, commitment.

Pure equilibria, best responses, verification and commitment read payoff
tensors (``model.payoff_tensors``): each free decision's pure rules lie on
one axis, and variable elimination gives an agent's expected utility for
every rule choice at once, with no joint table.  Behavioral equilibria for
small two-agent games come from support enumeration over one joint, solving
the indifference/consistency system per support pattern and reporting
underdetermined solutions as parametric families with interval parameters.
Rule-fixed (committed) and object-fixed decisions are constants throughout;
only free decisions are strategic.

Results are deterministic: profiles enumerate in (decision order, rule
index) order and sampling is a pure function of the seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import SolverError, ValidationError
from .graphs import BEST_RESPONSE, RationalityRelation, rule_node
from .interventions import FixMechanism, apply_primitive
from .model import (
    COEFF_EPS, COMMIT_EPS, ENUM_BUDGET, EQ_EPS, PIVOT_EPS, ROUND_DIGITS,
    SAME_POINT_EPS, VERIFY_EPS,
    CausalGame,
    PolicyProfile,
    TabularCPD,
    cpds_equal,
    enumerate_pure_rules,
    expected_utility,
    induced_joint,
    payoff_tensors,
    require_budget,
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
    return {d: enumerate_pure_rules(game, d) for d in decisions}


def _profiles_where(stacks: dict, mask: np.ndarray) -> list[PolicyProfile]:
    """The pure profiles at the true entries of ``mask``, in enumeration order."""
    import numpy as np

    return [
        PolicyProfile({d: rules[i] for (d, rules), i in zip(stacks.items(), at)})
        for at in np.argwhere(mask)
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
    return _profiles_where(stacks, payoff >= payoff.max() - eps)


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
    for agent in range(1, game.n_agents + 1):
        own = game.free_decisions_of(agent)
        if not own:
            continue
        [payoff] = payoff_tensors(game, profile, [agent], _pure_stacks(game, own))
        if payoff.max() > expected_utility(game, profile, agent) + eps:
            return False
    return True


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

    def interval(self, name: str) -> tuple[float, float]:
        for p in self.params:
            if p.name == name:
                return (p.low, p.high)
        raise KeyError(name)


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
        tuple(_profiles_where(stacks, stable)), mode="pure_exhaustive"
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

    def add_term(self, weight, unknown=None, complement=False):
        if unknown is None:
            self.const += weight
        elif complement:
            self.const += weight
            self.coeffs[unknown] = self.coeffs.get(unknown, 0.0) - weight
        else:
            self.coeffs[unknown] = self.coeffs.get(unknown, 0.0) + weight

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


def _row_terms(game: CausalGame, decisions) -> list[tuple]:
    """Each free decision's share of every positive row of the pinned joint.

    The joint comes from one ``induced_joint`` call in which every free
    decision weights each of its actions 1, so a row's weight is the product
    of the pinned factors alone and rows with a zero factor are absent.  A
    term ``(slot, action, other_slot, other_action, value)`` says that the
    row, with the decision taking ``action`` in ``slot``, adds ``value`` (the
    weight times the owner's utility total) to that action's value, times
    the other free decision's probability of ``other_action`` in
    ``other_slot``.  Without another free decision both are None.
    """
    weigh_all = PolicyProfile({
        d: TabularCPD(
            d, game.parents_of(d),
            {c: (1.0,) * len(game.domain(d)) for c in game.contexts(d)},
        )
        for d in decisions
    })
    joint = induced_joint(game, weigh_all)
    at = {n: i for i, n in enumerate(joint.variables)}
    ctx_at = [[at[p] for p in game.parents_of(d)] for d in decisions]
    util_at = [
        [at[u] for u in game.utilities_of(game.agent_of(d))] for d in decisions
    ]
    terms = []
    for inst, weight in joint.table.items():
        placed = [
            (
                (d, tuple(inst[j] for j in ctx_at[k])),
                game.domain(d).index(inst[at[d]]),
            )
            for k, d in enumerate(decisions)
        ]
        for k, (slot, action) in enumerate(placed):
            other, a_other = placed[1 - k] if len(placed) == 2 else (None, None)
            util = sum(inst[j] for j in util_at[k])
            terms.append((slot, action, other, a_other, weight * util))
    return terms


def _slot_values(terms, sigma, unknown_of):
    """Reached slots and their two action values under one support pattern.

    A slot is reached when some positive row puts the other free decision
    inside its support; an action's value is an affine form in the other
    decision's unknowns (``q`` for its first action, ``1 - q`` for its
    second) of d E[U^agent] / d pi(action | slot).
    """
    values: dict = {}
    for slot, action, other, a_other, value in terms:
        if other is not None and a_other not in sigma[other]:
            continue
        pair = values.setdefault(slot, (_Affine(), _Affine()))
        pair[action].add_term(value, unknown_of.get(other), a_other == 1)
    return {slot: tuple(v.pruned() for v in pair) for slot, pair in values.items()}


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
    terms = _row_terms(game, decisions)
    slots = [(d, tuple(ctx)) for d in decisions for ctx in game.contexts(d)]
    support_options = [((0,), (1,), (0, 1))] * len(slots)

    points: list[PolicyProfile] = []
    families: list[BehavioralFamily] = []

    fam_meta = {
        "_contexts": {d: [tuple(c) for c in game.contexts(d)] for d in decisions},
        "_parents": {d: game.parents_of(d) for d in decisions},
    }

    for combo in itertools.product(*support_options):
        sigma = dict(zip(slots, combo))
        unknown_of = {
            slot: f"q{idx}" for idx, slot in enumerate(slots)
            if len(sigma[slot]) == 2
        }
        unknowns = [unknown_of[s] for s in slots if s in unknown_of]
        values = _slot_values(terms, sigma, unknown_of)

        equations = []
        inequalities = []  # affine forms required >= -eps
        feasible = True
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
        for u, val in pinned.items():
            if val < -eps or val > 1.0 + eps:
                feasible = False
                break
        if not feasible:
            continue
        pinned = {u: min(max(v, 0.0), 1.0) for u, v in pinned.items()}

        bounds = {u: [0.0, 1.0] for u in free}
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
        if not feasible:
            continue
        if any(lo > hi + eps for lo, hi in bounds.values()):
            continue

        entries = {}
        for slot in slots:
            if slot in unknown_of:
                u = unknown_of[slot]
                entries[slot] = pinned.get(u, u)
            else:
                entries[slot] = 1.0 if sigma[slot][0] == 0 else 0.0
        if free:
            params = tuple(
                FreeParam(u, *(round(b, ROUND_DIGITS) for b in bounds[u]))
                for u in free
            )
            fam = BehavioralFamily(decisions, entries, params, **fam_meta)
            ok = all(
                verify_rational_outcome(game, prof, relation, eps=VERIFY_EPS)
                for prof in fam.extreme_profiles()
            )
            if ok and not any(
                f.entries == fam.entries
                and f.params == fam.params
                for f in families
            ):
                families.append(fam)
        else:
            fam = BehavioralFamily(decisions, entries, (), **fam_meta)
            profile = fam.instantiate({})
            if verify_rational_outcome(game, profile, relation, eps=VERIFY_EPS):
                if not any(
                    all(
                        cpds_equal(profile[d], q[d], SAME_POINT_EPS)
                        for d in decisions
                    )
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
    stacks = {dec: [committed_rule(0.0), committed_rule(1.0)]}
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
