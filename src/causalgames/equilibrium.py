"""Equilibrium computation: best responses, Nash enumeration, commitment.

Pure equilibria come from an exhaustive scan over pure profiles; behavioral
equilibria for small two-agent games come from support enumeration, solving
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

import numpy as np

from .errors import SolverError, ValidationError
from .graphs import BEST_RESPONSE, RationalityRelation, rule_node
from .interventions import FixMechanism, apply_primitive
from .model import (
    CausalGame,
    PolicyProfile,
    TabularCPD,
    cpds_equal,
    enumerate_pure_rules,
    expected_utility,
    expected_utility_from_joint,
    induced_joint,
)

EQ_EPS = 1e-7


def _require_best_response(relation: RationalityRelation):
    if relation.name != "best_response":
        raise SolverError(
            f"rationality relation {relation.name!r} has no solver"
        )


def _pure_policies(game: CausalGame, agent: int) -> list[dict]:
    """All pure policies (joint pure rules over the agent's free decisions)."""
    decisions = game.free_decisions_of(agent)
    rule_lists = [enumerate_pure_rules(game, d) for d in decisions]
    return [
        dict(zip(decisions, combo))
        for combo in itertools.product(*rule_lists)
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
    scored = [
        (expected_utility(game, others.merged(PolicyProfile(p)), agent), p)
        for p in _pure_policies(game, agent)
    ]
    top = max(eu for eu, _ in scored)
    return [PolicyProfile(p) for eu, p in scored if eu >= top - eps]


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
    joint_eu = {
        a: expected_utility(game, profile, a)
        for a in range(1, game.n_agents + 1)
    }
    for agent in range(1, game.n_agents + 1):
        if not game.free_decisions_of(agent):
            continue
        for policy in _pure_policies(game, agent):
            eu = expected_utility(game, profile.merged(PolicyProfile(policy)), agent)
            if eu > joint_eu[agent] + eps:
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
    """Exhaustive scan over pure full profiles, keeping the equilibria.

    Utilities for every profile are tabulated once; a profile is kept when
    no agent improves by more than ``eps`` through any joint deviation of
    their own decisions.
    """
    _require_best_response(relation)
    decisions = game.free_decisions()
    rule_lists = [enumerate_pure_rules(game, d) for d in decisions]
    combos = list(itertools.product(*[range(len(r)) for r in rule_lists]))
    agents = [a for a in range(1, game.n_agents + 1) if game.free_decisions_of(a)]
    own = {
        a: [i for i, d in enumerate(decisions) if game.agent_of(d) == a]
        for a in agents
    }
    eu = {}
    for combo in combos:
        profile = PolicyProfile(
            {d: rule_lists[i][combo[i]] for i, d in enumerate(decisions)}
        )
        joint = induced_joint(game, profile)
        eu[combo] = {
            a: expected_utility_from_joint(game, joint, a) for a in agents
        }
    outcomes = []
    for combo in combos:
        is_ne = True
        for a in agents:
            base = eu[combo][a]
            for alt in combos:
                if any(
                    alt[i] != combo[i]
                    for i in range(len(decisions))
                    if i not in own[a]
                ):
                    continue
                if eu[alt][a] > base + eps:
                    is_ne = False
                    break
            if not is_ne:
                break
        if is_ne:
            outcomes.append(
                PolicyProfile(
                    {d: rule_lists[i][combo[i]] for i, d in enumerate(decisions)}
                )
            )
    return RationalOutcomeSet(tuple(outcomes), mode="pure_exhaustive")


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

    def pruned(self, tol=1e-12):
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


def _instantiations(game: CausalGame):
    names = game.names()
    domains = [game.domain(n) for n in names]
    pidx = {n: tuple(names.index(p) for p in game.parents_of(n)) for n in names}
    return names, domains, pidx


def _action_value_affine(game, inst_data, sigma, unknown_of, decision, ctx, action):
    """Affine form of d E[U^agent] / d pi_decision(action | ctx).

    Sums, over all instantiations consistent with the decision taking
    ``action`` in context ``ctx``, the product of every other factor (the
    opponent's factor stays symbolic) times the agent's utility total.
    """
    names, domains, pidx = inst_data
    agent = game.agent_of(decision)
    util_names = set(game.utilities_of(agent))
    d_i = names.index(decision)
    ctx_idx = pidx[decision]
    total = _Affine()
    for inst in itertools.product(*domains):
        if inst[d_i] != action:
            continue
        if tuple(inst[j] for j in ctx_idx) != ctx:
            continue
        weight = 1.0
        unknown = None
        complement = False
        dead = False
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
            # the opponent's free decision: symbolic
            key = (n, local_ctx)
            support = sigma[key]
            a_i = domains[i].index(inst[i])
            if len(support) == 1:
                if a_i != support[0]:
                    dead = True
                    break
                continue
            if unknown is not None:
                raise SolverError(
                    "unsupported size: an agent owns more than one free decision"
                )
            unknown = unknown_of[key]
            complement = a_i == 1
        if dead:
            continue
        util = sum(inst[names.index(u)] for u in util_names)
        if util == 0.0 and unknown is None:
            continue
        total.add_term(weight * util, unknown, complement)
    return total.pruned()


def _context_reached(game, inst_data, sigma, decision, ctx) -> bool:
    """Whether a decision context has positive probability under a support.

    True iff some instantiation consistent with the context keeps every
    pinned factor positive and every free decision inside its support.
    """
    names, domains, pidx = inst_data
    ctx_idx = pidx[decision]
    for inst in itertools.product(*domains):
        if tuple(inst[j] for j in ctx_idx) != ctx:
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


def _solve_linear(equations, unknowns, tol=1e-9):
    """Solve affine == 0 equations; return (pinned values, free unknowns).

    Returns None when inconsistent.  Raises when a pinned unknown would
    depend on a free one (coupled parametric solutions are out of scope).
    """
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
    inst_data = _instantiations(game)
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
        reached = {
            slot: _context_reached(game, inst_data, sigma, slot[0], slot[1])
            for slot in slots
        }

        equations = []
        inequalities = []  # affine forms required >= -eps
        feasible = True
        for slot in slots:
            d, ctx = slot
            if not reached[slot]:
                continue
            domain = game.domain(d)
            vals = [
                _action_value_affine(
                    game, inst_data, sigma, unknown_of, d, ctx, domain[a]
                )
                for a in range(2)
            ]
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
                FreeParam(u, round(bounds[u][0], 12), round(bounds[u][1], 12))
                for u in free
            )
            fam = BehavioralFamily(decisions, entries, params, **fam_meta)
            ok = all(
                verify_rational_outcome(game, prof, relation, eps=1e-6)
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
            if verify_rational_outcome(game, profile, relation, eps=1e-6):
                if not any(
                    all(
                        cpds_equal(profile[d], q[d], 1e-9)
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
    probability with the given step.
    """
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

    def eu_affine(agent, response: PolicyProfile):
        vals = []
        for p in (0.0, 1.0):
            g2 = CausalGame(
                game.n_agents, game.variables, game.parents, game.cpds,
                {**game.rule_fixes, dec: committed_rule(p)},
                game.object_fixed,
            )
            vals.append(expected_utility(g2, response, agent))
        return vals[1] - vals[0], vals[0]  # slope, intercept at p=0

    if follower is None:
        slope, intercept = eu_affine(leader, PolicyProfile({}))
        cands = [(0.0, intercept), (1.0, slope + intercept)]
        p_hat, value = max(cands, key=lambda t: (t[1], -t[0]))
        return committed_rule(p_hat), value

    responses = [
        PolicyProfile(dict(zip(follower_decisions, combo)))
        for combo in itertools.product(
            *[enumerate_pure_rules(game, d) for d in follower_decisions]
        )
    ]
    f_affine = [eu_affine(follower, r) for r in responses]
    l_affine = [eu_affine(leader, r) for r in responses]

    if mode == "grid":
        n = max(1, round(1.0 / grid_step))
        best_p, best_v = 0.0, None
        for i in range(n + 1):
            p = i / n
            f_best = max(a * p + b for a, b in f_affine)
            value = max(
                la * p + lb
                for (la, lb), (fa, fb) in zip(l_affine, f_affine)
                if fa * p + fb >= f_best - 1e-12
            )
            if best_v is None or value > best_v:
                best_p, best_v = p, value
        return committed_rule(best_p), best_v
    if mode != "exact":
        raise ValidationError(f"unknown commitment mode {mode!r}")

    tol = 1e-12
    candidates = []
    for i, (fa, fb) in enumerate(f_affine):
        lo, hi = 0.0, 1.0
        empty = False
        for j, (ga, gb) in enumerate(f_affine):
            if i == j:
                continue
            da, db = fa - ga, fb - gb  # need da*p + db >= 0
            if abs(da) <= tol:
                if db < -tol:
                    empty = True
                    break
                continue
            bound = -db / da
            if da > 0:
                lo = max(lo, bound)
            else:
                hi = min(hi, bound)
        if empty or lo > hi + tol:
            continue
        lo, hi = max(0.0, min(1.0, lo)), max(0.0, min(1.0, hi))
        la, lb = l_affine[i]
        for p in (lo, hi):
            candidates.append((p, la * p + lb))
    best_p, best_v = candidates[0]
    for p, v in candidates[1:]:
        if v > best_v + tol:
            best_p, best_v = p, v
    return committed_rule(best_p), best_v
