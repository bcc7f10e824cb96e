"""Interventional queries: a small formula DSL and the staged evaluator.

A query quantifies over rational outcomes (``forall ne`` / ``exists ne``) or
draws them (``sampled``) and evaluates a boolean formula — or a bare
arithmetic expression — over probabilities and expected utilities.

Evaluation walks the stages of a visibility decomposition.  Each stage's
game, which the decomposition holds, is solved as the *stage-visible* game
(every agent treated as rational in it; earlier stage fixes are
realized-play bookkeeping, not solve constraints), and the stage's agents
are pinned to their rules from a rational outcome.  A direct fix of a
decision-rule node, or its removal, re-binds the owner's realized rule only
when some agent at the same or a later stage can observe it.  Object-level
fixes of decisions always bind.  Each stage game is solved once and the
evaluator branches over its outcomes; a leaf is the last game under one
branch's realized rules.  No joint is built: each ``P(...)`` and ``E[...]``
is one contraction for all leaves, with the decisions whose rule differs
between leaves stacked on one leaf axis (``model.expectations``).  Stage
rules travel as arrays from the stage solve to that contraction; a
``TabularCPD`` is built only for the rules a leaf reports.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import field
from functools import cached_property
from typing import Mapping, Sequence

from .equilibrium import _pure_equilibria, behavioral_nash_small
from .errors import QueryError, SolverError
from .graphs import rule_node, variable_of_mechanism
from .interventions import (
    AddVariable,
    Decomposition,
    FixMechanism,
    FixObject,
    RemoveVariable,
    apply_all,
    decompose,
)
from .model import (
    DECISION,
    PROB_EPS,
    QUERY_EPS,
    CausalGame,
    PolicyProfile,
    TabularCPD,
    _cpd_tensor,
    _record,
    _rule_of,
    event_factor,
    expectations,
    utility_factors,
)


# -- query AST -----------------------------------------------------------------


@_record
class Prob:
    event: tuple  # ((variable, value-token), ...)


@_record
class Utility:
    agent: object  # int or "total"


@_record
class Const:
    value: float


@_record
class Chain:
    ops: tuple  # operators of one precedence level, applied left to right
    operands: tuple  # one more than ops


@_record
class Prefix:
    op: str  # "not" or "-"
    count: int  # how many times op applies to body
    body: object


@_record
class Query:
    mode: str  # "forall" | "exists" | "sampled"
    body: object


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym><=|>=|[<>=:+\-*,()\[\]]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise QueryError(
                f"parse error at column {pos + 1}: unexpected {rest[0]!r}"
            )
        kind = m.lastgroup
        start, pos = m.span(kind)
        if kind == "num" and text[start] == "-" and tokens and (
            tokens[-1][0] != "sym" or tokens[-1][1] in ("]", ")")
        ):
            kind, pos = "sym", start + 1  # a '-' after an operand subtracts
        tokens.append((kind, text[start:pos], start))
    tokens.append(("eof", "", len(text)))
    return tokens


def _boolean(node) -> bool:
    """Whether a formula node is a truth value rather than a number."""
    if isinstance(node, Prefix):
        return node.op == "not"
    return isinstance(node, Chain) and node.ops[0] not in ("+", "-", "*")


class _Parser:
    """Parser for the query grammar, loosest level first.  It has no
    parentheses, so a chain of one level's operators is parsed by one loop
    and a run of prefix operators is counted: no input recurses deeper than
    the levels.

    query  := mode ':' formula
    mode   := 'forall' 'ne' | 'exists' 'ne' | 'sampled'
    formula:= conj ('or' conj)*              (a lone atom may be a bare expr)
    conj   := neg ('and' neg)*
    neg    := 'not'* atom
    atom   := expr [cmp expr]
    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-'* ('P' '(' event ')' | 'E' '[' agent ']' | number)
    event  := NAME '=' value (',' NAME '=' value)*
    """

    def __init__(self, text: str, what: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.end = f"end of {what}"  # how messages name the end of the input

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected):
        kind, value, pos = self.peek()
        shown = value if kind != "eof" else self.end
        raise QueryError(
            f"parse error at column {pos + 1}: expected {expected}, got {shown!r}"
        )

    def expect(self, kind, value=None):
        tok = self.peek()
        if tok[0] != kind or (value is not None and tok[1] != value):
            self.fail(value or kind)
        return self.next()

    def parse(self) -> Query:
        kind, value, _ = self.peek()
        if kind == "name" and value in ("forall", "exists"):
            self.next()
            self.expect("name", "ne")
            mode = value
        elif kind == "name" and value == "sampled":
            self.next()
            mode = "sampled"
        else:
            self.fail("'forall ne', 'exists ne', or 'sampled'")
        self.expect("sym", ":")

        def negation():
            return self.prefixed("not", self.atom)

        body = self.chain(("or",), lambda: self.chain(("and",), negation))
        if self.peek()[0] != "eof":
            self.fail(self.end)
        return Query(mode, body)

    def chain(self, ops, operand):
        """``operand (op operand)*`` for the operators ``ops`` of one level:
        a ``Chain``, or the lone operand.  Both operands of ``and`` and
        ``or`` must be truth values, checked once the right one has parsed."""
        found, operands = [], [operand()]
        while self.peek()[1] in ops:
            found.append(self.next()[1])
            operands.append(operand())
            if found[0] in ("and", "or"):
                self._require_boolean(operands[-2])
                self._require_boolean(operands[-1])
        return Chain(tuple(found), tuple(operands)) if found else operands[0]

    def prefixed(self, op, operand):
        """A run of the prefix ``op`` before ``operand()``: a ``Prefix`` with
        the run's length, or the lone operand."""
        count = 0
        while self.peek()[1] == op:
            self.next()
            count += 1
        body = operand()
        if not count:
            return body
        if op == "not":
            self._require_boolean(body)
        return Prefix(op, count, body)

    def _require_boolean(self, node):
        if not _boolean(node):
            raise QueryError(
                "type mismatch: expected a comparison, got a bare expression"
            )

    def atom(self):
        def expr():
            return self.chain(("+", "-"), lambda: self.chain(("*",), factor))

        def factor():
            return self.prefixed("-", self.operand)

        left = expr()
        kind, value, _ = self.peek()
        if kind == "sym" and value in ("<", "<=", "=", ">=", ">"):
            self.next()
            return Chain((value,), (left, expr()))
        return left

    def operand(self):
        kind, value, _ = self.peek()
        if kind == "num":
            self.next()
            return Const(float(value))
        if kind == "name" and value == "P":
            self.next()
            self.expect("sym", "(")
            event = self.event()
            self.expect("sym", ")")
            return Prob(event)
        if kind == "name" and value == "E":
            self.next()
            self.expect("sym", "[")
            k, v, _ = self.peek()
            if k == "name" and v == "total":
                self.next()
                agent = "total"
            elif k == "num" and float(v).is_integer():
                self.next()
                agent = int(float(v))
            else:
                self.fail("an agent index or 'total'")
            self.expect("sym", "]")
            return Utility(agent)
        self.fail("a probability, expected utility, or number")

    def event(self):
        assignments = []
        while True:
            name = self.expect("name")[1]
            self.expect("sym", "=")
            kind, value, _ = self.peek()
            if kind not in ("name", "num"):
                self.fail("a domain value")
            self.next()
            assignments.append((name, value))
            if self.peek()[:2] == ("sym", ","):
                self.next()
                continue
            return tuple(assignments)


def parse_query(text: str) -> Query:
    """Parse a query string into its AST; errors carry a column position."""
    return _Parser(text, "query").parse()


# -- evaluation ------------------------------------------------------------------


def _resolve_value(game: CausalGame, variable: str, token: str):
    if not game.has_variable(variable):
        raise QueryError(f"query references unknown variable {variable!r}")
    for v in game.domain(variable):
        if str(v) == token:
            return v
    raise QueryError(
        f"value {token!r} not in the domain of {variable!r}"
    )


def _evaluate(node, atom, eps):
    """A formula's or expression's value, reading each atom from ``atom``.
    A chain folds left to right; ``and`` and ``or`` stop at the first
    operand that decides them, leaving the rest unread."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, (Prob, Utility)):
        return atom(node)
    if isinstance(node, Prefix):
        value = _evaluate(node.body, atom, eps)
        for _ in range(node.count):
            value = not value if node.op == "not" else 0.0 - value
        return value
    if not isinstance(node, Chain):
        raise QueryError(f"cannot evaluate {node!r} as an expression")
    a = _evaluate(node.operands[0], atom, eps)
    for op, right in zip(node.ops, node.operands[1:]):
        if op == "and" and not a or op == "or" and a:
            break
        b = _evaluate(right, atom, eps)
        a = {
            "+": a + b, "-": a - b, "*": a * b, "=": abs(a - b) <= eps,
            "<=": a <= b + eps, ">=": a >= b - eps, "<": a < b - eps,
            ">": a > b + eps, "and": b, "or": b,
        }[op]
    return a


def _at_leaves(game, leaves, value) -> list[float]:
    """The expectation of ``value`` at every leaf (a full rule map), from one
    contraction: decisions whose rule object differs go on the leaf axis.  A
    rule is a ``TabularCPD`` (a rule fix) or an array in ``_cpd_tensor``'s
    layout (``_stage_outcomes``, ``_mixture_rule``)."""
    import numpy as np

    def array(d, rule):
        return rule if isinstance(rule, np.ndarray) else _cpd_tensor(game, d, rule)

    stacks = {d: [rules[d] for rules in leaves] for d in leaves[0]}
    common = {d: c[0] for d, c in stacks.items() if all(r is c[0] for r in c)}
    stacks = {
        d: np.stack([array(d, r) for r in c])
        for d, c in stacks.items() if d not in common
    }
    [out] = expectations(game, PolicyProfile(common), [value], stacks, leaf_axis=stacks)
    values = out.tolist()
    return values if out.ndim else [values] * len(leaves)


def _atom_value(game, node) -> list:
    """The value factors of a ``P(...)`` or ``E[...]`` atom."""
    if isinstance(node, Prob):
        assignment = {var: _resolve_value(game, var, tok) for var, tok in node.event}
        return [event_factor(game, assignment)]
    if node.agent == "total":
        return utility_factors(game, range(1, game.n_agents + 1))
    if not (1 <= node.agent <= game.n_agents):
        raise QueryError(f"query references unknown agent {node.agent}")
    return utility_factors(game, [node.agent])


# -- jobs ------------------------------------------------------------------------


@_record
class QueryJob:
    """Everything needed to evaluate one interventional query."""

    game: CausalGame
    interventions: tuple = ()
    visibility: Mapping[int, tuple] = field(default_factory=dict)
    query: Query | str = "sampled: E[1]"
    seed: int = 0
    mix_ties: bool = False
    include_behavioral: bool = False
    epsilon: float = QUERY_EPS
    agent_order: Sequence[int] | None = None
    merge_common: bool = True

    def parsed_query(self) -> Query:
        if isinstance(self.query, str):
            return parse_query(self.query)
        return self.query

    def decomposition(self) -> Decomposition:
        """The visibility decomposition, computed once per job."""
        return self._decomposition

    @cached_property
    def _decomposition(self) -> Decomposition:
        return decompose(
            self.game,
            self.interventions,
            self.visibility,
            agent_order=self.agent_order,
            merge_common=self.merge_common,
        )


@_record
class Leaf:
    """One evaluated branch: per-stage outcome choices and the formula value."""

    choices: tuple
    value: object
    rules: Mapping[str, TabularCPD]


@_record
class QueryResult:
    verdict: object  # bool, float, or None when leaves disagree
    leaves: tuple[Leaf, ...]
    trace: tuple
    seed: int

    @property
    def leaf_values(self):
        return [leaf.value for leaf in self.leaves]


def _stage_outcomes(game, include_behavioral):
    """The stage game's equilibria as maps from free decision to rule array,
    in ``_cpd_tensor``'s layout.  First the pure ones in enumeration order,
    each rule a view into its decision's read-only pure-rule stack, one view
    object per (decision, rule index); with ``include_behavioral``, then each
    behavioral point and family corner not within ``PROB_EPS`` of an earlier
    outcome in every entry."""
    stacks, at = _pure_equilibria(game)
    view = functools.cache(lambda d, i: stacks[d][i])
    outcomes = [{d: view(d, i) for d, i in zip(stacks, ix)} for ix in at]
    if include_behavioral:
        for prof in behavioral_nash_small(game).extreme_profiles():
            rules = {d: _cpd_tensor(game, d, r) for d, r in prof.rules.items()}
            if not any(all(_same_rule(r, o[d]) for d, r in rules.items())
                       for o in outcomes):
                outcomes.append(rules)
    return outcomes


def _same_rule(a, b) -> bool:
    """Whether two rule arrays agree within ``PROB_EPS`` in every entry."""
    return a is b or bool((abs(a - b) <= PROB_EPS).all())


def _mixture_rule(decision, outcomes):
    """Entrywise uniform mixture of a decision's distinct rule arrays at a
    stage (``_same_rule``), an array in the same layout."""
    import numpy as np

    rules = []
    for o in outcomes:
        if not any(_same_rule(o[decision], q) for q in rules):
            rules.append(o[decision])
    return np.stack(rules).mean(axis=0)


def _rule_decision(prim):
    """The decision whose rule node the primitive fixes, or None."""
    if isinstance(prim, FixMechanism):
        decision = variable_of_mechanism(prim.target)
        if prim.target == rule_node(decision):
            return decision
    return None


def _layout(variables, decision, parents) -> tuple:
    """What a rule of ``decision`` over ``parents`` is laid out on: each
    parent with its domain, then the decision's domain, looked up in
    ``variables``, a name map."""
    return tuple((p, variables[p].domain) for p in parents), variables[decision].domain


def evaluate_query(job: QueryJob) -> QueryResult:
    """Run the staged evaluator and fold the leaves per the query's mode."""
    query = job.parsed_query()
    stages = job.decomposition().stages
    rng = random.Random(job.seed)
    found: list[tuple] = []  # per leaf: (choices, realized rules)
    trace: list[dict] = []

    # The stage games do not depend on the branch: each stage's game, held
    # by the decomposition, is solved once and the walk branches over its
    # outcomes.
    game = job.game
    plan = []  # per stage: (trace record, realized-rule edits, branches)
    held = {}  # decision -> layout of the rule the walk holds for it
    for idx, stage in enumerate(stages):
        record = {
            "stage": idx,
            "applied": [type(p).__name__ for p in stage.primitives],
            "agents": sorted(stage.agents),
            "suppressed": [],
            "a_prime": [],
        }
        edits = []  # (decision, rule), or (decision, None) to forget it
        variables = {v.name: v for v in game.variables}  # kept as prims apply
        # a rule rebinding takes effect on realized play only when observed
        observed = any(s.agents for s in stages[idx:])
        for prim in stage.primitives:
            decision = _rule_decision(prim)
            if isinstance(prim, AddVariable):
                variables[prim.variable.name] = prim.variable
            elif isinstance(prim, RemoveVariable):
                variables.pop(prim.target, None)
            touched = _intervened_owner(variables, prim, decision)
            if touched is not None:
                record["a_prime"].append(touched)
            if decision is not None:
                if observed:
                    edits.append((decision, prim.cpd))
                    if prim.cpd is None:
                        held.pop(decision, None)
                    else:
                        held[decision] = _layout(variables, decision, prim.cpd.parents)
                else:
                    record["suppressed"].append(prim.target)
        game = stage.game
        # a held rule is forgotten once its decision is gone, pinned by an
        # object fix (which binds), or laid out otherwise than the rule: other
        # parents, or other domains of them or of the decision
        stale = [
            d for d, lay in held.items()
            if d in game.cpds or d not in variables
            or lay != _layout(variables, d, game.parents_of(d))
        ]
        for d in stale:
            del held[d]
        edits += [(d, None) for d in stale]
        if not stage.agents:
            plan.append((record, edits, [(None, {})]))
            continue
        outcomes = _stage_outcomes(game, job.include_behavioral)
        if not outcomes:
            raise SolverError(
                f"no rational outcome found at stage {idx}: the configured "
                "solver found no equilibrium of the stage game"
            )
        record["outcomes"] = len(outcomes)
        to_fix = [
            d
            for a in sorted(stage.agents)
            for d in game.free_decisions_of(a)
        ]
        if job.mix_ties:
            record["choice"] = "mix-ties"
            mixed = {d: _mixture_rule(d, outcomes) for d in to_fix}
            branches = [("mix", mixed)]
        else:
            if query.mode == "sampled":
                k = rng.randrange(len(outcomes))
                record["choice"] = k
                picked = [k]
            else:
                picked = range(len(outcomes))
            branches = [(k, {d: outcomes[k][d] for d in to_fix}) for k in picked]
        held.update((d, _layout(variables, d, game.parents_of(d))) for d in to_fix)
        plan.append((record, edits, branches))

    def final_rules(realized):  # resolved against the final game
        rules = dict(realized)
        for d in game.decisions():
            if d in game.cpds:
                continue
            if d not in rules:
                if d in game.rule_fixes:
                    rules[d] = game.rule_fixes[d]
                else:
                    raise SolverError(
                        f"decision {d} was never resolved by any stage"
                    )
        return rules

    def walk(idx, realized, choices):
        if idx == len(plan):
            found.append((tuple(choices), final_rules(realized)))
            return
        record, edits, branches = plan[idx]
        # the record's lists hold strings and ints: copying each list suffices
        trace.append({k: v[:] if isinstance(v, list) else v for k, v in record.items()})
        realized = dict(realized)
        for decision, rule in edits:
            if rule is None:
                realized.pop(decision, None)
            else:
                realized[decision] = rule
        for choice, rules in branches:
            walk(idx + 1, {**realized, **rules}, choices + [choice])

    walk(0, {}, [])

    # Each P(...) and E[...] is one contraction over all leaves, made when
    # some leaf first reads it; realized rules replace imposed ones.
    final = game._derive(rule_fixes={})
    leaf_rules = [rules for _, rules in found]

    @functools.cache
    def at_leaves(node):
        return _at_leaves(final, leaf_rules, _atom_value(final, node))

    tables: dict = {}  # id of a stage rule array -> its TabularCPD

    def table(decision, rule):  # a rule fix is a TabularCPD already
        if isinstance(rule, TabularCPD):
            return rule
        if id(rule) not in tables:  # a held rule fits the final game's layout
            tables[id(rule)] = _rule_of(final, decision, rule)
        return tables[id(rule)]

    leaves = [
        Leaf(
            c, _evaluate(query.body, lambda n: at_leaves(n)[i], job.epsilon),
            {d: table(d, rule) for d, rule in r.items()},
        )
        for i, (c, r) in enumerate(found)
    ]
    values = [leaf.value for leaf in leaves]
    bare = not _boolean(query.body)
    if query.mode == "sampled":
        verdict = values[0]
    elif bare:
        if all(abs(v - values[0]) <= job.epsilon for v in values):
            verdict = values[0]
        else:
            verdict = None
    elif query.mode == "forall":
        verdict = all(values)
    else:
        verdict = any(values)
    return QueryResult(verdict, tuple(leaves), tuple(trace), job.seed)


def _intervened_owner(variables, prim, decision):
    """Agent whose decision or rule node the primitive directly targets,
    looked up in ``variables``, the name map after the primitive;
    ``decision`` is the primitive's ``_rule_decision``."""
    name = decision
    if isinstance(prim, FixObject):
        name = prim.target
    elif isinstance(prim, AddVariable):
        name = prim.variable.name
    v = variables.get(name)
    return v.agent if v is not None and v.kind == DECISION else None


# -- visibility classification ---------------------------------------------------


def classify_visibility(job: QueryJob) -> dict[int, str]:
    """Tag each agent pre-policy, post-policy, or interleaved.

    Pre-policy: by the agent's stage the applied primitives are exactly the
    declared interventions.  Post-policy: nothing has been applied yet.
    Anything else (including seeing an intervention and its inverse) is
    interleaved.
    """
    dec = job.decomposition()
    declared = frozenset((label, False) for label in dec.labels)
    tags_by_stage = [s.tags for s in dec.stages]
    out = {}
    for agent, j in dec.agent_stage.items():
        seen = frozenset().union(*tags_by_stage[: j + 1])
        if not seen:
            out[agent] = "post_policy"
        elif seen == declared:
            out[agent] = "pre_policy"
        else:
            out[agent] = "interleaved"
    return out


# -- quantitative environment specifications --------------------------------------


def _event_assignment(game: CausalGame, event) -> dict:
    if isinstance(event, str):
        parser = _Parser(event, "event")
        atoms = parser.event()
        if parser.peek()[0] != "eof":
            parser.fail(f"',' or {parser.end}")
    else:
        atoms = tuple((k, str(v)) for k, v in event.items())
    return {var: _resolve_value(game, var, tok) for var, tok in atoms}


def _event_probabilities(game, event, include_behavioral):
    profiles = _stage_outcomes(game, include_behavioral)
    if not profiles:
        raise SolverError("no rational outcomes to evaluate the event over")
    value = [event_factor(game, _event_assignment(game, event))]
    return _at_leaves(game, profiles, value)


def check_spec_env(
    game: CausalGame,
    interventions,
    event,
    direction: str = "raise",
    include_behavioral: bool = False,
) -> bool:
    """Does the intervention move the event probability the right way?

    ``raise``: the worst (minimum) event probability over equilibria of the
    intervened game must be at least the best (maximum) over equilibria of
    the original game, less ``QUERY_EPS``.  ``lower`` is the mirror image.
    With ``include_behavioral``, behavioral equilibria and the extreme
    points of behavioral families count on both sides.
    """
    if direction not in ("raise", "lower"):
        raise QueryError(f"unknown direction {direction!r}")
    base = _event_probabilities(game, event, include_behavioral)
    new = _event_probabilities(
        apply_all(game, interventions), event, include_behavioral
    )
    if direction == "raise":
        return min(new) >= max(base) - QUERY_EPS
    return max(new) <= min(base) + QUERY_EPS
