"""Core model: variables, tabular CPDs, games, joint distributions, utilities.

A causal game is a DAG over typed variables (chance / decision / utility,
the latter two owned by an agent) with a tabular CPD for every non-decision
variable.  Agents choose decision rules (CPDs over actions given the
decision's parents); a full assignment of rules induces a joint distribution
as the product of all factors.  Expected utilities and event probabilities
are partial contractions of that product (``expectations``): variable
elimination over the ancestors of each value factor, a utility's CPD times
its values or an event's 0/1 indicator, for many rule choices at once,
each decision's stacked in one array (a ``TabularCPD`` is built per answer).
``induced_joint`` builds the full product as a reference view; no solver
or query calls it.
numpy is imported inside the functions that build or contract arrays, on
their first call, so a program that only reads a game's structure (its
graphs, interventions and validation) never loads it.

All values are immutable after construction and every operation is a pure
function of its inputs; a game derived from another shares the mappings it
did not change (see ``CausalGame``).  The shared mutable state is two caches
keyed by structure alone, each keeping its last ``PLAN_CACHE`` entries: the
contraction plans (``_plan``), holding no array or value, and the read-only
pure-rule stacks (``_rule_stack``) of at most ``DIRECT_SPACE`` entries, 8 MB
in all.  A CPD keeps the arrays built from it (``_cpd_tensor``), and those
are read-only.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import inspect
import itertools
import math
import reprlib
from dataclasses import MISSING, FrozenInstanceError, field
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Mapping

from .errors import SolverError, ValidationError

if TYPE_CHECKING:
    import numpy as np

# -- numeric policy: every tolerance, rounding and size budget ----------------

PROB_EPS = 1e-9  # closer probabilities are equal: CPD rows, stage rules
EQ_EPS = 1e-7  # a pure deviation must gain more than this to break an equilibrium
COEFF_EPS = 1e-12  # smaller affine coefficients are rounding from cancelled terms
PIVOT_EPS = 1e-9  # smaller pivots and residuals of the indifference system are 0
VERIFY_EPS = 1e-6  # slack verifying support-enumeration candidates (solver rounding)
SAME_POINT_EPS = 1e-9  # behavioral points this close in every entry are the same
COMMIT_EPS = 1e-12  # smaller gaps between commitment utilities are ties
QUERY_EPS = 1e-9  # slack of query comparisons and spec checks
SHOWN_EPS = 1e-12  # a mixed rule's text lists actions with more probability
ROUND_DIGITS = 12  # digits kept in reported and serialised numbers
ENUM_BUDGET = 1 << 16  # most rule profiles or witness paths enumerated
NEST_DEPTH = 200  # most nested collections in a game or scenario file
DIRECT_SPACE = 1 << 12  # most index entries a contraction sums in one einsum, unordered
PLAN_CACHE = 256  # most contraction plans kept, the least recently used dropped
STABLE_CHUNK = 256  # most corners verified at once (memory ~ chunk)

CHANCE = "chance"
DECISION = "decision"
UTILITY = "utility"
KINDS = (CHANCE, DECISION, UTILITY)


class _Factory:
    """What a signature shows as the default of a field with a default factory."""

    def __repr__(self):
        return "<factory>"


def _values(names):
    """A function from a record to the tuple of its ``names`` attributes."""
    if len(names) == 1:
        get = attrgetter(*names)
        return lambda obj: (get(obj),)
    return attrgetter(*names)


def _record(cls):
    """Make ``cls`` a frozen dataclass whose methods are shared, not generated.

    ``dataclass(frozen=True)`` writes the source of six methods per class
    and ``exec``s it at import; for this package's 32 records that was over
    a third of the CLI's import time.  Here ``dataclass`` only records the
    fields, so ``dataclasses.fields`` and ``replace`` work, and closures over
    precomputed getters do what the generated methods did: ``__init__``
    (defaults, default factories, then ``__post_init__``, if the class has
    one, looked up on each call), ``__setattr__`` and ``__delattr__``
    raising ``FrozenInstanceError``, ``__eq__`` and ``__hash__`` over the
    compared fields, ``__repr__`` over the shown ones, and a
    ``__signature__``.  A hand-written ``__init__`` is kept.  Instances keep
    their ``__dict__``, where some records cache derived values.
    """
    documented = cls.__doc__ is not None
    if not documented:
        # replaced below: ``dataclass`` would write one from the signature of
        # ``object.__init__``, and parsing that text compiles ``tokenize``'s
        # patterns, about 15 ms on the first class
        cls.__doc__ = cls.__name__
    cls = dataclasses.dataclass(cls, init=False, repr=False, eq=False)
    fields = dataclasses.fields(cls)
    names = tuple(f.name for f in fields)
    specs = [(f.name, f.default, f.default_factory) for f in fields]
    required = sum(f.default is f.default_factory is MISSING for f in fields)
    tail = tuple(f.default for f in fields[required:])  # None if a factory gives one
    tail = None if MISSING in tail else tail
    compared = _values([f.name for f in fields if f.compare])
    shown = [f.name for f in fields if f.repr]
    shown_values = _values(shown)

    def bind(args, kwargs):
        if tail is not None and not kwargs and required <= len(args) < len(specs):
            return args + tail[len(args) - required:]
        if len(args) > len(specs):
            raise TypeError(
                f"{cls.__qualname__}() takes {len(specs)} arguments, {len(args)} given"
            )
        values = list(args)
        for name, default, factory in specs[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif factory is not MISSING:
                values.append(factory())
            elif default is not MISSING:
                values.append(default)
            else:
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{cls.__qualname__}() got {problem} argument {name!r}")
        return values

    set_field = object.__setattr__
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            set_field(self, name, value)
        if post_init:
            type(self).__post_init__(self)

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return compared(self) == compared(other)
        return NotImplemented

    def __hash__(self):
        return hash(compared(self))

    @reprlib.recursive_repr()
    def __repr__(self):
        pairs = zip(shown, shown_values(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"

    methods = dict(
        __setattr__=__setattr__, __delattr__=__delattr__, __eq__=__eq__,
        __hash__=__hash__, __repr__=__repr__,
    )
    if "__init__" not in cls.__dict__:
        methods["__init__"] = __init__
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__signature__ = inspect.Signature([
        inspect.Parameter(
            f.name,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            default=(
                _Factory() if f.default_factory is not MISSING
                else inspect.Parameter.empty if f.default is MISSING
                else f.default
            ),
            annotation=f.type,
        )
        for f in fields
    ])
    if not documented:
        cls.__doc__ = cls.__name__ + str(cls.__signature__)
    return cls


@_record
class Variable:
    """A typed variable with a finite ordered domain.

    ``agent`` is required exactly when the kind is decision or utility.
    Utility domains must consist of real numbers.
    """

    name: str
    kind: str
    domain: tuple
    agent: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(self.domain))


@_record
class TabularCPD:
    """A conditional probability table.

    ``table`` maps each full parent instantiation (a tuple of parent values,
    in parent order) to a probability vector over the variable's domain, in
    domain order.  The empty context ``()`` keys the row of a parentless
    variable.
    """

    variable: str
    parents: tuple[str, ...]
    table: Mapping[tuple, tuple[float, ...]]

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "table", {
            tuple(ctx): tuple(map(float, row)) for ctx, row in self.table.items()
        })

    def row(self, ctx: tuple) -> tuple[float, ...]:
        return self.table[tuple(ctx)]

    def __getstate__(self):
        # copies and pickles leave the kept arrays (``_cpd_tensor``) behind
        return {k: v for k, v in vars(self).items() if k != "_arrays"}

    @staticmethod
    def delta(variable, value, domain, parents=(), domain_of=None):
        """Degenerate CPD putting mass 1 on ``value`` in every context."""
        domain = tuple(domain)
        if value not in domain:
            raise ValidationError(
                f"{variable}: value {value!r} not in domain {domain}"
            )
        idx = domain.index(value)
        row = tuple(1.0 if i == idx else 0.0 for i in range(len(domain)))
        return tabulate(variable, parents, domain_of, lambda _: row)

    @staticmethod
    def uniform(variable, domain, parents=(), domain_of=None):
        n = len(tuple(domain))
        return tabulate(variable, parents, domain_of, lambda _: (1.0 / n,) * n)


def tabulate(variable: str, parents, domain_of, row) -> TabularCPD:
    """The CPD of ``variable`` over ``parents`` (``domain_of(p)`` gives their
    domains) with the row ``row({parent: value})`` in each context, contexts
    in ``CausalGame.contexts`` order."""
    parents = tuple(parents)
    contexts = itertools.product(*map(domain_of, parents))
    table = {c: row(dict(zip(parents, c))) for c in contexts}
    return TabularCPD(variable, parents, table)


@_record
class PolicyProfile:
    """A (possibly partial) assignment of decision rules to decisions."""

    rules: Mapping[str, TabularCPD]

    def __post_init__(self):
        object.__setattr__(self, "rules", dict(self.rules))

    def __getitem__(self, decision: str) -> TabularCPD:
        return self.rules[decision]

    def __contains__(self, decision: str) -> bool:
        return decision in self.rules

    def decisions(self) -> tuple[str, ...]:
        return tuple(self.rules.keys())

    def is_full(self, game: "CausalGame") -> bool:
        return all(d in self.rules for d in game.free_decisions())


@_record
class CausalGame:
    """A causal game: agents, a typed DAG, and tabular parameters.

    ``cpds`` holds one CPD per chance/utility variable, plus one per
    object-fixed decision: a decision with a table is pinned by an
    object-level intervention, which also severs its rule node's edge to it.
    ``rule_fixes`` holds externally imposed decision rules (commitments);
    those decisions are no longer strategic but their rule node still governs
    them.  Remaining decisions are "free": rational agents pick their rules.

    A game never changes its mappings in place, and a game derived from it
    (an intervention's, a query's final game) shares those it leaves
    unchanged: callers must not mutate ``cpds``, ``parents`` or ``rule_fixes``.
    """

    n_agents: int
    variables: tuple[Variable, ...]
    parents: Mapping[str, tuple[str, ...]]
    cpds: Mapping[str, TabularCPD]
    rule_fixes: Mapping[str, TabularCPD] = field(default_factory=dict)

    def __init__(self, n_agents, variables, parents, cpds, rule_fixes=()):
        # every mapping is copied, so ``rule_fixes`` may default to no pairs;
        # a game built from another takes ``_derive``, which copies nothing
        set_field = object.__setattr__
        set_field(self, "n_agents", n_agents)
        set_field(self, "variables", tuple(variables))
        set_field(self, "parents", {k: tuple(v) for k, v in parents.items()})
        set_field(self, "cpds", dict(cpds))
        set_field(self, "rule_fixes", dict(rule_fixes))
        self._index()

    def _index(self) -> None:
        """Build what lookups read off ``variables`` and ``parents``: the
        name index (the first of duplicate names wins), the children index,
        the declared names and decisions and each agent's utilities, in
        declaration order."""
        by_name: dict[str, Variable] = {}
        children: dict[str, list[str]] = {}
        utilities: dict[int, list[str]] = {}
        for v in self.variables:
            by_name.setdefault(v.name, v)
            for p in set(self.parents.get(v.name, ())):
                children.setdefault(p, []).append(v.name)
            if v.kind == UTILITY:
                utilities.setdefault(v.agent, []).append(v.name)
        vars(self).update(
            _by_name=by_name,
            _children={p: tuple(cs) for p, cs in children.items()},
            _utilities={a: tuple(us) for a, us in utilities.items()},
            _names=tuple(v.name for v in self.variables),
            _decisions=tuple(v.name for v in self.variables if v.kind == DECISION),
        )

    def _derive(self, **changes) -> CausalGame:
        """``dataclasses.replace(self, **changes)`` without its copies: the
        new game owns the fresh mappings in ``changes`` and shares every
        other field with this game, and the index while its ``variables``
        and ``parents`` are this game's own."""
        game = object.__new__(CausalGame)
        state = vars(game)
        state.update({
            "n_agents": self.n_agents, "variables": self.variables,
            "parents": self.parents, "cpds": self.cpds, "rule_fixes": self.rule_fixes,
        }, **changes)
        if game.variables is self.variables and game.parents is self.parents:
            state.update(
                _by_name=self._by_name, _children=self._children, _names=self._names,
                _decisions=self._decisions, _utilities=self._utilities,
            )
        else:
            game._index()
        return game

    # -- lookups ----------------------------------------------------------

    def names(self) -> tuple[str, ...]:
        return self._names

    def variable(self, name: str) -> Variable:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValidationError(f"unknown variable {name!r}") from None

    def has_variable(self, name: str) -> bool:
        return name in self._by_name

    def kind(self, name: str) -> str:
        return self.variable(name).kind

    def domain(self, name: str) -> tuple:
        return self.variable(name).domain

    def agent_of(self, name: str) -> int | None:
        return self.variable(name).agent

    def parents_of(self, name: str) -> tuple[str, ...]:
        return self.parents.get(name, ())

    def children_of(self, name: str) -> tuple[str, ...]:
        return self._children.get(name, ())

    def decisions(self) -> tuple[str, ...]:
        return self._decisions

    @property
    def object_fixed(self) -> frozenset:
        """The decisions pinned to a table in ``cpds``."""
        return frozenset(d for d in self.decisions() if d in self.cpds)

    def free_decisions(self) -> tuple[str, ...]:
        return tuple(
            d
            for d in self.decisions()
            if d not in self.rule_fixes and d not in self.cpds
        )

    def free_decisions_of(self, agent: int) -> tuple[str, ...]:
        return tuple(d for d in self.free_decisions() if self.agent_of(d) == agent)

    def utilities_of(self, agent: int) -> tuple[str, ...]:
        return self._utilities.get(agent, ())

    def contexts(self, name: str) -> list[tuple]:
        """All parent instantiations of ``name``, in deterministic order.

        The product runs over parent domains in parent order, last parent
        varying fastest.
        """
        return list(itertools.product(*map(self.domain, self.parents_of(name))))

    def delta_cpd(self, name: str, value) -> TabularCPD:
        return TabularCPD.delta(
            name, value, self.domain(name), self.parents_of(name), self.domain
        )

    delta_rule = delta_cpd  # a decision's pure rule playing ``value`` everywhere

    def factor_cpd(self, name: str) -> TabularCPD | None:
        """The CPD governing ``name`` in the induced joint, if pinned."""
        if name in self.cpds:
            return self.cpds[name]
        return self.rule_fixes.get(name)


@_record
class JointDistribution:
    """A full joint table over every variable of a game."""

    variables: tuple[str, ...]
    domains: tuple[tuple, ...]
    table: Mapping[tuple, float]

    def __post_init__(self):
        object.__setattr__(self, "table", dict(self.table))

    def prob(self, assignment: Mapping[str, object]) -> float:
        """Marginal probability of a partial assignment."""
        idx = {}
        for var, val in assignment.items():
            if var not in self.variables:
                raise ValidationError(f"unknown variable {var!r} in event")
            i = self.variables.index(var)
            if val not in self.domains[i]:
                raise ValidationError(
                    f"value {val!r} not in domain of {var!r}"
                )
            idx[i] = val
        return sum(
            p for inst, p in self.table.items()
            if all(inst[i] == v for i, v in idx.items())
        )


# -- validation -------------------------------------------------------------


def _dependency_order(names, parents) -> tuple[list[str], list[str] | None]:
    """Parents-first order of ``names`` and one directed cycle, if any.

    Iterative depth-first search from each name in turn, through parents in
    parent order; the order lists each node after its parents.  On a cycle
    the search stops and the cycle is returned in edge direction, first
    node repeated at the end.
    """
    order: list[str] = []
    state: dict[str, int] = {}  # 1 on the search path, 2 done
    for root in names:
        if root in state:
            continue
        state[root] = 1
        path = [root]
        pending = [iter(parents.get(root, ()))]
        while pending:
            for p in pending[-1]:
                if state.get(p) == 1:
                    cycle = path[path.index(p):] + [p]
                    return order, cycle[::-1]
                if p not in state:
                    state[p] = 1
                    path.append(p)
                    pending.append(iter(parents.get(p, ())))
                    break
            else:
                pending.pop()
                done = path.pop()
                state[done] = 2
                order.append(done)
    return order, None


def _check_cpd(game: CausalGame, cpd: TabularCPD, name: str) -> list[str]:
    """Violations of ``cpd`` as the CPD of ``name`` under the game's parents.

    One pass over the rows collects the faulty contexts; only those are
    sorted into the report.
    """
    if cpd.variable != name:
        return [f"{name}: CPD declares variable {cpd.variable!r}"]
    if tuple(cpd.parents) != game.parents_of(name):
        return [
            f"{name}: CPD parents {cpd.parents} do not match game parents "
            f"{game.parents_of(name)}"
        ]
    want = set(game.contexts(name))
    ncol = len(game.domain(name))
    rows = cpd.table
    extra, faults = [], []
    for ctx, row in rows.items():
        if ctx not in want:
            extra.append(ctx)
            continue
        if len(row) != ncol:
            faults.append((ctx, f"has {len(row)} entries, domain has {ncol}"))
            continue
        total = sum(row)  # not finite when an entry is not
        if not math.isfinite(total) and not all(map(math.isfinite, row)):
            faults.append((ctx, "has a non-finite entry"))
            continue
        if ncol and min(row) < -PROB_EPS:
            faults.append((ctx, "has a negative entry"))
        if abs(total - 1.0) > PROB_EPS:
            faults.append((ctx, f"sums to {total!r}, not 1"))
    missing = want.difference(rows) if len(rows) - len(extra) < len(want) else ()
    if not (missing or extra or faults):
        return []
    return (
        [f"{name}: missing CPD row for context {c}" for c in sorted(missing, key=repr)]
        + [f"{name}: CPD row for unknown context {c}" for c in sorted(extra, key=repr)]
        + [f"{name}: row {c} {m}" for c, m in sorted(faults, key=lambda f: repr(f[0]))]
    )


def _is_int(x) -> bool:
    """An ``int`` proper: ``True`` and ``1.5`` number no agent."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """An ``int`` or ``float`` proper: ``True`` is no number."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def variable_report(v: Variable, n_agents: int) -> list[str]:
    """Violations of ``v`` on its own: kind, domain and owner."""
    if v.kind not in KINDS:
        return [f"{v.name}: unknown kind {v.kind!r}"]
    report = []
    if not v.domain:
        report.append(f"{v.name}: empty domain")
    if len(set(v.domain)) != len(v.domain):
        report.append(f"{v.name}: duplicate domain values")
    for x in v.domain:
        # CPD rows are keyed by comma-joined, stripped values in files
        if isinstance(x, str) and ("," in x or x != x.strip() or not x):
            report.append(
                f"{v.name}: domain value {x!r} is empty or has a comma or "
                "surrounding whitespace"
            )
    if v.kind in (DECISION, UTILITY):
        if not (_is_int(v.agent) and 1 <= v.agent <= n_agents):
            report.append(
                f"{v.name}: {v.kind} variable needs an agent in 1..{n_agents}"
            )
    elif v.agent is not None:
        report.append(f"{v.name}: chance variable must not have an agent")
    if v.kind == UTILITY:
        if not all(map(_is_real, v.domain)):
            report.append(f"{v.name}: utility domain must be numeric")
        elif not all(math.isfinite(u) for u in v.domain):
            report.append(f"{v.name}: utility domain must be finite")
    return report


def validate_game(game: CausalGame) -> list[str]:
    """Check every structural invariant; return a list of violations.

    An empty report means the game is valid.  Each violation names the
    variable or row at fault.  The rules are those of ``violations``, run
    over every name the game mentions.
    """
    if not (_is_int(game.n_agents) and game.n_agents >= 1):
        return ["'agents' must be a positive integer"]  # no owner can be checked
    names = dict.fromkeys([*game.parents, *game.names(), *game.rule_fixes, *game.cpds])
    return _report(game, game.variables, names)


def violations(game: CausalGame, names) -> list[str]:
    """The rules of ``validate_game`` where they concern ``names``.

    Each named variable on its own, its parent list, a cycle through it,
    parents that are utilities, its CPD or imposed rule (a decision has at
    most one of the two), a table on a name that is no variable, and an
    imposed rule on a name that is no decision.  A name that is no variable brings
    its children along: a lost parent is a fault of the child.  When a valid
    game changes only the parents, tables, rules or existence of ``names``,
    the result is valid exactly when this report is empty.  The work is
    per name through the game's index, plus one look at each imposed rule;
    the cycle search starts at ``names``, since a new cycle passes through
    a changed parent list.
    """
    by_name = game._by_name
    names = dict.fromkeys(names)
    for name in tuple(names):
        if name not in by_name:
            names.update(dict.fromkeys(game.children_of(name)))
    return _report(game, [by_name[n] for n in names if n in by_name], names)


def _report(game: CausalGame, variables, names) -> list[str]:
    """The violations of ``variables`` (each ``Variable`` once per entry)
    and of ``names``, rule by rule in a fixed order; the structural rules
    end the report before the cycle, and a cycle before the tables."""
    by_name = game._by_name
    report: list[str] = []
    seen = set()
    for v in variables:
        if v.name in seen:
            report.append(f"{v.name}: duplicate variable name")
        seen.add(v.name)
        report += variable_report(v, game.n_agents)

    for name in names:
        ps = game.parents.get(name)
        if ps is None:
            continue
        if name not in by_name:
            report.append(f"parent list for unknown variable {name!r}")
        for p in ps:
            if p not in by_name:
                report.append(f"{name}: unknown parent {p!r}")
        if len(set(ps)) != len(ps):
            report.append(f"{name}: duplicate parents")
    if report:
        return report

    _, cycle = _dependency_order([v.name for v in variables], game.parents)
    if cycle:
        return ["object-level graph has a cycle: " + " -> ".join(cycle)]

    for v in variables:
        for p in game.parents_of(v.name):
            if by_name[p].kind == UTILITY:
                report.append(
                    f"{v.name}: utility {p} cannot be a parent (utility "
                    "variables must be leaves)"
                )

    for v in variables:
        if v.kind == DECISION and v.name in game.rule_fixes:
            report += _check_cpd(game, game.rule_fixes[v.name], v.name)
            if v.name in game.cpds:
                report.append(f"{v.name}: decision has both a table and an imposed rule")
        if v.name in game.cpds:
            report += _check_cpd(game, game.cpds[v.name], v.name)
        elif v.kind != DECISION:
            report.append(f"{v.name}: missing CPD")
    for name in game.rule_fixes:
        if name in names and getattr(by_name.get(name), "kind", None) != DECISION:
            report.append(f"rule fix on non-decision {name!r}")
    for name in names:
        if name in game.cpds and name not in by_name:
            report.append(f"table for unknown variable {name!r}")
    return report


# -- joint distribution and utilities ----------------------------------------


def induced_joint(game: CausalGame, profile: PolicyProfile) -> JointDistribution:
    """The joint distribution induced by a full policy profile.

    Every variable contributes exactly one factor: its CPD for chance,
    utility, and object-fixed decisions; an imposed rule for committed
    decisions; and the profile's rule for free decisions.
    """
    factors = _factor_cpds(game, profile)
    names = game.names()
    domains = tuple(game.domain(n) for n in names)
    # the declared variable order need not be topological (added variables
    # append at the end); expand rows in dependency order, one variable at
    # a time, and key them in game order
    order, _ = _dependency_order(names, game.parents)
    position = {n: k for k, n in enumerate(order)}
    rows = [((), 1.0)]
    for name in order:
        cpd_table = factors[name].table
        singles = [(v,) for v in game.domain(name)]
        at = [position[p] for p in game.parents_of(name)]
        if len(at) > 1:
            context_of = itemgetter(*at)
        else:  # a slice keeps the context a tuple
            context_of = itemgetter(slice(at[0], at[0] + 1) if at else slice(0))
        rows = [
            (values + singles[vi], prob * p)
            for values, prob in rows
            for vi, p in enumerate(cpd_table[context_of(values)])
            if p != 0.0
        ]
    if order == list(names):
        table = dict(rows)
    else:
        key = tuple(position[n] for n in names)
        table = {tuple(values[k] for k in key): prob for values, prob in rows}
    return JointDistribution(names, domains, table)


def _factor_cpds(game: CausalGame, profile: PolicyProfile, stacked=()) -> dict:
    """The factor CPD of every variable outside ``stacked``.

    A pinned CPD or an imposed rule, else the profile's rule.  Raises when
    a rule is missing or the profile names a non-decision.
    """
    factors = {}
    for name in game.names():
        if name in stacked:
            continue
        cpd = game.factor_cpd(name)
        if cpd is None:
            if name not in profile:
                raise ValidationError(f"missing decision rule for {name}")
            cpd = profile[name]
        factors[name] = cpd
    for d in profile.decisions():
        if not game.has_variable(d) or game.kind(d) != DECISION:
            raise ValidationError(f"profile names non-decision {d!r}")
    return factors


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
        if not (1 <= agent <= game.n_agents):
            raise ValidationError(f"unknown agent index {agent}")
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
            parts = [factor(n) for n in _ancestral(game, labels)]
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
    and kept read-only on the CPD, as the game keeps its arena; a copy of
    the CPD starts without them.
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


def _ancestral(game: CausalGame, names) -> list[str]:
    """``names`` and all their ancestors, in declaration order."""
    seen: set[str] = set()
    stack = list(names)
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            stack.extend(game.parents_of(n))
    return [n for n in game.names() if n in seen]


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
        DIRECT_SPACE,
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
    if n ** k * k * n <= DIRECT_SPACE:
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

