"""Independent computations the benchmark checks the program against.

Nothing here imports the program.  Games are read from the generator's
spec dicts (or YAML fixtures read with ``yaml.safe_load``), or from the
plain records the worker writes for games the program built.  Expected
utilities and probabilities come from a walk over instantiations, pure
equilibria from per-agent maxima grouped by the other agents' profile, and
relevance from ``networkx.is_d_separator`` on an independently built
mechanised graph.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx

TOL = 1e-9


class Spec:
    """A game as plain data: variables, parents, tables and fixes."""

    def __init__(self, agents, variables, cpds, rule_fixes=None, object_fixed=()):
        self.agents = agents
        self.names = [v["name"] for v in variables]
        self.kind = {v["name"]: v["kind"] for v in variables}
        self.agent = {v["name"]: v.get("agent") for v in variables}
        self.domain = {v["name"]: tuple(v["domain"]) for v in variables}
        self.parents = {v["name"]: tuple(v.get("parents", ())) for v in variables}
        self.cpds = cpds  # name -> {ctx tuple: row tuple}
        self.rule_fixes = dict(rule_fixes or {})
        self.object_fixed = set(object_fixed)
        self.order = self._topological()

    @classmethod
    def from_file(cls, doc):
        """From the game-file layout (generator spec or fixture YAML)."""
        variables = doc["variables"]
        domains = {v["name"]: tuple(v["domain"]) for v in variables}
        parents = {v["name"]: tuple(v.get("parents", ())) for v in variables}
        cpds = {}
        for name, rows in doc["cpds"].items():
            table = {}
            for key, row in rows.items():
                key = str(key)
                tokens = [] if key == "" else [t.strip() for t in key.split(",")]
                ctx = tuple(
                    next(v for v in domains[p] if str(v) == tok)
                    for tok, p in zip(tokens, parents[name])
                )
                if isinstance(row, (list, tuple)):
                    table[ctx] = tuple(float(x) for x in row)
                else:
                    table[ctx] = tuple(
                        1.0 if str(v) == str(row) else 0.0 for v in domains[name]
                    )
            cpds[name] = table
        return cls(doc["agents"], variables, cpds)

    @classmethod
    def from_record(cls, rec):
        """From the worker's record of a game the program built."""
        def tables(block):
            return {
                name: {tuple(ctx): tuple(row) for ctx, row in rows}
                for name, rows in block.items()
            }
        return cls(rec["agents"], rec["variables"], tables(rec["cpds"]),
                   tables(rec["rule_fixes"]), rec["object_fixed"])

    def _topological(self):
        order, state = [], {}
        for root in self.names:
            stack = [(root, iter(self.parents[root]))]
            if root in state:
                continue
            state[root] = 1
            while stack:
                node, it = stack[-1]
                for p in it:
                    if p not in state:
                        state[p] = 1
                        stack.append((p, iter(self.parents[p])))
                        break
                else:
                    stack.pop()
                    order.append(node)
        return order

    def contexts(self, name):
        return list(itertools.product(*[self.domain[p] for p in self.parents[name]]))

    def decisions(self):
        return [n for n in self.names if self.kind[n] == "decision"]

    def free_decisions(self):
        return [d for d in self.decisions()
                if d not in self.rule_fixes and d not in self.object_fixed]

    def utilities_of(self, agent):
        return [n for n in self.names
                if self.kind[n] == "utility" and self.agent[n] == agent]

    def mechanism(self, name):
        return ("PI_" if self.kind[name] == "decision" else "THETA_") + name


# -- joints, utilities, equilibria -----------------------------------------------


def instantiations(spec, rules):
    """Every positive-probability instantiation as (assignment, probability).

    ``rules`` gives the table of each decision not pinned by the game.
    """
    tables = []
    for name in spec.order:
        table = spec.cpds.get(name)
        if table is None or (spec.kind[name] == "decision"
                             and name not in spec.object_fixed):
            table = rules[name] if name in rules else spec.rule_fixes[name]
        tables.append((name, spec.parents[name], spec.domain[name], table))
    out = []
    assignment = {}

    def walk(k, prob):
        if k == len(tables):
            out.append((dict(assignment), prob))
            return
        name, parents, domain, table = tables[k]
        row = table[tuple(assignment[p] for p in parents)]
        for value, p in zip(domain, row):
            if p != 0.0:
                assignment[name] = value
                walk(k + 1, prob * p)
        assignment.pop(name, None)

    walk(0, 1.0)
    return out


def utilities(spec, rules):
    """Expected utility of every agent under a full rule assignment."""
    totals = [0.0] * (spec.agents + 1)
    owned = [(n, spec.agent[n]) for n in spec.names if spec.kind[n] == "utility"]
    for assignment, p in instantiations(spec, rules):
        for n, a in owned:
            totals[a] += p * assignment[n]
    return totals


def pure_rules(spec, decision):
    """Pure rules, first context most significant, actions in domain order."""
    ctxs = spec.contexts(decision)
    dom = spec.domain[decision]
    out = []
    for actions in itertools.product(range(len(dom)), repeat=len(ctxs)):
        out.append({c: tuple(1.0 if i == a else 0.0 for i in range(len(dom)))
                    for c, a in zip(ctxs, actions)})
    return out


def pure_equilibria(spec):
    """Pure equilibria in enumeration order, as {decision: table} dicts.

    Each agent's best value is taken per profile of the other agents'
    decisions; a profile is an equilibrium when every agent attains it.
    """
    decisions = spec.free_decisions()
    rule_lists = [pure_rules(spec, d) for d in decisions]
    combos = list(itertools.product(*[range(len(r)) for r in rule_lists]))
    agents = sorted({spec.agent[d] for d in decisions})
    eu = {}
    for combo in combos:
        rules = {d: rule_lists[i][combo[i]] for i, d in enumerate(decisions)}
        eu[combo] = utilities(spec, rules)
    best = {}
    for combo in combos:
        for a in agents:
            key = (a,) + tuple(c for c, d in zip(combo, decisions) if spec.agent[d] != a)
            best[key] = max(best.get(key, float("-inf")), eu[combo][a])
    out = []
    for combo in combos:
        if all(eu[combo][a] >= best[(a,) + tuple(
                c for c, d in zip(combo, decisions) if spec.agent[d] != a)] - TOL
               for a in agents):
            out.append({d: rule_lists[i][combo[i]] for i, d in enumerate(decisions)})
    return out


def deviation_gain(spec, rules):
    """Largest gain any agent gets from a pure deviation of its own rules."""
    base = utilities(spec, rules)
    gain = 0.0
    for a in sorted({spec.agent[d] for d in spec.free_decisions()}):
        own = [d for d in spec.free_decisions() if spec.agent[d] == a]
        for combo in itertools.product(*[pure_rules(spec, d) for d in own]):
            trial = dict(rules)
            trial.update(zip(own, combo))
            gain = max(gain, utilities(spec, trial)[a] - base[a])
    return gain


def mixture(tables):
    """Entrywise uniform mixture of the distinct tables."""
    distinct = []
    for t in tables:
        if t not in distinct:
            distinct.append(t)
    return {c: tuple(sum(t[c][i] for t in distinct) / len(distinct)
                     for i in range(len(distinct[0][c])))
            for c in distinct[0]}


def commitment(spec, leader):
    """Best leader commitment value with leader-favourable tie-breaking.

    Every follower pure rule gives affine follower and leader values in the
    commitment probability p; the optimum sits at p in {0, 1} or where two
    follower values cross.
    """
    lines = commitment_lines(spec, leader)
    points = {0.0, 1.0}
    for (f1, _), (f2, _) in itertools.combinations(lines, 2):
        if abs(f1[0] - f2[0]) > 1e-12:
            p = (f2[1] - f1[1]) / (f1[0] - f2[0])
            if 0.0 <= p <= 1.0:
                points.add(p)
    return max(commitment_value_at(lines, p) for p in points)


def commitment_value_at(lines, p):
    top = max(fa * p + fb for (fa, fb), _ in lines)
    return max(la * p + lb for (fa, fb), (la, lb) in lines if fa * p + fb >= top - 1e-9)


def commitment_lines(spec, leader):
    """The (follower, leader) affine lines used by ``commitment``."""
    lead = [d for d in spec.free_decisions() if spec.agent[d] == leader][0]
    follow = [d for d in spec.free_decisions() if d != lead]
    follower = spec.agent[follow[0]]
    ctx = spec.contexts(lead)[0]
    lines = []
    for combo in itertools.product(*[pure_rules(spec, d) for d in follow]):
        at = []
        for p in (0.0, 1.0):
            rules = dict(zip(follow, combo))
            rules[lead] = {ctx: (p, 1.0 - p)}
            at.append(utilities(spec, rules))
        lines.append(((at[1][follower] - at[0][follower], at[0][follower]),
                      (at[1][leader] - at[0][leader], at[0][leader])))
    return lines


# -- graphs ------------------------------------------------------------------------


def object_graph(spec):
    g = nx.DiGraph()
    g.add_nodes_from(spec.names)
    for n in spec.names:
        for p in spec.parents[n]:
            g.add_edge(p, n)
    return g


def mechanised_graph(spec):
    """Object graph plus one mechanism node per variable, edge into it."""
    g = object_graph(spec)
    for n in spec.names:
        g.add_node(spec.mechanism(n))
        if n not in spec.object_fixed:
            g.add_edge(spec.mechanism(n), n)
    return g


def relevance_tests(spec, decision):
    """The two (targets, conditioning) d-connection tests of a rule node."""
    agent = spec.agent[decision]
    downstream = nx.descendants(object_graph(spec), decision)
    utils = frozenset(u for u in spec.utilities_of(agent) if u in downstream)
    obs = frozenset(spec.parents[decision])
    return [(utils, frozenset({decision}) | obs), (obs, frozenset())]


def relevance(spec):
    """Every (mechanism, rule node) pair one of the two tests connects."""
    g = mechanised_graph(spec)
    edges = set()
    for d in spec.decisions():
        if d in spec.rule_fixes:
            continue
        target = "PI_" + d
        tests = relevance_tests(spec, d)
        for n in spec.names:
            mech = spec.mechanism(n)
            if mech == target:
                continue
            if any(targets and not nx.is_d_separator(g, {mech}, set(targets), set(given))
                   for targets, given in tests):
                edges.add((mech, target))
    return edges


class _Descendants(dict):
    """Node -> the node and its descendants, computed on first use."""

    def __init__(self, graph):
        super().__init__()
        self.graph = graph

    def __missing__(self, node):
        self[node] = nx.descendants(self.graph, node) | {node}
        return self[node]


def blocked_at(nodes, arrows, given, desc):
    """The interior node that blocks the path under ``given``, or None.

    A collider blocks unless it or a descendant is conditioned on; any other
    interior node blocks when it is conditioned on.
    """
    for i in range(1, len(nodes) - 1):
        w = nodes[i]
        if arrows[i - 1] == "->" and arrows[i] == "<-":
            if not desc[w] & given:
                return w
        elif w in given:
            return w
    return None


def path_problems(spec, graph, mech, target, paths):
    """Why the given paths are not active witnesses of mech -> target."""
    decision = target[len("PI_"):]
    tests = {given: targets for targets, given in relevance_tests(spec, decision)}
    desc = _Descendants(graph)
    problems = []
    seen = set()
    for path in paths:
        nodes, arrows, given = path["nodes"], path["arrows"], frozenset(path["given"])
        key = (tuple(nodes), tuple(arrows), given)
        if key in seen:
            problems.append(f"duplicate path {nodes}")
        seen.add(key)
        if given not in tests:
            problems.append(f"path {nodes} under unknown conditioning {sorted(given)}")
            continue
        targets = tests[given]
        if nodes[0] != mech or nodes[-1] not in targets or len(set(nodes)) != len(nodes):
            problems.append(f"path {nodes} has bad endpoints or repeats")
            continue
        if len(arrows) != len(nodes) - 1:
            problems.append(f"path {nodes} has {len(arrows)} arrows")
            continue
        for i, arrow in enumerate(arrows):
            a, b = nodes[i], nodes[i + 1]
            edge = (a, b) if arrow == "->" else (b, a)
            if arrow not in ("->", "<-") or not graph.has_edge(*edge):
                problems.append(f"path {nodes} uses a missing edge {edge}")
                break
        else:
            if set(nodes[1:-1]) & targets:
                problems.append(f"path {nodes} passes through a target")
            elif blocked_at(nodes, arrows, given, desc) is not None:
                problems.append(f"path {nodes} is blocked at "
                                f"{blocked_at(nodes, arrows, given, desc)}")
    return problems


def hit_sets(spec, paths):
    """Per path, the object variables entered by an on-path edge."""
    out = []
    for path in paths:
        nodes, arrows = path["nodes"], path["arrows"]
        heads = set()
        for i, arrow in enumerate(arrows):
            head = nodes[i + 1] if arrow == "->" else nodes[i]
            if head in spec.kind:
                heads.add(head)
        out.append(frozenset(heads))
    return out


def min_set_problems(spec, paths, chosen):
    sets = hit_sets(spec, paths)
    chosen = set(chosen)
    problems = []
    if not chosen <= set(spec.names):
        problems.append(f"min-set {sorted(chosen)} names non-variables")
    if not all(chosen & s for s in sets):
        problems.append(f"min-set {sorted(chosen)} misses a path")
    universe = sorted(set().union(*sets)) if sets else []
    for combo in itertools.combinations(universe, max(len(chosen) - 1, 0)):
        if all(set(combo) & s for s in sets):
            problems.append(f"smaller set {list(combo)} hits every path")
            break
    return problems


def active_paths(graph, src, targets, given):
    """All active simple paths from src to targets (small graphs only)."""
    found = []
    desc = _Descendants(graph)

    def extend(nodes, arrows):
        here = nodes[-1]
        steps = [(c, "->") for c in graph.successors(here)]
        steps += [(p, "<-") for p in graph.predecessors(here)]
        for nxt, arrow in steps:
            if nxt in nodes or nxt == src:
                continue
            n2, a2 = nodes + [nxt], arrows + [arrow]
            if nxt in targets:
                if blocked_at(n2, a2, given, desc) is None:
                    found.append({"nodes": n2, "arrows": a2, "given": sorted(given)})
                continue
            extend(n2, a2)

    extend([src], [])
    return found


def reachability(spec, mech, target):
    graph = mechanised_graph(spec)
    out = []
    for targets, given in relevance_tests(spec, target[len("PI_"):]):
        if targets:
            out.extend(active_paths(graph, mech, targets, given))
    return out


def min_set_size(spec, mech, target):
    sets = hit_sets(spec, reachability(spec, mech, target))
    universe = sorted(set().union(*sets))
    for k in range(1, len(universe) + 1):
        for combo in itertools.combinations(universe, k):
            if all(set(combo) & s for s in sets):
                return k
    return None


def drop_parents(spec, child, remove):
    """The spec's structure after ``child`` loses the given parents."""
    variables = []
    for n in spec.names:
        ps = list(spec.parents[n])
        if n == child:
            ps = [p for p in ps if p not in remove]
        variables.append({"name": n, "kind": spec.kind[n], "agent": spec.agent[n],
                          "domain": spec.domain[n], "parents": ps})
    return Spec(spec.agents, variables, spec.cpds, spec.rule_fixes, spec.object_fixed)


def dot_edges(dot_text):
    edges = set()
    for line in dot_text.splitlines():
        line = line.strip()
        if "->" in line:
            head = line.split("[")[0].rstrip(" ;")
            a, b = head.split("->")
            edges.add((a.strip().strip('"'), b.strip().strip('"')))
    return edges


def expected_dot_edges(spec, inter):
    edges = set(object_graph(spec).edges())
    edges |= {(spec.mechanism(n), n) for n in spec.names if n not in spec.object_fixed}
    return edges | set(inter)


# -- queries -----------------------------------------------------------------------


def formula_value(tree, spec, joint, eps=1e-9):
    """Evaluate a query tree on a list of (assignment, probability)."""
    op = tree[0]
    if op == "num":
        return tree[1]
    if op == "P":
        return sum(p for a, p in joint
                   if all(str(a[var]) == tok for var, tok in tree[1]))
    if op == "E":
        agents = range(1, spec.agents + 1) if tree[1] == "total" else [tree[1]]
        utils = [n for a in agents for n in spec.utilities_of(a)]
        return sum(p * sum(a[u] for u in utils) for a, p in joint)
    if op == "bin":
        x, y = formula_value(tree[2], spec, joint, eps), formula_value(tree[3], spec, joint, eps)
        return x + y if tree[1] == "+" else x - y if tree[1] == "-" else x * y
    if op == "cmp":
        x, y = formula_value(tree[2], spec, joint, eps), formula_value(tree[3], spec, joint, eps)
        return {"=": abs(x - y) <= eps, "<=": x <= y + eps, ">=": x >= y - eps,
                "<": x < y - eps, ">": x > y + eps}[tree[1]]
    if op == "not":
        return not formula_value(tree[1], spec, joint, eps)
    if op == "and":
        return formula_value(tree[1], spec, joint, eps) and formula_value(tree[2], spec, joint, eps)
    if op == "or":
        return formula_value(tree[1], spec, joint, eps) or formula_value(tree[2], spec, joint, eps)
    raise ValueError(op)


def leaf_value(tree, spec, rules):
    """A leaf's value: its rules on the final game, imposed rules stripped."""
    joint = instantiations(spec, rules)
    return formula_value(tree[1], spec, joint)


def fold(tree, values, eps=1e-9):
    """Fold leaf values into a verdict the way the query's mode says."""
    mode, body = tree
    if mode == "sampled":
        return values[0]
    if body[0] not in ("cmp", "not", "and", "or"):
        return values[0] if all(abs(v - values[0]) <= eps for v in values) else None
    return all(values) if mode == "forall" else any(values)


def solved_once(tree, spec, seed, mix_ties):
    """Verdict of the fully intervened game solved once, all agents seeing it."""
    outcomes = pure_equilibria(spec)
    fixed = {d: spec.rule_fixes[d] for d in spec.decisions() if d in spec.rule_fixes}
    if mix_ties:
        rules = dict(fixed)
        for d in spec.free_decisions():
            rules[d] = mixture([o[d] for o in outcomes])
        return fold(tree, [leaf_value(tree, spec, rules)])
    if tree[0] == "sampled":
        k = random.Random(seed).randrange(len(outcomes))
        return fold(tree, [leaf_value(tree, spec, {**fixed, **outcomes[k]})])
    return fold(tree, [leaf_value(tree, spec, {**fixed, **o}) for o in outcomes])


def same_value(a, b):
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a is b or a == b and type(a) is type(b)
    return abs(a - b) <= 1e-9


def tables_equal(a, b):
    if set(a) != set(b):
        return False
    return all(len(a[c]) == len(b[c]) and all(abs(x - y) <= TOL for x, y in zip(a[c], b[c]))
               for c in a)
