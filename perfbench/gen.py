"""Seeded input generators.

Every generator returns a game *spec*: a plain dict in the game-file layout
(``agents``, ``variables``, ``cpds``).  ``text(spec)`` renders it as the YAML
the program parses; the oracles read the dict itself, so they never depend
on the program's parser.

Inputs are built so that the cost of a pass barely moves with the seed: the
seed draws probabilities, utility values, names and declaration orders,
while the sizes that set the cost (profile counts, joint sizes, graph
shapes, equilibrium counts of the query games) are fixed per family.
"""

from __future__ import annotations

import itertools
import os
import random

import yaml

DYADIC = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)

# Graph shapes come from this fixed seed; the workload seed relabels and
# reorders them and draws their tables.
SHAPE_SEED = 20240613
SHAPE_PATH_CAP = 40000


def text(spec: dict) -> str:
    return yaml.safe_dump(spec, sort_keys=False)


def _row(rng):
    p = rng.choice(DYADIC)
    return [p, 1.0 - p]


def _var(name, kind, domain, parents=(), agent=None):
    entry = {"name": name, "kind": kind}
    if agent is not None:
        entry["agent"] = agent
    entry["domain"] = list(domain)
    if parents:
        entry["parents"] = list(parents)
    return entry


def _ctx_keys(domains):
    return [",".join(str(v) for v in ctx) for ctx in itertools.product(*domains)]


def _utility(name, agent, parents, domains_of, rng, values):
    """A utility variable with seeded integer values, one per context.

    The domain is every allowed value, used or not: its size enters the
    cost of some solvers, so it must not move with the seed.
    """
    values = list(values)
    rows = {key: rng.choice(values) for key in _ctx_keys([domains_of[p] for p in parents])}
    return _var(name, "utility", values, parents, agent), rows


def _chance_chain(variables, cpds, prefix, length, rng):
    """Append binary chance variables prefix0 -> prefix1 -> ... with seeded rows."""
    for i in range(length):
        name = f"{prefix}{i}"
        if i == 0:
            variables.append(_var(name, "chance", ("a", "b")))
            cpds[name] = {"": _row(rng)}
        else:
            variables.append(_var(name, "chance", ("a", "b"), [f"{prefix}{i - 1}"]))
            cpds[name] = {"a": _row(rng), "b": _row(rng)}


def _finish(variables, cpds, agents=2):
    return {"agents": agents, "variables": variables, "cpds": cpds,
            "rationality": "best_response"}


# -- solve_scale families ------------------------------------------------------


def multi(k1: int, k2: int, rng, variant: int = 0) -> dict:
    """Profile-heavy: k decisions per agent, each observing one binary chance.

    (4**k1) * (4**k2) pure profiles over a joint of two instantiations.  The
    deviation scan stops at the first improving deviation, so its work
    depends on every utility comparison: the tables come from the fixed
    shape seed, and the workload seed applies a positive affine map to each
    agent's utilities, which keeps every comparison.
    """
    fixed = random.Random(f"{SHAPE_SEED}:multi:{k1}:{k2}:{variant}")
    variables = [_var("X", "chance", ("a", "b"))]
    cpds = {"X": {"": _row(fixed)}}
    decisions = []
    for agent, k in ((1, k1), (2, k2)):
        for i in range(k):
            name = f"D{agent}{chr(ord('a') + i)}"
            decisions.append(name)
            variables.append(_var(name, "decision", ("u", "v"), ["X"], agent))
    domains = {"X": ("a", "b"), **{d: ("u", "v") for d in decisions}}
    for agent in (1, 2):
        scale, offset = rng.randint(1, 3), rng.randint(-4, 4)
        keys = _ctx_keys([domains[p] for p in ["X"] + decisions])
        rows = {key: scale * fixed.randint(-4, 4) + offset for key in keys}
        variables.append(_var(f"U{agent}", "utility",
                              [scale * v + offset for v in range(-4, 5)],
                              ["X"] + decisions, agent))
        cpds[f"U{agent}"] = rows
    return _finish(variables, cpds)


def chain(c: int, rng) -> dict:
    """Joint-heavy: a chain of c binary chance variables, 16 pure profiles."""
    variables, cpds = [], {}
    _chance_chain(variables, cpds, "C", c, rng)
    last = f"C{c - 1}"
    variables.append(_var("D1", "decision", ("u", "v"), ["C0"], 1))
    variables.append(_var("D2", "decision", ("u", "v"), [last], 2))
    domains = {last: ("a", "b"), "D1": ("u", "v"), "D2": ("u", "v")}
    for agent in (1, 2):
        var, rows = _utility(f"U{agent}", agent, [last, "D1", "D2"], domains, rng,
                             range(-3, 4))
        variables.append(var)
        cpds[var["name"]] = rows
    return _finish(variables, cpds)


# Per-type payoff patterns of the signalling games: (agent 1, agent 2) at
# type h, then at type l.  Strict ranks fix each game's equilibrium
# structure, so support enumeration does the same work for every seed.
SIGNALLING = (
    (("coord", "coord"), ("dom_c", "dom_d")),
    (("dom_d", "coord"), ("coord", "anti")),
)


def signalling(rng, patterns) -> dict:
    """Binary two-agent game where both agents observe a binary type.

    Two decision contexts per agent, so support enumeration tries 3**4
    patterns.  (With the second agent observing the first agent's action
    instead, many seeds need coupled family parameters, which the solver
    rejects as unsupported.)
    """
    variables = [
        _var("T", "chance", ("h", "l")),
        _var("D1", "decision", ("g", "n"), ["T"], 1),
        _var("D2", "decision", ("j", "k"), ["T"], 2),
    ]
    cpds = {"T": {"": _row(rng)}}
    act1, act2 = {"c": "g", "d": "n"}, {"c": "j", "d": "k"}
    for agent in (1, 2):
        rows = {}
        for t, pair in zip(("h", "l"), patterns):
            values = _pattern_values(pair[agent - 1], agent == 1, rng)
            for (a1, a2), v in values.items():
                rows[f"{t},{act1[a1]},{act2[a2]}"] = v
        variables.append(_var(f"U{agent}", "utility", list(range(1, 7)),
                              ["T", "D1", "D2"], agent))
        cpds[f"U{agent}"] = rows
    return _finish(variables, cpds)


def leader_follower(c: int, rng) -> dict:
    """Leader with one binary context-free decision; follower with three
    actions observing the end of a chance chain of length c."""
    variables = [_var("D1", "decision", ("T", "B"), (), 1)]
    cpds = {}
    _chance_chain(variables, cpds, "C", c, rng)
    last = f"C{c - 1}"
    variables.append(_var("D2", "decision", ("L", "M", "R"), [last], 2))
    domains = {"D1": ("T", "B"), "D2": ("L", "M", "R"), last: ("a", "b")}
    for agent in (1, 2):
        var, rows = _utility(f"U{agent}", agent, ["D1", "D2", last], domains, rng,
                             range(0, 7))
        variables.append(var)
        cpds[var["name"]] = rows
    return _finish(variables, cpds)


# -- graph_scale families ----------------------------------------------------------


def _skeleton_path_count(n, parents):
    """Simple paths from every node of the undirected skeleton (cost proxy)."""
    adj = {i: set() for i in range(n)}
    for j, ps in enumerate(parents):
        for i in ps:
            adj[i].add(j)
            adj[j].add(i)
    total = 0
    for s in range(n):
        stack = [(s, 1 << s, iter(adj[s]))]
        while stack:
            node, seen, it = stack[-1]
            for m in it:
                if not seen >> m & 1:
                    total += 1
                    stack.append((m, seen | 1 << m, iter(adj[m])))
                    break
            else:
                stack.pop()
    return total


def _random_shape(n, p, rng):
    """Kinds and parent lists of a random DAG, in a topological order.

    Two agents own two decisions and one utility each; utilities are the
    last nodes and have no children; every utility gets a parent.
    """
    inner = [("decision", 1)] * 2 + [("decision", 2)] * 2
    inner += [("chance", None)] * (n - 2 - len(inner) - 1)
    rng.shuffle(inner)
    kinds = [("chance", None)] + inner + [("utility", 1), ("utility", 2)]
    parents = []
    for j, (kind, _) in enumerate(kinds):
        ps = [i for i in range(j) if kinds[i][0] != "utility" and rng.random() < p]
        if kind == "utility" and not ps:
            ps = [rng.randrange(j - (1 if kinds[j - 1][0] == "utility" else 0))]
        parents.append(ps)
    return kinds, parents


def _chain_shape(m):
    """A line of m object variables holding both decisions, then utilities."""
    kinds = [("chance", None)] * m
    kinds[m // 3] = ("decision", 1)
    kinds[(2 * m) // 3] = ("decision", 2)
    parents = [[i - 1] if i else [] for i in range(m)]
    kinds += [("utility", 1), ("utility", 2)]
    parents += [[m - 1], [m - 2]]
    return kinds, parents


def graph_shapes():
    """The fixed pool of shapes: six random DAGs and two long chains."""
    rng = random.Random(SHAPE_SEED)
    shapes = []
    for n in (12, 13, 14):
        got = 0
        while got < 2:
            kinds, parents = _random_shape(n, 0.3, rng)
            if _skeleton_path_count(len(kinds), parents) <= SHAPE_PATH_CAP:
                shapes.append(("dag", kinds, parents))
                got += 1
    for m in (20, 26):
        shapes.append(("chain",) + _chain_shape(m))
    return shapes


def instantiate_shape(shape, rng, tag: str) -> dict:
    """A game of the given shape with seeded names, order and tables.

    Returns the spec plus ``ident``: shape index -> variable name, so that
    operations chosen on the shape land on the same structural place for
    every seed.
    """
    _, kinds, parents = shape
    n = len(kinds)
    prefix = {"chance": "C", "decision": "D", "utility": "U"}
    numbers = list(range(n))
    rng.shuffle(numbers)
    names = [f"{prefix[k]}{tag}{numbers[i]}" for i, (k, _) in enumerate(kinds)]
    # a random topological order: repeatedly pick a random ready node
    children = {i: [] for i in range(n)}
    indeg = [len(ps) for ps in parents]
    for j, ps in enumerate(parents):
        for i in ps:
            children[i].append(j)
    ready = [i for i in range(n) if indeg[i] == 0]
    order = []
    while ready:
        i = ready.pop(rng.randrange(len(ready)))
        order.append(i)
        for j in children[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    domains = {}
    for i, (kind, _) in enumerate(kinds):
        domains[names[i]] = (0, 1, 2, 3) if kind == "utility" else ("a", "b")
    variables, cpds = [], {}
    for i in order:
        kind, agent = kinds[i]
        name = names[i]
        ps = [names[q] for q in parents[i]]
        if kind == "utility":
            var, rows = _utility(name, agent, ps, domains, rng, (0, 1, 2, 3))
            variables.append(var)
            cpds[name] = rows
            continue
        variables.append(_var(name, kind, ("a", "b"), ps, agent))
        if kind == "chance":
            cpds[name] = {key: _row(rng) for key in
                          _ctx_keys([domains[q] for q in ps])}
    spec = _finish(variables, cpds)
    spec_ident = {i: names[i] for i in range(n)}
    return spec, spec_ident


def graph_fix_target(shape) -> int:
    """Shape index of the chance variable an object-level fix cuts loose:
    the one with the most parents, first on ties."""
    _, kinds, parents = shape
    best = None
    for i, (kind, _) in enumerate(kinds):
        if kind == "chance" and parents[i]:
            if best is None or len(parents[i]) > len(parents[best]):
                best = i
    return best


# -- query_staged ------------------------------------------------------------------

# Payoff patterns over (D1, D2) in {c, d}^2, as ranks; values are seeded but
# keep the ranks, so each pattern's equilibrium structure is fixed.
PATTERNS = {
    "coord": {("c", "c"): 3, ("d", "d"): 2, ("c", "d"): 0, ("d", "c"): 0},
    "dom_d": {("c", "c"): 1, ("d", "d"): 2, ("c", "d"): 0, ("d", "c"): 3},
    "dom_c": {("c", "c"): 3, ("d", "d"): 0, ("c", "d"): 2, ("d", "c"): 1},
    "anti": {("c", "d"): 3, ("d", "c"): 2, ("d", "d"): 1, ("c", "c"): 0},
}


# Pattern values lie in 1..6 and context shifts in -2..2.
QUERY_UTILITIES = list(range(-1, 9))


def _pattern_values(pattern, own_first, rng):
    """Seeded strictly increasing values in 1..6 for the pattern's ranks."""
    steps = sorted(rng.sample(range(1, 7), 4))
    out = {}
    for (a1, a2), rank in PATTERNS[pattern].items():
        key = (a1, a2) if own_first else (a2, a1)
        out[key] = steps[rank]
    return out


def _util_rows(agent, pattern, ctx_domains, rng):
    """Pattern values plus a seeded shift per context of the other parents."""
    base = _pattern_values(pattern, agent == 1, rng)
    rows = {}
    for ctx in itertools.product(*ctx_domains):
        shift = rng.randrange(-2, 3)
        for d1 in ("c", "d"):
            for d2 in ("c", "d"):
                rows[",".join(ctx + (d1, d2))] = base[(d1, d2)] + shift
    return rows


# Length of the chance chain feeding agent 2's utility in query games; it
# sets the joint size (2 ** (QUERY_CHAIN + 2) rows per pure profile).
QUERY_CHAIN = 6


def query_base(rng, pattern1: str, pattern2: str) -> dict:
    """The small two-agent game every generated scenario starts from."""
    variables = [
        _var("X", "chance", ("x0", "x1")),
        _var("W", "chance", ("w0", "w1")),
    ]
    cpds = {"X": {"": _row(rng)}, "W": {"": _row(rng)}}
    _chance_chain(variables, cpds, "N", QUERY_CHAIN, rng)
    last = f"N{QUERY_CHAIN - 1}"
    variables += [
        _var("D1", "decision", ("c", "d"), ["X"], 1),
        _var("D2", "decision", ("c", "d"), (), 2),
        _var("U1", "utility", QUERY_UTILITIES, ["X", "D1", "D2"], 1),
        _var("U2", "utility", QUERY_UTILITIES, ["W", last, "D1", "D2"], 2),
    ]
    cpds["U1"] = _util_rows(1, pattern1, [("x0", "x1")], rng)
    cpds["U2"] = _util_rows(2, pattern2, [("w0", "w1"), ("a", "b")], rng)
    return _finish(variables, cpds)


def _intervention(kind, label, rng, base):
    """One scenario entry of the named kind, with seeded values."""
    if kind == "theta_x":
        return {"label": label, "kind": "fix_mechanism", "target": "THETA_X",
                "rows": {"": _row(rng)}}
    if kind == "fix_x":
        return {"label": label, "kind": "fix_object", "target": "X",
                "value": rng.choice(["x0", "x1"])}
    if kind == "reward1":
        rows = _util_rows(1, rng.choice(["dom_d", "dom_c"]), [("x0", "x1")], rng)
        return {"label": label, "kind": "fix_mechanism", "target": "THETA_U1",
                "rows": rows}
    if kind == "commit2":
        return {"label": label, "kind": "fix_mechanism", "target": "PI_D2",
                "value": rng.choice(["c", "d"])}
    if kind == "add_z":
        return {"label": label, "kind": "add_var", "name": "Z", "var_kind": "chance",
                "domain": ["z0", "z1"], "parents": ["X"], "children": ["U2"],
                "rows": {"x0": _row(rng), "x1": _row(rng)}}
    if kind == "remove_w":
        return {"label": label, "kind": "remove_var", "name": "W"}
    if kind == "del_wu2":
        return {"label": label, "kind": "del_edge", "from": "W", "to": "U2"}
    if kind == "edge_xu2":
        return {"label": label, "kind": "add_edge", "from": "X", "to": "U2"}
    raise ValueError(kind)


# Each template: intervention kinds (labels A, B, ...), the visibility of each
# agent by label letter, the query mode and formula key, and options.
# "unfix" entries undo the label they name.
TEMPLATES = (
    {"kinds": ["theta_x", "commit2", "reward1"], "vis": {1: "AB", 2: "A"},
     "patterns": ("coord", "coord"), "query": "forall_or"},
    {"kinds": ["fix_x", "add_z", "commit2", ("unfix", "C")], "vis": {1: "AB", 2: "ACD"},
     "patterns": ("coord", "coord"), "query": "exists_and"},
    {"kinds": ["theta_x", "remove_w", "reward1"], "vis": {},
     "patterns": ("coord", "dom_c"), "query": "sampled_total"},
    {"kinds": ["edge_xu2", "theta_x", "commit2"], "vis": {1: "AB", 2: "AB"},
     "patterns": ("coord", "coord"), "query": "forall_bare"},
    {"kinds": ["del_wu2", "fix_x", "reward1", "commit2", ("unfix", "D"), "theta_x"],
     "vis": {1: "ABC", 2: "ADE"}, "patterns": ("coord", "coord"),
     "query": "sampled_total", "mix_ties": True},
    {"kinds": ["add_z", "theta_x", "commit2"], "vis": {2: "AC"},
     "patterns": ("coord", "coord"), "query": "forall_prob"},
    {"kinds": ["fix_x", "theta_x", "reward1", "commit2"], "vis": {1: "ABC", 2: "AB"},
     "patterns": ("coord", "coord"), "query": "exists_prob"},
    {"kinds": ["theta_x", "edge_xu2", "commit2", ("unfix", "C")],
     "vis": {1: "AB", 2: "ACD"}, "patterns": ("coord", "dom_d"),
     "query": "forall_or", "merge_common": False},
)


def query_formula(key: str):
    """(text, tree) of a query.  The tree is what the oracle evaluates."""
    if key == "forall_or":
        return ("forall ne: P(D2=c) >= 0.5 or E[1] > 4",
                ("forall", ("or", ("cmp", ">=", ("P", (("D2", "c"),)), ("num", 0.5)),
                            ("cmp", ">", ("E", 1), ("num", 4.0)))))
    if key == "exists_and":
        return ("exists ne: P(D1=c) > 0.25 and not E[2] < 2",
                ("exists", ("and", ("cmp", ">", ("P", (("D1", "c"),)), ("num", 0.25)),
                             ("not", ("cmp", "<", ("E", 2), ("num", 2.0))))))
    if key == "sampled_total":
        return ("sampled: E[total]", ("sampled", ("E", "total")))
    if key == "forall_bare":
        return ("forall ne: E[1] - 2 * E[2]",
                ("forall", ("bin", "-", ("E", 1), ("bin", "*", ("num", 2.0), ("E", 2)))))
    if key == "forall_prob":
        return ("forall ne: P(D1=c, D2=c) + P(D1=d, D2=d) >= 0.5",
                ("forall", ("cmp", ">=", ("bin", "+", ("P", (("D1", "c"), ("D2", "c"))),
                                          ("P", (("D1", "d"), ("D2", "d")))),
                            ("num", 0.5))))
    if key == "exists_prob":
        return ("exists ne: P(X=x0, D1=c) = 0",
                ("exists", ("cmp", "=", ("P", (("X", "x0"), ("D1", "c"))), ("num", 0.0))))
    raise ValueError(key)


def scenario(template, rng, game_ref: str):
    """A generated scenario: (base spec, scenario dict, metadata)."""
    base = query_base(rng, *template["patterns"])
    letters = "ABCDEFGH"
    entries = []
    touched = set()
    for i, kind in enumerate(template["kinds"]):
        label = letters[i]
        if isinstance(kind, tuple):
            entries.append({"label": label, "kind": "unfix", "of": kind[1]})
            continue
        entry = _intervention(kind, label, rng, base)
        entries.append(entry)
        if kind == "commit2":
            touched.add("D2")
    labels = [e["label"] for e in entries]
    visibility = {a: [l for l in labels if l in seen]
                  for a, seen in template["vis"].items()}
    text_q, tree = query_formula(template["query"])
    options = {"seed": rng.randrange(1000)}
    if template.get("mix_ties"):
        options["mix_ties"] = True
    if template.get("merge_common") is False:
        options["merge_common"] = False
        options["agent_order"] = [1, 2]
    doc = {"game": game_ref, "interventions": entries, "visibility": visibility,
           "query": text_q, "options": options}
    return base, doc, {"tree": tree, "touched": sorted(touched), "labels": labels}


# -- bundled fixtures ---------------------------------------------------------------

# Expected verdicts stated in the README, and the query trees of the
# bundled scenarios.
BUNDLED_SCENARIOS = {
    "commitment_revealed": (3.0, ("sampled", ("E", 1))),
    "commitment_private": (2.0, ("sampled", ("E", 1))),
    "reward_hidden": (-4.5, ("sampled", ("E", "total"))),
    "reward_reversed": (-4.5, ("sampled", ("E", "total"))),
    "effortville_policy": (True, ("forall", ("cmp", "=", ("P", (("D2", "j"),)), ("num", 1.0)))),
}


def read_fixture(root: str, name: str) -> str:
    with open(os.path.join(root, "src", "causalgames", "fixtures", name),
              encoding="utf-8") as fh:
        return fh.read()
