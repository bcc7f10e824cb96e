"""The four workloads: their inputs, operations and output checks.

``build(name, seed, root, run_dir)`` returns a ``Plan``: the payload for
the workload process (texts, operations, warm-ups), one checker per
operation, the nominal normalised seconds of one pass, and the cold CLI
commands the workload times.  Checkers return a list of problems; they
compare the program's output with ``oracle`` computations on the
generator's own specs, never with stored output.
"""

from __future__ import annotations

import json
import os
import random

import yaml

import gen
import oracle

# Normalised seconds of one pass on the reference machine; a run makes
# round(seconds / PASS_S) passes (at least one), so its work is fixed.
PASS_S = {"solve_scale": 2.8, "graph_scale": 4.3, "query_staged": 0.8, "cli_cold": 13.4}
FIXTURE_GAMES = ("job_market", "effortville", "prisoners_dilemma", "stackelberg")
FAIL = "FAIL: "   # prefix of a CLI check result that counts as a failed operation


class Plan:
    def __init__(self, name):
        self.name = name
        self.games = {}
        self.scenarios = {}
        self.ops = []
        self.checks = []
        self.warmup = []
        self.cli = []          # (argv, checker) of the cold CLI processes

    def op(self, op, check):
        self.ops.append(op)
        self.checks.append(check)

    def payload(self, mode, passes, trace):
        return {"mode": mode, "passes": passes, "trace": trace, "games": self.games,
                "scenarios": self.scenarios, "ops": self.ops, "warmup": self.warmup}


def _fixture(root, name):
    txt = gen.read_fixture(root, f"{name}.game.yaml")
    return txt, oracle.Spec.from_file(yaml.safe_load(txt))


def _tables(spec, record):
    """Worker profile record -> {decision: {ctx tuple: row}}."""
    out = {}
    for d, rows in record.items():
        keyed = {",".join(str(v) for v in c): c for c in spec.contexts(d)}
        out[d] = {keyed[k]: tuple(r) for k, r in rows.items()}
    return out


def _leaf_rules(rules):
    return {d: {tuple(c): tuple(r) for c, r in rows} for d, rows in rules.items()}


# -- solve_scale ---------------------------------------------------------------------


def _same_equilibria(spec, records, want):
    """Program profile records equal the oracle's equilibria, in order."""
    got = [_tables(spec, p) for p in records]
    return len(got) == len(want) and all(
        set(g) == set(w) and all(oracle.tables_equal(g[d], w[d]) for d in w)
        for g, w in zip(got, want))


def _has_job_market_point(records):
    """The README's mixed equilibrium: P(g | h) = 1/2, P(j | ng) = 4/5."""
    return any(abs(p["D1"]["h"][0] - 0.5) <= 1e-9 and abs(p["D2"]["ng"][0] - 0.8) <= 1e-9
               for p in records)


EFFORTVILLE_FAMILIES = [(0.0, 0.8), (0.0, 1.0)]


def check_pure(spec):
    expected = []

    def check(out, _):
        if not expected:
            expected.append(oracle.pure_equilibria(spec))
        if not _same_equilibria(spec, out, expected[0]):
            return [f"pure_nash found {len(out)} equilibria that differ from the oracle's "
                    f"{len(expected[0])}"]
        return []
    return check


def check_behavioral(spec, analytic=None):
    def check(out, _):
        problems = []
        profiles = [p for p in out["points"]]
        profiles += [c for fam in out["families"] for c in fam["corners"]]
        if not profiles:
            problems.append("support enumeration returned nothing")
        for p in profiles:
            gain = oracle.deviation_gain(spec, _tables(spec, p))
            if gain > 1e-6:
                problems.append(f"behavioral profile admits a deviation gaining {gain}")
        if analytic == "job_market" and not _has_job_market_point(out["points"]):
            problems.append("job_market lacks the point P(g|h)=1/2, P(j|ng)=4/5")
        if analytic == "effortville":
            got = sorted((round(f["params"][0][1], 9), round(f["params"][0][2], 9))
                         for f in out["families"] if len(f["params"]) == 1)
            if got != EFFORTVILLE_FAMILIES or len(out["families"]) != 2:
                problems.append(f"effortville families {got}, want q in [0,1] and [0,4/5]")
        return problems
    return check


def check_commit(spec, leader, analytic=None):
    expected = []

    def check(out, _):
        if not expected:
            expected.append((oracle.commitment(spec, leader),
                             oracle.commitment_lines(spec, leader)))
        value, lines = expected[0]
        problems = []
        if abs(out["value"] - value) > 1e-9:
            problems.append(f"commitment value {out['value']}, oracle {value}")
        if abs(oracle.commitment_value_at(lines, out["row"][0]) - out["value"]) > 1e-9:
            problems.append("the committed rule does not earn the reported value")
        if analytic and (abs(out["row"][0] - 2 / 3) > 1e-9 or abs(out["value"] - 11 / 3) > 1e-9):
            problems.append(f"stackelberg commitment {out}, want 2/3 on T worth 11/3")
        return problems
    return check


def solve_scale(plan, rng, root):
    families = []
    families.append(("pure", "multi_23", gen.multi(2, 3, rng)))
    families.append(("pure", "chain_12", gen.chain(12, rng)))
    for i, patterns in enumerate(gen.SIGNALLING):
        families.append(("behavioral", f"signal_{i}", gen.signalling(rng, patterns)))
    for i in range(2):
        families.append(("commit", f"leader_{i}", gen.leader_follower(9, rng)))
    for kind, gid, spec in families:
        plan.games[gid] = gen.text(spec)
        s = oracle.Spec.from_file(spec)
        check = {"pure": lambda: check_pure(s), "behavioral": lambda: check_behavioral(s),
                 "commit": lambda: check_commit(s, 1)}[kind]()
        op = {"kind": kind, "game": gid}
        if kind == "commit":
            op["leader"] = 1
        plan.op(op, check)
    for name, kind in (("job_market", "behavioral"), ("effortville", "behavioral"),
                       ("stackelberg", "commit")):
        txt, s = _fixture(root, name)
        plan.games[name] = txt
        if kind == "behavioral":
            plan.op({"kind": kind, "game": name}, check_behavioral(s, name))
        else:
            plan.op({"kind": kind, "game": name, "leader": 1}, check_commit(s, 1, True))
    # warm-ups: one small input per kind
    for gid, spec, kind in (("warm_multi", gen.multi(1, 1, rng), "pure"),
                            ("warm_chain", gen.chain(3, rng), "pure")):
        plan.games[gid] = gen.text(spec)
        plan.warmup.append({"kind": kind, "game": gid})
    plan.warmup.append({"kind": "behavioral", "game": "effortville"})
    plan.warmup.append({"kind": "commit", "game": "stackelberg", "leader": 1})


# -- graph_scale ---------------------------------------------------------------------


def graph_scale(plan, rng, root):
    shapes = gen.graph_shapes()
    for si, shape in enumerate(shapes):
        spec, ident = gen.instantiate_shape(shape, rng, chr(ord("a") + si))
        gid = f"shape_{si}"
        plan.games[gid] = gen.text(spec)
        s = oracle.Spec.from_file(spec)
        add_graph_ops(plan, gid, s, shape, ident)
    txt, s = _fixture(root, "job_market")
    plan.games["job_market"] = txt
    fix = {"target": "T", "value": "h"}
    for kind in ("mech_graph", "dot"):
        plan.warmup.append({"kind": kind, "game": "job_market"})
    plan.warmup.append({"kind": "paths", "game": "job_market", "mech": "PI_D1", "target": "PI_D2"})
    plan.warmup.append({"kind": "min_set", "game": "job_market", "mech": "PI_D1", "target": "PI_D2"})
    for kind in ("side_effects", "predicted", "invariant"):
        plan.warmup.append({"kind": kind, "game": "job_market", "fix": fix})


def add_graph_ops(plan, gid, s, shape, ident):
    target = ident[gen.graph_fix_target(shape)]
    inter = oracle.relevance(s)
    after = oracle.relevance(oracle.drop_parents(s, target, s.parents[target]))
    graph = oracle.mechanised_graph(s)
    fix = {"target": target, "value": "a"}
    plan.op({"kind": "mech_graph", "game": gid},
            lambda out, _: [] if {tuple(e) for e in out} == inter
            else [f"{gid}: inter-mechanism edges differ from the d-separation oracle"])
    plan.op({"kind": "dot", "game": gid},
            lambda out, _: [] if oracle.dot_edges(out) == oracle.expected_dot_edges(s, inter)
            else [f"{gid}: DOT edges differ from the oracle's graph"])
    # edges in shape order, so every seed solves the same structural
    # instances; min-sets on the first three
    rank = {name: i for i, name in ident.items()}
    ordered = sorted(inter, key=lambda edge: tuple(rank[e.split("_", 1)[1]] for e in edge))
    for mech, tgt in ordered:
        key = ("paths", gid, mech, tgt)

        def check_paths(out, seen, mech=mech, tgt=tgt, key=key):
            seen[key] = out
            if not out:
                return [f"{gid}: no reachability path for edge {mech} -> {tgt}"]
            return oracle.path_problems(s, graph, mech, tgt, out)
        plan.op({"kind": "paths", "game": gid, "mech": mech, "target": tgt}, check_paths)
    for mech, tgt in ordered[:3]:
        key = ("paths", gid, mech, tgt)
        plan.op({"kind": "min_set", "game": gid, "mech": mech, "target": tgt},
                lambda out, seen, key=key: oracle.min_set_problems(s, seen[key], out))
    removed, added = inter - after, after - inter
    plan.op({"kind": "side_effects", "game": gid, "fix": fix},
            lambda out, _: [] if ({tuple(e) for e in out["removed"]} == removed
                                  and {tuple(e) for e in out["added"]} == added)
            else [f"{gid}: side effects differ from the oracle's edge difference"])
    plan.op({"kind": "predicted", "game": gid, "fix": fix},
            lambda out, _: [] if {tuple(e) for e in out} <= removed
            else [f"{gid}: predicted removals are not all actual removals"])
    plan.op({"kind": "invariant", "game": gid, "fix": fix},
            lambda out, _: [] if out == (inter == after)
            else [f"{gid}: incentive invariance {out}, oracle says otherwise"])


# -- query_staged --------------------------------------------------------------------


def check_query(tree, variant, base=None, meta=None, expected=None, seed=0, mix=False):
    cache = {}

    def check(out, _):
        problems = []
        final = oracle.Spec.from_record(out["final"])
        for leaf in out["leaves"]:
            value = oracle.leaf_value(tree, final, _leaf_rules(leaf["rules"]))
            if not oracle.same_value(value, leaf["value"]):
                problems.append(f"leaf value {leaf['value']}, oracle {value}")
                break
        if expected is not None and not oracle.same_value(out["verdict"], expected):
            problems.append(f"verdict {out['verdict']}, expected {expected}")
        if variant == "all":
            if "all" not in cache:
                cache["all"] = oracle.solved_once(tree, final, seed, mix)
            if not oracle.same_value(out["verdict"], cache["all"]):
                problems.append(f"all-visible verdict {out['verdict']}, solved once "
                                f"{cache['all']}")
        if variant == "none":
            if "ne" not in cache:
                cache["ne"] = oracle.pure_equilibria(base)
            ne = cache["ne"]
            untouched = [d for d in base.decisions() if d not in meta["touched"]]
            for leaf in out["leaves"]:
                rules = _leaf_rules(leaf["rules"])
                if mix:
                    ok = all(oracle.tables_equal(rules[d], oracle.mixture([o[d] for o in ne]))
                             for d in untouched)
                else:
                    ok = any(all(oracle.tables_equal(rules[d], o[d]) for d in untouched)
                             for o in ne)
                if not ok:
                    problems.append("unseen interventions changed untouched decisions' "
                                    "equilibrium rules")
                    break
            if tree[0] != "sampled" and not mix and len(out["leaves"]) != len(ne):
                problems.append(f"{len(out['leaves'])} leaves for {len(ne)} equilibria")
        return problems
    return check


def query_staged(plan, rng, root):
    for ti, template in enumerate(gen.TEMPLATES):
        gid = f"qgame_{ti}"
        base, doc, meta = gen.scenario(template, rng, gid)
        plan.games[gid] = gen.text(base)
        sid = f"scenario_{ti}"
        plan.scenarios[sid] = {"text": yaml.safe_dump(doc, sort_keys=False)}
        s = oracle.Spec.from_file(base)
        mix = bool(doc["options"].get("mix_ties"))
        seed = doc["options"]["seed"]
        # An unseen unfix erases the resolved rule of its decision (see
        # CHANGES.md), so templates with an unfix skip the no-one-sees variant.
        unfix = any(e["kind"] == "unfix" for e in doc["interventions"])
        for variant in ("declared", "all") if unfix else ("declared", "all", "none"):
            plan.op({"kind": "query", "scenario": sid, "visibility": variant},
                    check_query(meta["tree"], variant, s, meta, seed=seed, mix=mix))
    for name in FIXTURE_GAMES:
        plan.games[f"{name}.game.yaml"] = gen.read_fixture(root, f"{name}.game.yaml")
    for name, (value, tree) in gen.BUNDLED_SCENARIOS.items():
        plan.scenarios[name] = {"text": gen.read_fixture(root, f"{name}.scenario.yaml")}
        plan.op({"kind": "query", "scenario": name, "visibility": "declared"},
                check_query(tree, "declared", expected=value))
    # the warm-up query runs on its own copy of a bundled scenario
    plan.scenarios["warm"] = {"text": gen.read_fixture(root, "reward_reversed.scenario.yaml")}
    plan.warmup.append({"kind": "query", "scenario": "warm", "visibility": "declared"})


# -- cold CLI processes ---------------------------------------------------------------


def _cli_ok(code_want):
    """Generic checks on one CLI process; returns (problems, payload)."""
    def wrap(extra):
        def check(code, stdout, stderr):
            if code != code_want:
                return [f"{FAIL}exit code {code}, expected {code_want}: {stderr.strip()[-300:]}"]
            if "Traceback" in stderr:
                return ["traceback on stderr"]
            if code_want != 0:
                lines = stderr.strip().splitlines()
                if len(lines) != 1 or not lines[0].startswith("error: ") or stdout.strip():
                    return [f"domain error output {stderr!r}"]
                return []
            try:
                payload = json.loads(stdout)
            except ValueError:
                return ["stdout is not one JSON report"]
            if payload.get("schema") != "causalgames/1":
                return [f"schema {payload.get('schema')!r}"]
            return extra(payload) if extra else []
        return check
    return wrap


def cli_solve(spec, behavioral=None):
    def extra(p):
        problems = []
        want = oracle.pure_equilibria(spec)
        if not _same_equilibria(spec, [o["rules"] for o in p["outcomes"]], want):
            problems.append("solve outcomes differ from the oracle's equilibria")
        for o, w in zip(p["outcomes"], want):
            eu = oracle.utilities(spec, w)[1:]
            if any(abs(a - b) > 1e-9 for a, b in zip(o["payoffs"], eu)):
                problems.append(f"payoffs {o['payoffs']}, oracle {eu}")
        if behavioral == "job_market":
            if not _has_job_market_point([b["rules"] for b in p["behavioral_points"]]):
                problems.append("job_market lacks the point P(g|h)=1/2, P(j|ng)=4/5")
            for b in p["behavioral_points"]:
                if oracle.deviation_gain(spec, _tables(spec, b["rules"])) > 1e-6:
                    problems.append("a behavioral point admits a profitable deviation")
        if behavioral == "effortville":
            got = sorted((f["params"][0]["low"], f["params"][0]["high"]) for f in p["families"])
            if got != EFFORTVILLE_FAMILIES:
                problems.append(f"effortville families {got}")
        if behavioral == "prisoners_dilemma":
            if [o["payoffs"] for o in p["outcomes"]] != [[-2.0, -2.0]] or \
                    p["outcomes"][0]["rules"] != {"D1": {"": [0.0, 1.0]}, "D2": {"": [0.0, 1.0]}}:
                problems.append("prisoners' dilemma outcome is not (D,D) with (-2,-2)")
        return problems
    return extra


def cli_mech(spec):
    def extra(p):
        inter = oracle.relevance(spec)
        if {tuple(e) for e in p["inter_mechanism_edges"]} != inter:
            return ["mech-graph edges differ from the d-separation oracle"]
        if oracle.dot_edges(p["dot"]) != oracle.expected_dot_edges(spec, inter):
            return ["mech-graph DOT edges differ from the oracle's graph"]
        return []
    return extra


def cli_min_set(spec, mech, target):
    def extra(p):
        chosen = set(p["minimum_intervention_set"])
        paths = oracle.reachability(spec, mech, target)
        if not all(chosen & s for s in oracle.hit_sets(spec, paths)):
            return ["min-set misses a reachability path"]
        if len(chosen) != oracle.min_set_size(spec, mech, target):
            return ["min-set is not minimum"]
        return []
    return extra


def cli_commit(spec, analytic=False):
    def extra(p):
        value = oracle.commitment(spec, 1)
        if abs(p["leader_payoff"] - value) > 1e-9:
            return [f"commit payoff {p['leader_payoff']}, oracle {value}"]
        if analytic and abs(p["rule"][""][0] - 2 / 3) > 1e-9:
            return ["stackelberg commitment is not 2/3 on T"]
        return []
    return extra


def cli_query(expected):
    def extra(p):
        if not oracle.same_value(p["verdict"], expected):
            return [f"query verdict {p['verdict']}, expected {expected}"]
        return []
    return extra


def cli_edge_diff(before, after, key):
    def extra(p):
        b, a = oracle.relevance(before), oracle.relevance(after)
        if key == "invariant":
            return [] if p["incentive_invariant"] == (a == b) else ["invariance differs"]
        if ({tuple(e) for e in p["removed"]} != b - a or {tuple(e) for e in p["added"]} != a - b):
            return ["side effects differ from the oracle's edge difference"]
        return []
    return extra


def cli_intervene(spec):
    def extra(p):
        game = p["game"]
        if game["cpds"]["T"][""] != [1.0, 0.0]:
            return ["intervened T is not pinned to h"]
        if [v["name"] for v in game["variables"]] != spec.names:
            return ["intervened game lost variables"]
        return []
    return extra


def cli_commands(run_dir, root, rng, which):
    """(argv, checker) of the cold processes; writes generated files."""
    fx = {name: _fixture(root, name)[1] for name in FIXTURE_GAMES}

    def write(name, content):
        path = os.path.join(run_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        return path

    small = gen.multi(2, 2, rng)
    small_path = write("small.game.yaml", gen.text(small))
    shape = gen.graph_shapes()[0]
    dag, ident = gen.instantiate_shape(shape, rng, "z")
    dag_path = write("dag.game.yaml", gen.text(dag))
    dag_s = oracle.Spec.from_file(dag)
    leader = gen.leader_follower(4, rng)
    leader_path = write("leader.game.yaml", gen.text(leader))
    bad = gen.multi(1, 1, rng)
    bad["cpds"]["X"][""] = [0.5, 0.4]
    bad_path = write("bad.game.yaml", gen.text(bad))
    # a structural scenario on the DAG: drop one parent of the fixed target
    target = ident[gen.graph_fix_target(shape)]
    src = dag_s.parents[target][0]
    scen_path = write("dag.scenario.yaml", yaml.safe_dump({
        "game": "dag.game.yaml",
        "interventions": [{"label": "cut", "kind": "del_edge", "from": src, "to": target}],
        "visibility": {1: ["cut"]}, "query": "sampled: E[1]"}, sort_keys=False))
    cut = oracle.drop_parents(dag_s, target, [src])
    inter = sorted(oracle.relevance(dag_s))
    mech, tgt = inter[0]
    ok, err = _cli_ok(0), _cli_ok(1)
    table = {
        "validate_gen": (["validate", small_path],
                         ok(lambda p: [] if p["valid"] is True and not p["violations"]
                            else ["generated game reported invalid"])),
        "validate_bad": (["validate", bad_path], err(None)),
        "solve_pd": (["solve", "prisoners_dilemma"],
                     ok(cli_solve(fx["prisoners_dilemma"], "prisoners_dilemma"))),
        "solve_jm": (["solve", "job_market", "--behavioral"],
                     ok(cli_solve(fx["job_market"], "job_market"))),
        "solve_ev": (["solve", "effortville", "--behavioral"],
                     ok(cli_solve(fx["effortville"], "effortville"))),
        "solve_gen": (["solve", small_path], ok(cli_solve(oracle.Spec.from_file(small)))),
        "mech_jm": (["mech-graph", "job_market"], ok(cli_mech(fx["job_market"]))),
        "mech_gen": (["mech-graph", dag_path], ok(cli_mech(dag_s))),
        "min_set_jm": (["min-set", "job_market", "--from", "PI_D1", "--to", "PI_D2"],
                       ok(cli_min_set(fx["job_market"], "PI_D1", "PI_D2"))),
        "min_set_gen": (["min-set", dag_path, "--from", mech, "--to", tgt],
                        ok(cli_min_set(dag_s, mech, tgt))),
        "commit_st": (["commit", "stackelberg", "--leader", "1"],
                      ok(cli_commit(fx["stackelberg"], True))),
        "commit_gen": (["commit", leader_path, "--leader", "1"],
                       ok(cli_commit(oracle.Spec.from_file(leader)))),
        "commit_jm": (["commit", "job_market", "--leader", "1"], err(None)),
        "intervene_ev": (["intervene", "effortville_policy"], ok(cli_intervene(fx["job_market"]))),
        "side_gen": (["side-effects", scen_path], ok(cli_edge_diff(dag_s, cut, "side"))),
        "invariant_gen": (["invariant", scen_path], ok(cli_edge_diff(dag_s, cut, "invariant"))),
        "side_rh": (["side-effects", "reward_hidden"],
                    ok(cli_edge_diff(fx["prisoners_dilemma"], fx["prisoners_dilemma"], "side"))),
    }
    for name, (value, _) in gen.BUNDLED_SCENARIOS.items():
        table[f"query_{name}"] = (["query", name], ok(cli_query(value)))
    files = {"small": small, "dag": dag, "leader": leader}
    return [table[k] for k in which], files


# Cold processes per workload.  An in-process workload repeats one command
# of its own kind, so the median is taken over like processes.
COLD = {
    "solve_scale": ["solve_gen"] * 9,
    "graph_scale": ["mech_gen"] * 9,
    "query_staged": ["query_reward_hidden"] * 9,
    "cli_cold": ["validate_gen", "validate_bad", "solve_pd", "solve_jm", "solve_ev",
                 "solve_gen", "mech_jm", "mech_gen", "min_set_jm", "min_set_gen",
                 "commit_st", "commit_gen", "commit_jm", "intervene_ev", "side_gen",
                 "invariant_gen", "side_rh", "query_commitment_revealed",
                 "query_commitment_private", "query_reward_hidden", "query_reward_reversed",
                 "query_effortville_policy"],
}


def build(name, seed, root, run_dir):
    plan = Plan(name)
    rng = random.Random(f"{name}:{seed}")
    if name == "cli_cold":
        plan.cli, files = cli_commands(run_dir, root, rng, COLD[name])
        # set-up parses every text the commands read and warms each subcommand up
        for key in ("small", "dag", "leader"):
            plan.games[key] = gen.text(files[key])
        for argv, _ in plan.cli:
            if argv[0] not in {w["argv"][0] for w in plan.warmup}:
                plan.warmup.append({"kind": "cli_main", "argv": ["--json"] + argv})
        return plan
    {"solve_scale": solve_scale, "graph_scale": graph_scale,
     "query_staged": query_staged}[name](plan, rng, root)
    plan.cli, _ = cli_commands(run_dir, root, random.Random(f"cli:{name}:{seed}"), COLD[name])
    return plan
