"""Shows that every output check rejects a deliberately corrupted result.

    python3 perfbench/selftest.py [--seed N]

Run from the root of a source checkout.  For each workload it runs every
operation once in this process, confirms the true output passes its check,
then corrupts the output and confirms the check reports a problem naming
the right oracle.  The CLI checks are exercised the same way on captured
output of ``causalgames.cli.main``.  Exits 1 if any check accepts a
corrupted result or rejects a true one.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402


def worst_rule(spec, profile_tables):
    """Replace agent 1's (or 2's) rule with its worst pure rule."""
    for agent in (1, 2):
        own = [d for d in spec.free_decisions() if spec.agent[d] == agent]
        if not own:
            continue
        d = own[0]
        scored = []
        for rule in oracle.pure_rules(spec, d):
            trial = dict(profile_tables)
            trial[d] = rule
            scored.append((oracle.utilities(spec, trial)[agent], rule))
        low, rule = min(scored, key=lambda t: t[0])
        if max(s for s, _ in scored) - low > 1e-6:
            return d, rule
    return None


def corruptions(op, out, plan, spec_of):
    """(description, corrupted output, text the check's complaint must contain)."""
    kind = op["kind"]
    bad = copy.deepcopy(out)
    if kind == "pure":
        if out:
            return [("drop an equilibrium", out[:-1], "equilibria")]
        return [("invent an equilibrium", [{}], "equilibria")]
    if kind == "behavioral":
        spec = spec_of(op["game"])
        cases = [("drop every outcome", {"points": [], "families": []}, "nothing")]
        profile = (out["points"] or [c for f in out["families"] for c in f["corners"]])[0]
        tables = workloads._tables(spec, profile)
        worst = worst_rule(spec, tables)
        if worst:
            d, rule = worst
            key = {c: ",".join(str(v) for v in c) for c in spec.contexts(d)}
            target = bad["points"][0] if bad["points"] else bad["families"][0]["corners"][0]
            target[d] = {key[c]: list(r) for c, r in rule.items()}
            cases.append(("worst rule for one agent", bad, "deviation"))
        return cases
    if kind == "commit":
        bad["value"] += 0.5
        return [("raise the value", bad, "commitment value")]
    if kind == "mech_graph":
        return [("drop an edge", out[1:], "d-separation")] if out else \
            [("invent an edge", [["THETA_x", "PI_y"]], "d-separation")]
    if kind == "dot":
        lines = out.splitlines()
        edge = next(i for i, l in enumerate(lines) if "->" in l)
        return [("drop a DOT edge", "\n".join(lines[:edge] + lines[edge + 1:]), "DOT")]
    if kind == "paths":
        flipped = copy.deepcopy(out)
        p = flipped[0]
        p["arrows"][-1] = "<-" if p["arrows"][-1] == "->" else "->"
        return [("no paths", [], "no reachability"),
                ("flip an arrow", flipped, "missing edge")]
    if kind == "min_set":
        cases = [("drop a node", out[:-1], "misses")]
        return cases
    if kind == "side_effects":
        bad["removed"].append(["THETA_bogus", "PI_bogus"])
        return [("invent a removal", bad, "side effects")]
    if kind == "predicted":
        return [("invent a removal", out + [["THETA_bogus", "PI_bogus"]], "predicted")]
    if kind == "invariant":
        return [("negate", not out, "invariance")]
    if kind == "query":
        cases = []
        leaf = bad["leaves"][0]
        v = leaf["value"]
        leaf["value"] = (not v) if isinstance(v, bool) else v + 1.0
        cases.append(("change a leaf value", bad, "leaf value"))
        if op["visibility"] == "all":
            b2 = copy.deepcopy(out)
            v = b2["verdict"]
            b2["verdict"] = (not v) if isinstance(v, bool) else (0.0 if v is None else v + 1.0)
            cases.append(("change the verdict", b2, "solved once"))
        if op["visibility"] == "declared" and op["scenario"] in workloads.gen.BUNDLED_SCENARIOS:
            b2 = copy.deepcopy(out)
            v = b2["verdict"]
            b2["verdict"] = (not v) if isinstance(v, bool) else v + 1.0
            cases.append(("change the verdict", b2, "expected"))
        if op["visibility"] == "none":
            b2 = copy.deepcopy(out)
            for leaf in b2["leaves"]:
                rows = leaf["rules"]["D1"]
                for entry in rows:
                    entry[1] = [0.3, 0.7]
            cases.append(("replace an untouched decision's rule", b2, "untouched"))
        return cases
    raise ValueError(kind)


def cli_corruptions(code, stdout, stderr):
    cases = [("exit code 2", (2, stdout, stderr), workloads.FAIL)]
    if code == 0:
        payload = json.loads(stdout)
        cases.append(("traceback on stderr", (0, stdout, "Traceback (most recent call last)"),
                      "traceback"))
        wrong = dict(payload, schema="causalgames/0")
        cases.append(("schema", (0, json.dumps(wrong), stderr), "schema"))
        changed = _change_value(payload)
        if changed is not None:
            cases.append(("a reported value", (0, json.dumps(changed), stderr), ""))
    else:
        cases.append(("two error lines", (1, "", stderr + "error: again\n"), "domain error"))
    return cases


def _change_value(p):
    p = copy.deepcopy(p)
    for key in ("verdict", "leader_payoff"):
        if key in p:
            v = p[key]
            p[key] = (not v) if isinstance(v, bool) else v + 1.0
            return p
    if "valid" in p:
        p["valid"] = False
    elif "outcomes" in p and p["outcomes"]:
        p["outcomes"][0]["payoffs"][0] += 1.0
    elif "outcomes" in p:
        p["outcomes"].append({"rules": {}, "payoffs": [0.0, 0.0]})
    elif "inter_mechanism_edges" in p:
        p["inter_mechanism_edges"] = p["inter_mechanism_edges"][1:]
    elif "minimum_intervention_set" in p:
        p["minimum_intervention_set"] = p["minimum_intervention_set"][:-1]
    elif "incentive_invariant" in p:
        p["incentive_invariant"] = not p["incentive_invariant"]
    elif "removed" in p:
        p["removed"].append(["THETA_bogus", "PI_bogus"])
    elif "game" in p:
        p["game"]["cpds"]["T"][""] = [0.0, 1.0]
    else:
        return None
    return p


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import causalgames.cli  # noqa: F401
    from worker import Workload

    cg = sys.modules["causalgames"]
    run_dir = os.path.join(root, ".perfbench_run", f"selftest{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    bad_checks = []
    shown = 0
    try:
        for name in ("solve_scale", "graph_scale", "query_staged", "cli_cold"):
            plan = workloads.build(name, args.seed, root, run_dir)
            specs = {}

            def spec_of(gid, plan=plan, specs=specs):
                if gid not in specs:
                    specs[gid] = oracle.Spec.from_file(
                        workloads.yaml.safe_load(plan.games[gid]))
                return specs[gid]
            if name != "cli_cold":
                work = Workload(cg, plan.payload("run", 1, False))
                seen = {}
                for i, op in enumerate(plan.ops):
                    args_ = work.prepare(op)
                    out = json.loads(json.dumps(work.record(op, args_, work.run(op, args_))))
                    got = plan.checks[i](out, seen)
                    if got:
                        bad_checks.append(f"{name} op {i} rejects a true output: {got}")
                        continue
                    for what, corrupt, needle in corruptions(op, out, plan, spec_of):
                        found = plan.checks[i](corrupt, dict(seen))
                        if not any(needle in p for p in found):
                            bad_checks.append(f"{name} op {i} ({op['kind']}) accepts: {what}"
                                              f" -> {found}")
                        else:
                            shown += 1
                    if op["kind"] == "min_set" and len(out) >= 1:
                        # a hitting set that is not minimum: add one more node
                        paths = seen[("paths", op["game"], op["mech"], op["target"])]
                        extra = sorted(set().union(*oracle.hit_sets(spec_of(op["game"]), paths))
                                       - set(out))
                        if extra:
                            found = plan.checks[i](out + extra[:1], seen)
                            shown += bool(found)
                            if not found:
                                bad_checks.append(f"{name} op {i} accepts a non-minimum set")
            for argv_, check in plan.cli:
                buf_out, buf_err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(buf_out), contextlib.redirect_stderr(buf_err):
                    code = causalgames.cli.main(["--json"] + argv_)
                true = (code, buf_out.getvalue(), buf_err.getvalue())
                if check(*true):
                    bad_checks.append(f"cli {argv_} rejects a true output: {check(*true)}")
                    continue
                for what, corrupt, needle in cli_corruptions(*true):
                    found = check(*corrupt)
                    if not found or needle not in found[0]:
                        bad_checks.append(f"cli {argv_} accepts: {what} -> {found}")
                    else:
                        shown += 1
            print(f"{name}: checked")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass
    for line in bad_checks:
        print("SELFTEST FAILURE:", line)
    print(f"{shown} corrupted results rejected, {len(bad_checks)} check failures")
    return 1 if bad_checks else 0


if __name__ == "__main__":
    sys.exit(main())
