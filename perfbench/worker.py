"""Workload process: imports the program, sets up, runs the timed passes.

Reads a JSON payload on stdin (game and scenario texts, the operation list,
the pass count) and writes one JSON line per timed operation and a summary
line to stdout.  Set-up time runs from just before the program is
imported until the process is ready to time: the import, parsing and
validating every text, and one warm-up operation of each kind.
With ``"mode": "setup"`` the process stops there.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from spans import Tracer  # noqa: E402


def rule_record(rule):
    return {",".join(str(v) for v in ctx): list(row) for ctx, row in rule.table.items()}


def profile_record(profile):
    return {d: rule_record(r) for d, r in profile.rules.items()}


def game_record(game):
    def tables(block):
        return {n: [[list(ctx), list(row)] for ctx, row in cpd.table.items()]
                for n, cpd in block.items()}
    return {
        "agents": game.n_agents,
        "variables": [{"name": v.name, "kind": v.kind, "agent": v.agent,
                       "domain": list(v.domain), "parents": list(game.parents_of(v.name))}
                      for v in game.variables],
        "cpds": tables(game.cpds),
        "rule_fixes": tables(game.rule_fixes),
        "object_fixed": sorted(game.object_fixed),
    }


def edges(pairs):
    return sorted([a, b] for a, b in pairs)


class Workload:
    """Parsed inputs and the operations over them."""

    def __init__(self, cg, payload):
        self.cg = cg
        self.texts = payload["games"]
        self.games = {gid: cg.parse_game(t, f"bench:{gid}") for gid, t in self.texts.items()}
        self.scenarios = {}
        for sid, sc in payload["scenarios"].items():
            self.scenarios[sid] = cg.parse_scenario(
                sc["text"], f"bench:{sid}",
                game_loader=lambda ref: cg.parse_game(self.texts[ref], f"bench:{ref}"))

    # Each op: prepare (untimed, fresh objects) -> run (timed) -> record (untimed).

    def prepare(self, op):
        if op["kind"] == "query":
            return (self._job(op),)
        if op["kind"] == "cli_main":
            return (op["argv"],)
        game = copy.deepcopy(self.games[op["game"]])
        if op["kind"] in ("side_effects", "predicted", "invariant"):
            fix = op["fix"]
            cpd = self.cg.TabularCPD.delta(fix["target"], fix["value"], game.domain(fix["target"]))
            return game, self.cg.FixObject(fix["target"], (), cpd)
        if op["kind"] in ("paths", "min_set"):
            return game, op["mech"], op["target"]
        if op["kind"] == "commit":
            return game, op["leader"]
        return (game,)

    def _job(self, op):
        sc = copy.deepcopy(self.scenarios[op["scenario"]])
        opts = sc.options
        labels = [label for label, _ in sc.interventions]
        visibility = {
            "declared": sc.visibility,
            "all": {a: tuple(labels) for a in range(1, sc.game.n_agents + 1)},
            "none": {},
        }[op["visibility"]]
        return self.cg.QueryJob(
            game=sc.game, interventions=sc.interventions, visibility=visibility,
            query=sc.query, seed=int(opts.get("seed", 0)),
            mix_ties=bool(opts.get("mix_ties", False)),
            include_behavioral=bool(opts.get("include_behavioral", False)),
            agent_order=opts.get("agent_order"),
            merge_common=bool(opts.get("merge_common", True)),
        )

    def run(self, op, args):
        cg = self.cg
        kind = op["kind"]
        if kind == "pure":
            return cg.pure_nash(*args)
        if kind == "behavioral":
            return cg.behavioral_nash_small(*args)
        if kind == "commit":
            return cg.optimal_commitment(*args)
        if kind == "mech_graph":
            return cg.build_mechanised_graph(*args)
        if kind == "paths":
            return cg.reachability_paths(*args)
        if kind == "min_set":
            return cg.minimum_intervention_set(*args)
        if kind == "side_effects":
            return cg.side_effects(*args)
        if kind == "predicted":
            return cg.predicted_edge_removals(*args)
        if kind == "invariant":
            return cg.incentive_invariant(*args)
        if kind == "dot":
            return cg.export_dot(args[0], "mechanised")
        if kind == "query":
            return cg.evaluate_query(*args)
        if kind == "cli_main":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = sys.modules["causalgames.cli"].main(args[0])
            return code, out.getvalue(), err.getvalue()
        raise ValueError(kind)

    def record(self, op, args, result):
        kind = op["kind"]
        if kind == "pure":
            return [profile_record(p) for p in result.outcomes]
        if kind == "behavioral":
            return {
                "points": [profile_record(p) for p in result.outcomes],
                "families": [
                    {"params": [[p.name, p.low, p.high] for p in fam.params],
                     "corners": [profile_record(p) for p in fam.extreme_profiles()]}
                    for fam in result.families],
            }
        if kind == "commit":
            rule, value = result
            return {"row": list(next(iter(rule.table.values()))), "value": value}
        if kind == "mech_graph":
            return edges(result.inter_mechanism_edges)
        if kind == "paths":
            return [{"nodes": list(p.nodes), "arrows": list(p.arrows),
                     "given": sorted(p.conditioning)} for p in result]
        if kind == "min_set":
            return list(result)
        if kind == "side_effects":
            return {"removed": edges(result.removed), "added": edges(result.added)}
        if kind == "predicted":
            return edges(result)
        if kind in ("invariant", "dot", "cli_main"):
            return result
        if kind == "query":
            job = args[0]
            return {
                "verdict": result.verdict,
                "stages": len(result.trace),
                "leaves": [{"value": leaf.value,
                            "rules": {d: [[list(c), list(r)] for c, r in rule.table.items()]
                                      for d, rule in leaf.rules.items()}}
                           for leaf in result.leaves],
                "final": game_record(job.decomposition().final_game),
            }
        raise ValueError(kind)


def main():
    payload = json.load(sys.stdin)
    k0 = common.time_kernel()
    t0 = time.perf_counter()
    import causalgames.cli  # noqa: F401  (pulls in the whole package)

    import_wall = time.perf_counter() - t0
    cg = sys.modules["causalgames"]
    tracer = None
    if payload["trace"]:
        tracer = Tracer()
        tracer.install()
    work = Workload(cg, payload)
    for op in payload["warmup"]:
        work.run(op, work.prepare(op))
    setup_wall = time.perf_counter() - t0
    k1 = common.time_kernel()
    f = common.kernel_factor(k0, k1)
    summary = {"setup_wall": setup_wall, "import_ms": import_wall / f * 1e3}
    layers, self_ms = {}, {}

    def fold(factor):
        if tracer is None:
            return
        raw, layer_raw = tracer.take()
        for name, sec in raw.items():
            layers[name] = layers.get(name, 0.0) + sec / factor * 1e3
        for name, sec in layer_raw.items():
            self_ms[name] = self_ms.get(name, 0.0) + sec / factor * 1e3

    fold(f)
    if payload["mode"] == "run":
        for p in range(payload["passes"]):
            for i, op in enumerate(payload["ops"]):
                args = work.prepare(op)
                kb = common.time_kernel()
                ts = time.perf_counter()
                try:
                    result = work.run(op, args)
                    error = None
                except Exception as exc:  # a failed operation is counted, not fatal
                    result, error = None, f"{type(exc).__name__}: {exc}"
                wall = time.perf_counter() - ts
                ka = common.time_kernel()
                factor = common.kernel_factor(kb, ka)
                fold(factor)
                if tracer is not None:
                    tracer.on = False
                line = {"op": i, "pass": p, "wall": wall, "norm": wall / factor,
                        "error": error,
                        "out": None if error else work.record(op, args, result)}
                if tracer is not None:
                    tracer.on = True
                common.emit(line)
    summary["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        summary["layers"] = layers
        summary["self_ms"] = self_ms
        summary["counts"] = dict(tracer.counts)
    common.emit({"summary": summary})


if __name__ == "__main__":
    main()
