"""Command-line interface.

Subcommands: validate, solve, mech-graph, intervene, side-effects,
min-set, invariant, query, commit.  Game and scenario arguments accept a
file path or the bare name of a bundled fixture.  ``--json`` switches every
report to a stable machine-readable schema.  Exit codes: 0 success, 1
domain error or a closed output pipe, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from importlib import resources

# layers only some commands read: bound unrun, each runs on its first call
from . import dot, equilibrium, graphs, interventions, kernel, queries, scenarios
from .errors import GameError
from .gamefile import game_to_dict, load_game, parse_game, table_rows
from .model import PROB_EPS, ROUND_DIGITS, SHOWN_EPS
from .model import CausalGame, validate_game

JSON_SCHEMA = "causalgames/1"


def _fixture_text(filename: str) -> str | None:
    root = resources.files("causalgames").joinpath("fixtures")
    candidate = root.joinpath(filename)
    if candidate.is_file():
        return candidate.read_text(encoding="utf-8")
    return None


def _fixture_game_loader(ref: str) -> CausalGame:
    text = _fixture_text(ref)
    if text is None:
        raise GameError(f"bundled scenario references unknown game {ref!r}")
    return parse_game(text, f"fixture:{ref}")


def resolve_game(arg: str) -> CausalGame:
    if os.path.exists(arg):
        return load_game(arg)
    text = _fixture_text(f"{arg}.game.yaml")
    if text is not None:
        return parse_game(text, f"fixture:{arg}")
    raise GameError(f"no such game file or bundled fixture: {arg!r}")


def resolve_scenario(arg: str) -> scenarios.Scenario:
    if os.path.exists(arg):
        return scenarios.load_scenario(arg)
    text = _fixture_text(f"{arg}.scenario.yaml")
    if text is not None:
        return scenarios.parse_scenario(
            text, f"fixture:{arg}", game_loader=_fixture_game_loader
        )
    raise GameError(f"no such scenario file or bundled fixture: {arg!r}")


def _round(x: float) -> float:
    return round(float(x), ROUND_DIGITS)


def _rule_text(game, decision, rule) -> str:
    domain = game.domain(decision)
    parts = []
    for ctx in game.contexts(decision):
        row = rule.row(ctx)
        key = ",".join(str(v) for v in ctx) or "-"
        pure = [domain[i] for i, p in enumerate(row) if abs(p - 1.0) <= PROB_EPS]
        if pure:
            parts.append(f"{key}->{pure[0]}")
        else:
            mix = "+".join(
                f"{_round(p)}*{domain[i]}" for i, p in enumerate(row) if p > SHOWN_EPS
            )
            parts.append(f"{key}->({mix})")
    return f"{decision}[{' '.join(parts)}]"


def _point(game, profile) -> dict:
    """A profile's rules and every agent's expected utility, as reported."""
    return {
        "rules": {d: table_rows(profile[d]) for d in profile.decisions()},
        "payoffs": [
            _round(kernel.expected_utility(game, profile, a))
            for a in range(1, game.n_agents + 1)
        ],
    }


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        payload = {"schema": JSON_SCHEMA, "command": args.command, **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_validate(args) -> int:
    game = resolve_game(args.game)
    report = validate_game(game)
    _emit(
        args,
        {"valid": not report, "violations": report},
        [f"violation: {v}" for v in report] or ["ok"],
    )
    return 1 if report else 0


def _cmd_solve(args) -> int:
    game = resolve_game(args.game)
    result = equilibrium.pure_nash(game)
    lines, payload = [], {}

    def points(key, profiles, header):
        payload[key] = [_point(game, p) for p in profiles]
        lines.append(f"{len(profiles)} {header}:")
        for i, (profile, point) in enumerate(zip(profiles, payload[key]), 1):
            rules_text = " | ".join(
                _rule_text(game, d, profile[d]) for d in game.free_decisions()
            )
            lines.append(f"  {i}. {rules_text}  EU={tuple(point['payoffs'])}")

    points("outcomes", result.outcomes, "pure rational outcome(s)")
    if args.behavioral:
        beh = equilibrium.behavioral_nash_small(game)
        points("behavioral_points", beh.outcomes, "behavioral point(s)")
        payload["families"] = []
        lines.append(f"{len(beh.families)} behavioral famil(ies):")
        for fam in beh.families:
            fam_desc = {
                "entries": {
                    f"{d}|{','.join(str(v) for v in ctx)}": (
                        entry if isinstance(entry, str) else _round(entry)
                    )
                    for (d, ctx), entry in sorted(
                        fam.entries.items(), key=lambda kv: repr(kv[0])
                    )
                },
                "params": [
                    {"name": p.name, "low": _round(p.low), "high": _round(p.high)}
                    for p in fam.params
                ],
            }
            payload["families"].append(fam_desc)
            params = ", ".join(
                f"{p.name} in [{_round(p.low)}, {_round(p.high)}]"
                for p in fam.params
            )
            lines.append(f"  family: {fam_desc['entries']}  with {params}")
    _emit(args, payload, lines)
    return 0


def _cmd_mech_graph(args) -> int:
    game = resolve_game(args.game)
    if args.json:
        mg = graphs.build_mechanised_graph(game)
        _emit(
            args,
            {
                "dot": dot.export_dot(game, args.which, mg),
                "inter_mechanism_edges": sorted(
                    list(e) for e in mg.inter_mechanism_edges
                ),
            },
            [],
        )
    else:
        print(dot.export_dot(game, args.which), end="")
    return 0


def _cmd_intervene(args) -> int:
    scenario = resolve_scenario(args.scenario)
    game = interventions.apply_all(
        scenario.game, [c for _, c in scenario.interventions]
    )
    data = game_to_dict(game)
    if game.rule_fixes:
        data["rule_fixes"] = {
            d: table_rows(r) for d, r in sorted(game.rule_fixes.items())
        }
    if game.object_fixed:
        data["object_fixed"] = sorted(game.object_fixed)
    if args.json:
        _emit(args, {"game": data}, [])
    else:
        import yaml

        print(yaml.safe_dump(data, sort_keys=False), end="")
    return 0


def _cmd_side_effects(args) -> int:
    scenario = resolve_scenario(args.scenario)
    report = interventions.side_effects(
        scenario.game, [c for _, c in scenario.interventions]
    )
    removed = sorted(list(e) for e in report.removed)
    added = sorted(list(e) for e in report.added)
    lines = (
        [f"removed: {a} -> {b}" for a, b in removed]
        + [f"added: {a} -> {b}" for a, b in added]
    ) or ["no side effects"]
    _emit(args, {"removed": removed, "added": added}, lines)
    return 0


def _cmd_min_set(args) -> int:
    game = resolve_game(args.game)
    result = interventions.minimum_intervention_set(game, args.src, args.dst)
    _emit(
        args,
        {"minimum_intervention_set": list(result)},
        ["{" + ", ".join(result) + "}"],
    )
    return 0


def _cmd_invariant(args) -> int:
    scenario = resolve_scenario(args.scenario)
    ok = interventions.incentive_invariant(
        scenario.game, [c for _, c in scenario.interventions]
    )
    _emit(args, {"incentive_invariant": ok}, [f"incentive invariant: {ok}"])
    return 0


def _job_from_scenario(scenario: scenarios.Scenario, args) -> queries.QueryJob:
    if scenario.query is None:
        raise GameError("scenario has no query")
    # parse_scenario typed each option; each sets the job field of its name
    flags = {"seed": args.seed, "epsilon": args.epsilon}
    options = {**scenario.options, **{k: v for k, v in flags.items() if v is not None}}
    return queries.QueryJob(
        scenario.game, scenario.interventions, scenario.visibility, scenario.query,
        **options,
    )


def _cmd_query(args) -> int:
    scenario = resolve_scenario(args.scenario)
    job = _job_from_scenario(scenario, args)
    result = queries.evaluate_query(job)
    tags = queries.classify_visibility(job)
    verdict = result.verdict
    if isinstance(verdict, float):
        verdict_out = _round(verdict)
    else:
        verdict_out = verdict
    lines = [f"verdict: {verdict_out}"]
    lines.append(
        "visibility: "
        + ", ".join(f"agent {a}: {t}" for a, t in sorted(tags.items()))
    )
    leaf_values = [
        _round(v) if isinstance(v, float) else v for v in result.leaf_values
    ]
    if len(result.leaves) > 1 or verdict is None:
        lines.append(f"leaf values: {leaf_values}")
    for entry in result.trace:
        lines.append(
            f"stage {entry['stage']}: applied={entry['applied']} "
            f"agents={entry['agents']}"
            + (f" choice={entry['choice']}" if "choice" in entry else "")
        )
    _emit(
        args,
        {
            "verdict": verdict_out,
            "leaf_values": leaf_values,
            "visibility": {str(a): t for a, t in tags.items()},
            "seed": result.seed,
            "trace": list(result.trace),
        },
        lines,
    )
    return 0


def _cmd_commit(args) -> int:
    game = resolve_game(args.game)
    rule, value = equilibrium.optimal_commitment(game, args.leader)
    decision = rule.variable
    domain = game.domain(decision)
    [(p, q)] = rule.table.values()  # the leader decision's one context
    _emit(
        args,
        {
            "decision": decision,
            "rule": table_rows(rule),
            "leader_payoff": _round(value),
            "mode": "exact",  # one solver; the key stays for the schema
        },
        [
            f"optimal commitment on {decision}: "
            f"P({domain[0]})={_round(p)}, P({domain[1]})={_round(q)}",
            f"leader payoff: {_round(value)}",
        ],
    )
    return 0


def _epsilon(text: str) -> float:
    """``--epsilon``'s value, held to the rule of the scenario option."""
    what, valid = scenarios.OPTIONS["epsilon"]
    with contextlib.suppress(ValueError):
        if valid(value := float(text)):
            return value
    raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalgames",
        description="Solve causal games and evaluate interventional queries.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--epsilon", type=_epsilon, default=None, help="comparison tolerance"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a game file's invariants")
    p.add_argument("game")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("solve", help="enumerate rational outcomes")
    p.add_argument("game")
    p.add_argument("--behavioral", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("mech-graph", help="export a graph as DOT text")
    p.add_argument("game")
    p.add_argument(
        "--which",
        choices=("object", "mechanised", "independent_mechanised"),
        default="mechanised",
    )
    p.set_defaults(func=_cmd_mech_graph)

    p = sub.add_parser("intervene", help="apply a scenario's interventions")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_intervene)

    p = sub.add_parser(
        "side-effects", help="inter-mechanism edge changes of a scenario"
    )
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_side_effects)

    p = sub.add_parser("min-set", help="minimum intervention set")
    p.add_argument("game")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.set_defaults(func=_cmd_min_set)

    p = sub.add_parser("invariant", help="incentive invariance of a scenario")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("query", help="evaluate a scenario's query")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("commit", help="optimal commitment for a leader")
    p.add_argument("game")
    p.add_argument("--leader", type=int, required=True)
    p.set_defaults(func=_cmd_commit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except GameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader is gone: drop what is left unwritten, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
