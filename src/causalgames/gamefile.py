"""Game and scenario files.

Games are YAML documents with four sections: ``agents`` (count),
``variables`` (name/kind/agent/domain/parents), ``cpds`` (rows keyed by a
comma-joined parent instantiation, with a bare value as sugar for a
degenerate row), and ``rationality``.  Scenarios reference a game file and
add labelled interventions, a visibility map, a query, and options.
Unknown keys are rejected everywhere; parse errors carry line/column where
the YAML parser provides them.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Mapping

import yaml

from .errors import GameFileError, InterventionError, ValidationError
from .graphs import variable_of_mechanism
from .interventions import (
    AddVariable,
    FixMechanism,
    FixObject,
    RemoveVariable,
    as_compound,
    make_add_edge,
    make_remove_edge,
)
from .model import (
    ROUND_DIGITS,
    UTILITY,
    CausalGame,
    TabularCPD,
    Variable,
    _is_int,
    validate_game,
)

GAME_KEYS = {"agents", "variables", "cpds", "rationality"}
VARIABLE_KEYS = {"name", "kind", "agent", "domain", "parents"}
SCENARIO_KEYS = {"game", "interventions", "visibility", "query", "options"}


def _is_tolerance(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and 0 <= x < math.inf


BOOLEAN = ("a boolean", lambda x: isinstance(x, bool))
# option -> (what its value must be, the test a value passes); each option
# sets the ``QueryJob`` field of its name
OPTIONS = {
    "mix_ties": BOOLEAN,
    "merge_common": BOOLEAN,
    "agent_order": (
        "a list of agent indices",
        lambda x: isinstance(x, list) and all(map(_is_int, x)),
    ),
    "include_behavioral": BOOLEAN,
    "epsilon": ("a finite number of at least 0", _is_tolerance),
    "seed": ("an integer", _is_int),
}
# intervention kind -> (required keys, optional keys); "label" and "kind" go
# with every kind
INTERVENTION_KEYS = {
    "fix_object": (("target",), {"parents", "rows", "value"}),
    "fix_mechanism": (("target",), {"rows", "value"}),
    "add_var": (
        ("name",),
        {"var_kind", "agent", "domain", "parents", "children", "rows", "value"},
    ),
    "remove_var": (("name",), set()),
    "add_edge": (("from", "to"), set()),
    "del_edge": (("from", "to"), set()),
    "unfix": (("of",), set()),
}


def _reject_unknown(mapping, allowed, where, path):
    unknown = set(mapping) - allowed
    if unknown:
        raise GameFileError(
            f"unknown key(s) {sorted(unknown)} in {where}", path=path
        )


def _listed(entry, key, owner, path) -> list:
    """``entry[key]``, absent meaning empty; a bare string is an error,
    not a sequence of one-letter names."""
    value = entry.get(key, [])
    if not isinstance(value, list):
        raise GameFileError(
            f"{owner}: {key!r} must be a list, got {value!r}", path=path
        )
    return value


def _domain(entry, kind, name, path) -> tuple:
    """``entry``'s domain: utility values as written, other values as text."""
    domain = _listed(entry, "domain", name, path)
    if kind == UTILITY:
        return tuple(domain)
    return tuple(str(v) for v in domain)


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, on libyaml's parser when the platform has it
    (positions are the same), refusing a mapping that gives one key twice:
    PyYAML would silently keep the last."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            try:
                repeated = key in seen
            except TypeError:  # unhashable: the base class reports it
                continue
            if repeated:
                raise yaml.constructor.ConstructorError(
                    None, None, f"key {key!r} given twice", key_node.start_mark
                )
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def _load_yaml(text, path):
    try:
        data = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise GameFileError(
                str(getattr(exc, "problem", exc)),
                path=path,
                line=mark.line + 1,
                column=mark.column + 1,
            ) from exc
        raise GameFileError(str(exc), path=path) from exc
    if not isinstance(data, dict):
        raise GameFileError("document must be a mapping", path=path)
    return data


def _context_key(ctx) -> str:
    return ",".join(str(v) for v in ctx)


def _parse_context(key, parents, game_domains, name, path):
    key = str(key)
    tokens = [] if key == "" else key.split(",")
    if len(tokens) != len(parents):
        raise GameFileError(
            f"{name}: context {key!r} has {len(tokens)} values for "
            f"{len(parents)} parents",
            path=path,
        )
    ctx = []
    for tok, parent in zip(tokens, parents):
        tok = tok.strip()
        for v in game_domains[parent]:
            if str(v) == tok:
                ctx.append(v)
                break
        else:
            raise GameFileError(
                f"{name}: context value {tok!r} not in the domain of {parent}",
                path=path,
            )
    return tuple(ctx)


def _parse_cpd(name, spec, parents, domains, path):
    if not isinstance(spec, dict):
        raise GameFileError(
            f"{name}: CPD must map contexts to rows or values", path=path
        )
    domain = domains[name]
    table = {}
    for key, row in spec.items():
        ctx = _parse_context(key, parents, domains, name, path)
        if ctx in table:
            raise GameFileError(
                f"{name}: context {_context_key(ctx)!r} given twice", path=path
            )
        if isinstance(row, (list, tuple)):
            if not all(_is_int(p) or isinstance(p, float) for p in row):
                raise GameFileError(
                    f"{name}: row {str(key)!r} must list numbers, got {row!r}",
                    path=path,
                )
            table[ctx] = tuple(float(p) for p in row)
        else:
            matches = [v for v in domain if str(v) == str(row)]
            if not matches:
                raise GameFileError(
                    f"{name}: value {row!r} not in domain", path=path
                )
            idx = domain.index(matches[0])
            table[ctx] = tuple(
                1.0 if i == idx else 0.0 for i in range(len(domain))
            )
    return TabularCPD(name, tuple(parents), table)


def parse_game(text: str, path: str | None = None) -> CausalGame:
    data = _load_yaml(text, path)
    _reject_unknown(data, GAME_KEYS, "game file", path)
    for key in ("agents", "variables", "cpds"):
        if key not in data:
            raise GameFileError(f"missing section {key!r}", path=path)
    rationality = data.get("rationality", "best_response")
    if rationality != "best_response":
        raise GameFileError(
            f"unsupported rationality {rationality!r}", path=path
        )
    variables = []
    parents = {}
    domains = {}
    for entry in data["variables"]:
        if not isinstance(entry, dict):
            raise GameFileError("each variable must be a mapping", path=path)
        _reject_unknown(entry, VARIABLE_KEYS, "variable entry", path)
        for key in ("name", "kind", "domain"):
            if key not in entry:
                raise GameFileError(
                    f"variable entry missing {key!r}", path=path
                )
        name = str(entry["name"])
        kind = str(entry["kind"])
        domain = _domain(entry, kind, name, path)
        variables.append(Variable(name, kind, domain, entry.get("agent")))
        parents[name] = tuple(map(str, _listed(entry, "parents", name, path)))
        domains[name] = domain

    cpds = {}
    if not isinstance(data["cpds"], dict):
        raise GameFileError("'cpds' must be a mapping", path=path)
    for name, spec in data["cpds"].items():
        name = str(name)
        if name not in parents:
            raise GameFileError(f"CPD for unknown variable {name!r}", path=path)
        cpds[name] = _parse_cpd(name, spec, parents[name], domains, path)

    game = CausalGame(data["agents"], tuple(variables), parents, cpds)
    report = validate_game(game)
    if report:
        raise GameFileError(
            "invalid game: " + "; ".join(report), path=path
        )
    return game


def load_game(path: str) -> CausalGame:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GameFileError(str(exc), path=path) from exc
    return parse_game(text, path)


def game_to_dict(game: CausalGame) -> dict:
    variables = []
    for v in game.variables:
        entry = {"name": v.name, "kind": v.kind}
        if v.agent is not None:
            entry["agent"] = v.agent
        entry["domain"] = list(v.domain)
        if game.parents_of(v.name):
            entry["parents"] = list(game.parents_of(v.name))
        variables.append(entry)
    cpds = {}
    for v in game.variables:
        if v.name not in game.cpds:
            continue
        cpd = game.cpds[v.name]
        cpds[v.name] = {
            _context_key(ctx): [round(p, ROUND_DIGITS) for p in cpd.row(ctx)]
            for ctx in sorted(cpd.table, key=repr)
        }
    return {
        "agents": game.n_agents,
        "variables": variables,
        "cpds": cpds,
        "rationality": "best_response",
    }


def serialize_game(game: CausalGame) -> str:
    """Deterministic textual form; parse(serialize(g)) equals g structurally.

    Refuses what the parser could not give back: rule or object fixes, and
    chance or decision values that are not strings.
    """
    if game.rule_fixes or game.object_fixed:
        raise GameFileError(
            "only base games serialize to the file format; intervened games "
            "carry rule or object fixes"
        )
    for v in game.variables:
        if v.kind != UTILITY and not all(isinstance(x, str) for x in v.domain):
            raise GameFileError(
                f"{v.name}: only text {v.kind} values serialize to the file "
                f"format, got {v.domain!r}"
            )
    return yaml.safe_dump(game_to_dict(game), sort_keys=False)


# -- scenarios -------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A game plus labelled interventions, visibility, query, and options."""

    game: CausalGame
    interventions: tuple  # ((label, CompoundIntervention), ...)
    visibility: Mapping[int, tuple]
    query: str | None
    options: Mapping[str, object] = field(default_factory=dict)


def _intervention_cpd(game, name, entry, parents, path, domain=None):
    """The table an intervention entry sets for ``name`` over ``parents``:
    a point mass on its ``value``, its ``rows``, or None.  ``domain`` is
    given when the entry adds ``name``."""
    if "value" not in entry and "rows" not in entry:
        return None
    domains = {v.name: v.domain for v in game.variables}
    if domain is not None:
        domains[name] = domain
    for n in (name, *parents):
        if n not in domains:
            raise GameFileError(f"unknown variable {n!r}", path=path)
    if "value" in entry:
        value = entry["value"]
        matches = [v for v in domains[name] if str(v) == str(value)]
        if not matches:
            raise GameFileError(f"{name}: value {value!r} not in domain", path=path)
        contexts = itertools.product(*(domains[p] for p in parents))
        return TabularCPD.delta(name, matches[0], domains[name], parents, contexts)
    return _parse_cpd(name, entry["rows"], parents, domains, path)


def _build_primitive(game, entry, journaled, path):
    kind = entry.get("kind")
    if not isinstance(kind, str) or kind not in INTERVENTION_KEYS:
        raise GameFileError(
            f"unknown intervention kind {kind!r}", path=path
        )
    required, optional = INTERVENTION_KEYS[kind]
    allowed = {"label", "kind", *required, *optional}
    _reject_unknown(entry, allowed, f"{kind} intervention", path)
    for key in required:
        if key not in entry:
            raise GameFileError(f"{kind} intervention needs {key!r}", path=path)

    if kind == "fix_object":
        target = str(entry["target"])
        parents = tuple(map(str, _listed(entry, "parents", target, path)))
        cpd = _intervention_cpd(game, target, entry, parents, path)
        return FixObject(target, parents, cpd)
    if kind == "fix_mechanism":
        target = str(entry["target"])
        try:
            var = variable_of_mechanism(target)
        except ValidationError as exc:
            raise GameFileError(str(exc), path=path) from None
        if not game.has_variable(var):
            raise GameFileError(
                f"mechanism target {target!r} names no variable", path=path
            )
        cpd = _intervention_cpd(game, var, entry, game.parents_of(var), path)
        return FixMechanism(target, cpd)
    if kind == "add_var":
        name = str(entry["name"])
        var_kind = str(entry.get("var_kind", "chance"))
        domain = _domain(entry, var_kind, name, path)
        variable = Variable(name, var_kind, domain, entry.get("agent"))
        parents = tuple(map(str, _listed(entry, "parents", name, path)))
        children = tuple(map(str, _listed(entry, "children", name, path)))
        cpd = _intervention_cpd(game, name, entry, parents, path, domain)
        return AddVariable(variable, parents, children, cpd=cpd)
    if kind == "remove_var":
        return RemoveVariable(str(entry["name"]))
    if kind in ("add_edge", "del_edge"):
        src, dst = str(entry["from"]), str(entry["to"])
        maker = make_add_edge if kind == "add_edge" else make_remove_edge
        return maker(game, src, dst)
    # unfix
    ref = str(entry["of"])
    if ref not in journaled:
        raise GameFileError(
            f"unfix references unknown or not-yet-applied label {ref!r}",
            path=path,
        )
    return journaled[ref].invert()


def parse_scenario(
    text: str,
    path: str | None = None,
    base_dir: str = ".",
    game_loader=None,
) -> Scenario:
    data = _load_yaml(text, path)
    _reject_unknown(data, SCENARIO_KEYS, "scenario file", path)
    if "game" not in data:
        raise GameFileError("missing 'game' reference", path=path)
    if game_loader is not None:
        game = game_loader(str(data["game"]))
    else:
        game = load_game(os.path.join(base_dir, str(data["game"])))

    interventions = []
    journaled = {}
    running = game
    for i, entry in enumerate(data.get("interventions", ()) or ()):
        if not isinstance(entry, dict):
            raise GameFileError("each intervention must be a mapping", path=path)
        label = str(entry.get("label", f"i{i}"))
        if label in journaled:
            raise GameFileError(
                f"duplicate intervention label {label!r}", path=path
            )
        try:
            compound = as_compound(_build_primitive(running, entry, journaled, path))
            running, jc = compound.apply(running)
        except InterventionError as exc:
            raise GameFileError(str(exc), path=path) from None
        journaled[label] = jc
        interventions.append((label, compound))

    visibility = {}
    seen = data.get("visibility", {}) or {}
    if not isinstance(seen, dict):
        raise GameFileError("'visibility' must be a mapping", path=path)
    for agent, labels in seen.items():
        if not (_is_int(agent) and 1 <= agent <= game.n_agents):
            raise GameFileError(
                f"visibility keys must be agent indices in 1..{game.n_agents}, "
                f"got {agent!r}",
                path=path,
            )
        if not isinstance(labels, list):
            raise GameFileError(
                f"visibility of agent {agent} must be a list of labels, "
                f"got {labels!r}",
                path=path,
            )
        labels = tuple(map(str, labels))
        for l in labels:
            if l not in journaled:
                raise GameFileError(
                    f"visibility references unknown intervention {l!r}",
                    path=path,
                )
        visibility[agent] = labels

    options = data.get("options", {}) or {}
    if not isinstance(options, dict):
        raise GameFileError("'options' must be a mapping", path=path)
    _reject_unknown(options, OPTIONS.keys(), "options", path)
    for key, value in options.items():
        what, valid = OPTIONS[key]
        if not valid(value):
            raise GameFileError(
                f"option {key!r} must be {what}, got {value!r}", path=path
            )
    query = data.get("query")
    return Scenario(
        game,
        tuple(interventions),
        visibility,
        str(query) if query is not None else None,
        options,
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GameFileError(str(exc), path=path) from exc
    return parse_scenario(text, path, base_dir=os.path.dirname(path) or ".")
