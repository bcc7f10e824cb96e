"""Scenario files.

A scenario is a YAML document that references a game file and adds
labelled interventions, a visibility map, a query, and options.  Unknown
keys are rejected everywhere, as in game files (``gamefile``), whose
loader and table parser it shares.
"""

from __future__ import annotations

import math
import os
from typing import Mapping

from . import interventions
from .errors import GameFileError, InterventionError, ValidationError
from .gamefile import (
    _domain, _listed, _load_yaml, _parse_cpd, _read, _reject_unknown, load_game,
)
from .model import (
    CausalGame, TabularCPD, Variable, _is_int, _is_real, _record,
    field, variable_of_mechanism,
)

SCENARIO_KEYS = {"game", "interventions", "visibility", "query", "options"}
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
    "epsilon": (
        "a finite number of at least 0", lambda x: _is_real(x) and 0 <= x < math.inf
    ),
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


@_record
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
        return TabularCPD.delta(
            name, matches[0], domains[name], parents, domains.__getitem__
        )
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
        return interventions.FixObject(target, parents, cpd)
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
        return interventions.FixMechanism(target, cpd)
    if kind == "add_var":
        name = str(entry["name"])
        var_kind = str(entry.get("var_kind", "chance"))
        domain = _domain(entry, var_kind, name, path)
        variable = Variable(name, var_kind, domain, entry.get("agent"))
        parents = tuple(map(str, _listed(entry, "parents", name, path)))
        children = tuple(map(str, _listed(entry, "children", name, path)))
        cpd = _intervention_cpd(game, name, entry, parents, path, domain)
        return interventions.AddVariable(variable, parents, children, cpd=cpd)
    if kind == "remove_var":
        return interventions.RemoveVariable(str(entry["name"]))
    if kind in ("add_edge", "del_edge"):
        src, dst = str(entry["from"]), str(entry["to"])
        maker = (
            interventions.make_add_edge if kind == "add_edge"
            else interventions.make_remove_edge
        )
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
    text: str, path: str | None = None, game_loader=load_game
) -> Scenario:
    data = _load_yaml(text, path)
    _reject_unknown(data, SCENARIO_KEYS, "scenario file", path)
    if "game" not in data:
        raise GameFileError("missing 'game' reference", path=path)
    game = game_loader(str(data["game"]))

    labelled = []
    journaled = {}
    running = game
    for i, entry in enumerate(data.get("interventions", ()) or ()):
        if not isinstance(entry, dict):
            raise GameFileError("each intervention must be a mapping", path=path)
        label = entry.get("label", f"i{i}")
        if not isinstance(label, str):
            raise GameFileError(
                f"intervention labels must be strings, got {label!r}", path=path
            )
        if label in journaled:
            raise GameFileError(
                f"duplicate intervention label {label!r}", path=path
            )
        try:
            primitive = _build_primitive(running, entry, journaled, path)
            compound = interventions.as_compound(primitive)
            running, jc = compound.apply(running)
        except InterventionError as exc:
            raise GameFileError(str(exc), path=path) from None
        journaled[label] = jc
        labelled.append((label, compound))

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
        if not (isinstance(labels, list) and all(isinstance(l, str) for l in labels)):
            raise GameFileError(
                f"visibility of agent {agent} must be a list of labels, "
                f"got {labels!r}",
                path=path,
            )
        labels = tuple(labels)
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
        tuple(labelled),
        visibility,
        str(query) if query is not None else None,
        options,
    )


def load_scenario(path: str) -> Scenario:
    base_dir = os.path.dirname(path) or "."
    return parse_scenario(
        _read(path), path, lambda ref: load_game(os.path.join(base_dir, ref))
    )
