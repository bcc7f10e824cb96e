"""Game files.

Games are YAML documents with four sections: ``agents`` (count),
``variables`` (name/kind/agent/domain/parents), ``cpds`` (a table per
chance and utility variable, none for a decision; rows keyed by a
comma-joined parent instantiation, with a bare value as sugar for a
degenerate row), and ``rationality``.  Unknown keys are rejected
everywhere; parse errors carry line/column where the YAML parser provides
them.  Scenario files, which reference a game file, are read by
``scenarios``.
"""

from __future__ import annotations

import yaml

from .errors import GameFileError
from .model import (
    DECISION,
    NEST_DEPTH,
    ROUND_DIGITS,
    UTILITY,
    CausalGame,
    TabularCPD,
    Variable,
    _is_real,
    validate_game,
)

GAME_KEYS = {"agents", "variables", "cpds", "rationality"}
VARIABLE_KEYS = {"name", "kind", "agent", "domain", "parents"}


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


_OPEN = (yaml.SequenceStartEvent, yaml.MappingStartEvent)
_CLOSE = (yaml.SequenceEndEvent, yaml.MappingEndEvent)


def _check_events(text):
    """Refuse collections nested deeper than ``NEST_DEPTH`` before they are
    composed: libyaml's composer recurses on the C stack and overflows it.
    Refuse anchors and aliases too: each alias repeats a whole value, so a
    few hundred bytes can stand for a value, and a message, of any size.

    A level is a flow ``[`` or ``{``, or a block collection; block
    collections indent further at least every second level, and each
    starts within a line.  A text under the bound these give and without
    an ``&``, as the bundled files are, costs no scan of its events."""
    longest = max(map(len, text.split("\n")))
    if "&" not in text and (
        text.count("[") + text.count("{") + 2 * longest + 1 <= NEST_DEPTH
    ):
        return
    loader = _Loader(text)
    try:
        depth = 0
        while loader.check_event():
            event = loader.get_event()
            depth += isinstance(event, _OPEN) - isinstance(event, _CLOSE)
            if depth > NEST_DEPTH:
                problem = f"collections nested more than {NEST_DEPTH} deep"
            elif getattr(event, "anchor", None) is not None:
                problem = "anchors and aliases are not supported"
            else:
                continue
            raise yaml.MarkedYAMLError(problem=problem, problem_mark=event.start_mark)
    finally:
        loader.dispose()


def _load_yaml(text, path):
    try:
        _check_events(text)
        data = yaml.load(text, Loader=_Loader)
    except yaml.reader.ReaderError as exc:
        # it has no mark: the reader stops at the character's first occurrence
        at = text.find(chr(exc.character))
        raise GameFileError(
            f"unacceptable character #x{exc.character:04x}: {exc.reason}",
            path=path,
            line=text.count("\n", 0, at) + 1,
            column=at - text.rfind("\n", 0, at),
        ) from exc
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
            if not all(map(_is_real, row)):
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

    decisions = {v.name for v in variables if v.kind == DECISION}
    cpds = {}
    if not isinstance(data["cpds"], dict):
        raise GameFileError("'cpds' must be a mapping", path=path)
    for name, spec in data["cpds"].items():
        name = str(name)
        if name not in parents:
            raise GameFileError(f"CPD for unknown variable {name!r}", path=path)
        if name in decisions:
            raise GameFileError(
                f"{name}: a decision takes no CPD in a game file; pin it with "
                "a fix_object intervention",
                path=path,
            )
        cpds[name] = _parse_cpd(name, spec, parents[name], domains, path)

    game = CausalGame(data["agents"], tuple(variables), parents, cpds)
    report = validate_game(game)
    if report:
        raise GameFileError(
            "invalid game: " + "; ".join(report), path=path
        )
    return game


def _read(path: str) -> str:
    """The text of the file at ``path``; a file that cannot be read or is
    not UTF-8 is a ``GameFileError`` naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise GameFileError(str(exc), path=path) from exc
    except UnicodeDecodeError as exc:
        raise GameFileError(
            f"not UTF-8 text: {exc.reason} at byte {exc.start}", path=path
        ) from exc


def load_game(path: str) -> CausalGame:
    return parse_game(_read(path), path)


def table_rows(cpd: TabularCPD) -> dict:
    """A table's rows as files and reports show them: keyed by comma-joined
    context, contexts sorted by ``repr``, values rounded to ``ROUND_DIGITS``."""
    return {
        _context_key(ctx): [round(p, ROUND_DIGITS) for p in row]
        for ctx, row in sorted(cpd.table.items(), key=lambda kv: repr(kv[0]))
    }


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
    return {
        "agents": game.n_agents,
        "variables": variables,
        "cpds": {
            v.name: table_rows(game.cpds[v.name])
            for v in game.variables if v.name in game.cpds
        },
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
