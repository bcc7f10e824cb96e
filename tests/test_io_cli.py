import argparse
import ast
import itertools
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import causalgames
from causalgames import (
    AddVariable,
    CausalGame,
    GameError,
    GameFileError,
    InterventionError,
    PolicyProfile,
    Variable,
    induced_joint,
    export_dot,
    load_game,
    FixObject,
    TabularCPD,
    ValidationError,
    apply_primitive,
    load_scenario,
    parse_game,
    serialize_game,
    validate_game,
)
from causalgames.cli import _job_from_scenario, main, resolve_game
from causalgames.model import NEST_DEPTH
from helpers import (
    chain_to_utility_game,
    dense_to_utility_game,
    fan_game,
    games_equal,
    random_multi_decision_game,
)

FIXTURES = ("job_market", "effortville", "prisoners_dilemma", "stackelberg")


# -- game files -------------------------------------------------------------------


def test_fixture_round_trips():
    for name in FIXTURES:
        game = resolve_game(name)
        text = serialize_game(game)
        again = parse_game(text, f"roundtrip:{name}")
        assert games_equal(game, again)


def test_unknown_keys_rejected():
    text = serialize_game(resolve_game("prisoners_dilemma"))
    with pytest.raises(GameFileError, match="unknown key"):
        parse_game(text + "\nflavour: spicy\n")


def test_bad_row_sum_rejected():
    text = """
agents: 1
variables:
  - name: X
    kind: chance
    domain: [a, b]
  - name: D1
    kind: decision
    agent: 1
    domain: [u, v]
  - name: U1
    kind: utility
    agent: 1
    domain: [0, 1]
    parents: [D1]
cpds:
  X:
    "": [0.5, 0.4]
  U1:
    "u": 0
    "v": 1
"""
    with pytest.raises(GameFileError, match="sums to"):
        parse_game(text)


def test_yaml_error_carries_position(tmp_path):
    bad = tmp_path / "bad.game.yaml"
    bad.write_text("agents: [unclosed\n")
    from causalgames import load_game

    with pytest.raises(GameFileError) as err:
        load_game(str(bad))
    assert "line" in str(err.value)
    assert (err.value.line, err.value.column) == (2, 1)
    bad.write_text("agents: 1\nvariables:\n  - name: T\n   kind: chance\n")
    with pytest.raises(GameFileError) as err:
        load_game(str(bad))
    assert (err.value.line, err.value.column) == (4, 4)
    assert str(err.value).startswith(f"{bad}: line 4, column 4")


@pytest.mark.parametrize("kind", ["game", "scenario"])
def test_file_not_in_utf8_is_one_error_line(capsys, tmp_path, kind):
    path = tmp_path / f"bad.{kind}.yaml"
    path.write_bytes(b"agents: \xff\n")
    loader = {"game": load_game, "scenario": load_scenario}[kind]
    with pytest.raises(GameFileError, match="not UTF-8 text") as exc:
        loader(str(path))
    assert exc.value.path == str(path)
    command = {"game": "validate", "scenario": "intervene"}[kind]
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: not UTF-8 text: invalid start byte at byte 8\n"


@pytest.mark.parametrize("name", ["a", "\u00e9"], ids=["ascii", "non_ascii"])
def test_control_character_is_one_error_line_with_its_position(capsys, tmp_path, name):
    """The reader's error has no mark: the line and column are where the
    character stands, counted in characters."""
    path = tmp_path / "ctl.game.yaml"
    path.write_text(f'agents: 2\nvariables:\n  - {{name: "{name}\x07"}}\n', encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err == (
        f"error: {path}: line 3, column 14: unacceptable character #x0007: "
        "control characters are not allowed\n"
    )


@pytest.mark.parametrize(
    "nesting, column",
    [
        ("rationality: " + "[" * 3000 + "]" * 3000, 13 + NEST_DEPTH),
        ("rationality: " + "[" * 50000 + "]" * 50000, 13 + NEST_DEPTH),
        ("rationality:\n" + "- " * 50000 + "x", None),
    ],
    ids=["flow_3000", "flow_50000", "block_50000"],
)
def test_deep_nesting_is_one_error_line(tmp_path, nesting, column):
    """Nesting past ``NEST_DEPTH`` (the document's mapping is the first
    level) is refused before it is composed: at 3 000 levels the parent's
    message raised ``RecursionError``, at 50 000 libyaml's composer
    overflowed the C stack.  Run as a process so that a crash fails the test."""
    path = tmp_path / "deep.game.yaml"
    path.write_text("agents: 1\nvariables: []\ncpds: {}\n" + nesting + "\n")
    done = subprocess.run(
        [sys.executable, "-m", "causalgames.cli", "validate", str(path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(causalgames.__file__).parents[1])},
    )
    where = f"line 4, column {column}" if column else f"line 5, column {2 * NEST_DEPTH - 1}"
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == (
        f"error: {path}: {where}: collections nested more than {NEST_DEPTH} deep\n"
    )


def test_nesting_within_the_bound_parses(prisoners):
    """A long line puts a text past the cheap bound, so its events are
    scanned; ``NEST_DEPTH`` levels pass the scan and the game's own checks
    answer."""
    text = serialize_game(prisoners)
    assert games_equal(parse_game("# " + "x" * 300 + "\n" + text), prisoners)
    inner = NEST_DEPTH - 1  # below the document's mapping
    deep = text.replace(
        "rationality: best_response", "rationality: " + "[" * inner + "]" * inner
    )
    with pytest.raises(GameFileError, match="^unsupported rationality"):
        parse_game(deep)


def test_yaml_aliases_are_one_error_line(capsys, tmp_path):
    """Five levels of ten aliases each: the parent's message showed the
    expanded value, one 580 289-byte line for a 307-byte file."""
    levels = ["&l0 [" + ", ".join(["x"] * 10) + "]"] + [
        f"&l{i} [" + ", ".join([f"*l{i - 1}"] * 10) + "]" for i in range(1, 5)
    ]
    path = tmp_path / "aliases.game.yaml"
    path.write_text(
        "agents: 1\nvariables: []\ncpds: {}\nrationality: [" + ", ".join(levels) + "]\n"
    )
    assert path.stat().st_size == 307
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: line 4, column 15: anchors and aliases are not supported\n"
    scenario = tmp_path / "anchor.scenario.yaml"
    scenario.write_text("game: g\nquery: &q 'sampled: E[1]'\n")
    with pytest.raises(GameFileError, match="line 2, column 8: anchors and aliases"):
        load_scenario(str(scenario))


def test_scenario_unfix_round_trip(tmp_path, prisoners):
    game_path = tmp_path / "pd.game.yaml"
    game_path.write_text(serialize_game(prisoners))
    scenario = tmp_path / "s.scenario.yaml"
    scenario.write_text(
        """
game: pd.game.yaml
interventions:
  - label: force
    kind: fix_object
    target: D1
    value: C
  - label: undo
    kind: unfix
    of: force
query: "forall ne: E[1] >= -2"
"""
    )
    from causalgames import apply_all, load_scenario

    loaded = load_scenario(str(scenario))
    final = apply_all(loaded.game, [c for _, c in loaded.interventions])
    assert games_equal(final, prisoners)


def test_scenario_value_fix_with_unknown_parent_is_an_error(tmp_path, prisoners, capsys):
    (tmp_path / "pd.game.yaml").write_text(serialize_game(prisoners))
    scenario = tmp_path / "s.scenario.yaml"
    scenario.write_text(
        """
game: pd.game.yaml
interventions:
  - label: force
    kind: fix_object
    target: D1
    parents: [NOPE]
    value: C
"""
    )
    assert main(["intervene", str(scenario)]) == 1
    assert f"error: {scenario}: unknown variable 'NOPE'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry",
    [
        'kind: fix_object\ntarget: ghost\nrows: {"": C}',
        'kind: fix_object\ntarget: D1\nparents: [ghost]\nrows: {x: C}',
        "kind: add_var\nname: N\ndomain: [a, b]\nparents: [ghost]\nrows: {x: a}",
    ],
    ids=["rows_target", "rows_parent", "add_var_rows_parent"],
)
def test_scenario_rows_on_unknown_variable_is_an_error(tmp_path, capsys, entry):
    """A table given over an unknown variable fails as the value sugar does,
    naming the file, not with a ``KeyError``."""
    path = _one_entry_scenario(tmp_path, entry)
    with pytest.raises(GameFileError, match="unknown variable 'ghost'$") as exc:
        load_scenario(str(path))
    assert exc.value.path == str(path)
    code, out, err = run_cli(capsys, "intervene", str(path))
    assert (code, out, err) == (1, "", f"error: {path}: unknown variable 'ghost'\n")


# -- DOT export --------------------------------------------------------------------


def test_dot_mechanised_edge_set(job_market):
    text = export_dot(job_market, "mechanised")
    for src, dst in (
        ("THETA_T", "PI_D1"),
        ("THETA_U1", "PI_D1"),
        ("PI_D2", "PI_D1"),
        ("THETA_T", "PI_D2"),
        ("THETA_U2", "PI_D2"),
        ("PI_D1", "PI_D2"),
    ):
        assert f'"{src}" -> "{dst}"' in text
    assert text.count("PI_D1\" -> \"PI_D2") == 1


def test_dot_after_hard_fix(job_market):
    fixed = apply_primitive(
        job_market,
        FixObject("D1", (), TabularCPD.delta("D1", "g", job_market.domain("D1"))),
    )
    text = export_dot(fixed, "mechanised")
    assert '"PI_D1" -> "PI_D2"' not in text
    assert '"PI_D2" -> "PI_D1"' in text
    assert '"THETA_T" -> "PI_D2"' in text
    assert '"PI_D1" -> "D1"' not in text


def test_dot_empty_game_is_header_only():
    from causalgames import CausalGame

    empty = CausalGame(0, (), {}, {})
    assert export_dot(empty, "object") == "digraph G {\n}\n"


def test_dot_unknown_view_is_a_validation_error(job_market):
    with pytest.raises(ValidationError, match="which must be one of"):
        export_dot(job_market, "bad")


def test_dot_deterministic(job_market):
    assert export_dot(job_market, "mechanised") == export_dot(
        job_market, "mechanised"
    )


# -- CLI ---------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_solve_dilemma(capsys):
    code, out, _ = run_cli(capsys, "solve", "prisoners_dilemma")
    assert code == 0
    assert "1 pure rational outcome(s):" in out
    assert "EU=(-2.0, -2.0)" in out


@pytest.mark.parametrize("game", ["job_market", "effortville"])
def test_cli_solve_text_lists_behavioral_points(capsys, game):
    """The text lists the JSON's behavioral points, one line each formatted
    like a pure outcome, mixed rules included, before the families."""
    code, out, _ = run_cli(capsys, "solve", game, "--behavioral")
    assert code == 0
    points = json.loads(run_cli(capsys, "--json", "solve", game, "--behavioral")[1])
    points = points["behavioral_points"]
    lines = out.splitlines()
    start = lines.index(f"{len(points)} behavioral point(s):") + 1
    listed = lines[start:start + len(points)]
    assert [ln.split(". ", 1)[0] for ln in listed] == [
        f"  {i}" for i in range(1, len(points) + 1)
    ]
    assert [ln.rsplit("  EU=", 1)[1] for ln in listed] == [
        str(tuple(p["payoffs"])) for p in points
    ]
    assert lines[start + len(points)].endswith(" behavioral famil(ies):")
    if game == "job_market":
        assert ("  5. D1[h->(0.5*g+0.5*ng) l->ng] | D2[g->j ng->(0.8*j+0.2*nj)]"
                "  EU=(4.0, 0.5)") in listed


def test_cli_solve_json_golden(capsys):
    code, out, _ = run_cli(capsys, "--json", "solve", "prisoners_dilemma")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "schema": "causalgames/1",
        "command": "solve",
        "outcomes": [
            {
                "rules": {
                    "D1": {"": [0.0, 1.0]},
                    "D2": {"": [0.0, 1.0]},
                },
                "payoffs": [-2.0, -2.0],
            }
        ],
    }


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_COMMANDS = {
    "solve": "solve",
    "mech_graph": "mech-graph",
    "query": "query",
    "intervene": "intervene",
}
# scenarios that only the tests use; a golden names one by its stem
SCENARIOS = Path(__file__).parent / "scenarios"


def _golden_argv(stem):
    for prefix, command in GOLDEN_COMMANDS.items():
        if stem.startswith(prefix + "_"):
            name = stem[len(prefix) + 1:]
            local = SCENARIOS / f"{name}.scenario.yaml"
            return ["--json", command, str(local) if local.exists() else name]
    raise ValueError(f"golden {stem!r} names no command")


@pytest.mark.parametrize(
    "golden", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem
)
def test_cli_json_matches_golden(capsys, golden):
    code, out, _ = run_cli(capsys, *_golden_argv(golden.stem))
    assert code == 0
    pretty = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert pretty.encode() == golden.read_bytes()


def test_cli_commit(capsys):
    code, out, _ = run_cli(capsys, "commit", "stackelberg", "--leader", "1")
    assert code == 0
    assert "0.666666666667" in out
    assert "3.666666666667" in out


def test_cli_commit_json(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "commit", "stackelberg", "--leader", "1"
    )
    payload = json.loads(out)
    assert payload["leader_payoff"] == pytest.approx(11 / 3, abs=1e-9)
    assert payload["rule"][""][0] == pytest.approx(2 / 3, abs=1e-9)
    assert payload["mode"] == "exact"  # one solver; the key stays for the schema


def test_cli_commit_has_no_grid_flag(capsys):
    code, out, err = run_cli(capsys, "commit", "stackelberg", "--leader", "1", "--grid")
    assert code == 2
    assert out == ""
    assert "usage:" in err and "unrecognized arguments: --grid" in err


def test_cli_min_set(capsys):
    code, out, _ = run_cli(
        capsys, "min-set", "job_market", "--from", "PI_D1", "--to", "PI_D2"
    )
    assert code == 0
    assert out.strip() == "{D1}"


def test_cli_validate_ok_and_failure(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "validate", "job_market")
    assert code == 0 and "ok" in out
    bad = tmp_path / "bad.game.yaml"
    bad.write_text("agents: 1\nvariables: []\ncpds: {}\nnope: 1\n")
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "unknown key" in err


def test_cli_validate_refuses_a_decision_table(capsys, tmp_path):
    """The file format gives decisions no table: a pin is an intervention."""
    fixture = Path(causalgames.__file__).parent / "fixtures" / "stackelberg.game.yaml"
    text = fixture.read_text()
    assert "cpds:\n" in text
    bad = tmp_path / "pinned.game.yaml"
    bad.write_text(text.replace("cpds:\n", 'cpds:\n  D1: {"": T}\n'))
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(bad) in lines[0] and "D1" in lines[0]


@pytest.mark.parametrize(
    "old, new, message",
    [
        ('"": [0.5, 0.5]', '"": [.nan, 1.0]', "T: row () has a non-finite entry"),
        (
            "domain: [-2, -1, 0, 3]\n",
            "domain: [-2, -1, 0, 3, .inf]\n",
            "U2: utility domain must be finite",
        ),
        (  # a bool in the domain, used by no row
            "domain: [-2, -1, 0, 3]\n",
            "domain: [-2, -1, 0, 3, true]\n",
            "U2: utility domain must be numeric",
        ),
    ],
    ids=["nan_prior", "inf_utility", "bool_utility"],
)
def test_cli_validate_rejects_non_finite(capsys, tmp_path, old, new, message):
    fixture = Path(causalgames.__file__).parent / "fixtures" / "job_market.game.yaml"
    text = fixture.read_text()
    assert old in text
    bad = tmp_path / "bad.game.yaml"
    bad.write_text(text.replace(old, new))
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert run_cli(capsys, "solve", str(bad))[0] == 1


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("agent: 1\n", "agent: 1.5\n",
         "D1: decision variable needs an agent in 1..2; "
         "U1: utility variable needs an agent in 1..2"),
        ("agents: 2\n", "agents: true\n", "'agents' must be a positive integer"),
        ("parents: [D1]\n", "parents: D1\n", "D2: 'parents' must be a list, got 'D1'"),
        ('"": [0.5, 0.5]', '"": [a, 0.5]', "T: row '' must list numbers, got ['a', 0.5]"),
        ('"": [0.5, 0.5]', '"": [null, 1]', "T: row '' must list numbers, got [None, 1]"),
        ('"": [0.5, 0.5]', '"": [true, false]',
         "T: row '' must list numbers, got [True, False]"),
        ('"h,j": 3\n', '"h,j": 3\n    "h, j": -2\n', "U2: context 'h,j' given twice"),
        ('"h,j": 3\n', '"h,j": 3\n    "h,j": -2\n',
         "line 45, column 5: key 'h,j' given twice"),
        ("agents: 2\n", "agents: 2\nagents: 3\n",
         "line 7, column 1: key 'agents' given twice"),
    ],
    ids=["float_agent", "bool_agents", "string_parents", "string_entry",
         "null_entry", "bool_entry", "repeated_context", "repeated_row_key",
         "repeated_agents"],
)
def test_ill_typed_game_file_is_one_error_line(capsys, tmp_path, old, new, message):
    fixture = Path(causalgames.__file__).parent / "fixtures" / "job_market.game.yaml"
    text = fixture.read_text()
    assert old in text
    bad = tmp_path / "bad.game.yaml"
    bad.write_text(text.replace(old, new))
    with pytest.raises(GameFileError) as info:
        load_game(str(bad))
    assert message in str(info.value)
    code, out, err = run_cli(capsys, "solve", str(bad))
    assert code == 1
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ") and message in line


ADD_VAR_SCENARIO = """
game: pd.game.yaml
interventions:
  - label: add
    kind: add_var
    name: N
    domain: [x, y]
    rows: {rows}
"""


@pytest.mark.parametrize(
    "rows, message",
    [
        ('{"": z}', "N: value 'z' not in domain"),
        ("[1, 0]", "N: CPD must map contexts to rows or values"),
        ('{"": [x, y]}', "N: row '' must list numbers, got ['x', 'y']"),
    ],
    ids=["value_not_in_domain", "rows_not_a_mapping", "string_entries"],
)
def test_ill_typed_add_var_rows_is_one_error_line(
    capsys, tmp_path, prisoners, rows, message
):
    (tmp_path / "pd.game.yaml").write_text(serialize_game(prisoners))
    bad = tmp_path / "bad.scenario.yaml"
    bad.write_text(ADD_VAR_SCENARIO.format(rows=rows))
    code, out, err = run_cli(capsys, "intervene", str(bad))
    assert code == 1
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ") and message in line


def test_add_var_rows_take_a_bare_value(tmp_path, prisoners):
    """``add_var`` rows parse like game-file rows: a bare value is a point mass."""
    (tmp_path / "pd.game.yaml").write_text(serialize_game(prisoners))
    path = tmp_path / "s.scenario.yaml"
    path.write_text(ADD_VAR_SCENARIO.format(rows='{"": y}'))
    [(_, compound)] = load_scenario(str(path)).interventions
    [add] = compound.steps
    assert add.cpd == TabularCPD("N", (), {(): (0.0, 1.0)})


def test_validate_game_wants_int_agents():
    game = resolve_game("job_market")
    assert validate_game(replace(game, n_agents=True)) == [
        "'agents' must be a positive integer"
    ]
    variables = tuple(
        replace(v, agent=2.0) if v.name == "D2" else v for v in game.variables
    )
    assert validate_game(replace(game, variables=variables)) == [
        "D2: decision variable needs an agent in 1..2"
    ]


@pytest.mark.parametrize(
    "new, message",
    [
        ("1.5: [reward1, reward2]", "agent indices in 1..2, got 1.5"),
        ("true: [reward1, reward2]", "agent indices in 1..2, got True"),
        ("7: [reward1, reward2]", "agent indices in 1..2, got 7"),
        ("1: reward1", "agent 1 must be a list of labels, got 'reward1'"),
        ("1: [reward1, 2]", "agent 1 must be a list of labels, got ['reward1', 2]"),
        ("1: [reward1]\n  1: [reward1, reward2]",
         "line 24, column 3: key 1 given twice"),
    ],
    ids=["float_agent", "bool_agent", "unknown_agent", "string_labels",
         "int_label", "repeated_agent"],
)
def test_ill_typed_visibility_is_one_error_line(capsys, tmp_path, new, message):
    fixtures = Path(causalgames.__file__).parent / "fixtures"
    text = (fixtures / "reward_hidden.scenario.yaml").read_text()
    old = "1: [reward1, reward2]"
    assert old in text
    (tmp_path / "prisoners_dilemma.game.yaml").write_text(
        (fixtures / "prisoners_dilemma.game.yaml").read_text()
    )
    bad = tmp_path / "bad.scenario.yaml"
    bad.write_text(text.replace(old, new))
    with pytest.raises(GameFileError) as info:
        load_scenario(str(bad))
    assert message in str(info.value)
    code, out, err = run_cli(capsys, "query", str(bad))
    assert code == 1
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ") and message in line


def _one_entry_scenario(tmp_path, entry):
    """A scenario on the prisoners' dilemma whose one intervention is
    ``entry`` (YAML lines of the list item after its label)."""
    fixtures = Path(causalgames.__file__).parent / "fixtures"
    (tmp_path / "prisoners_dilemma.game.yaml").write_text(
        (fixtures / "prisoners_dilemma.game.yaml").read_text()
    )
    path = tmp_path / "bad.scenario.yaml"
    path.write_text(
        "game: prisoners_dilemma.game.yaml\n"
        "interventions:\n"
        "  - label: bad\n"
        + "".join(f"    {line}\n" for line in entry.splitlines())
        + 'query: "sampled: E[total]"\n'
    )
    return path


def _assert_one_error_line(capsys, path, message):
    with pytest.raises(GameFileError) as info:
        load_scenario(str(path))
    assert str(info.value) == f"{path}: {message}"
    code, out, err = run_cli(capsys, "query", str(path))
    assert code == 1
    assert out == ""
    [line] = err.splitlines()
    assert line == f"error: {path}: {message}"


@pytest.mark.parametrize(
    "entry, message",
    [
        ("kind: fix_object\nparents: []", "fix_object intervention needs 'target'"),
        ("kind: fix_mechanism\nvalue: C", "fix_mechanism intervention needs 'target'"),
        ("kind: add_var\ndomain: [a, b]", "add_var intervention needs 'name'"),
        ("kind: remove_var", "remove_var intervention needs 'name'"),
        ("kind: add_edge\nto: D1", "add_edge intervention needs 'from'"),
        ("kind: del_edge\nfrom: D1", "del_edge intervention needs 'to'"),
        ("kind: unfix", "unfix intervention needs 'of'"),
        ("kind: [fix_object]", "unknown intervention kind ['fix_object']"),
        ("kind: {fix_object: 1}", "unknown intervention kind {'fix_object': 1}"),
    ],
    ids=["fix_object", "fix_mechanism", "add_var", "remove_var", "add_edge",
         "del_edge", "unfix", "list_kind", "mapping_kind"],
)
def test_malformed_intervention_entry_is_one_error_line(capsys, tmp_path, entry, message):
    _assert_one_error_line(capsys, _one_entry_scenario(tmp_path, entry), message)


@pytest.mark.parametrize(
    "target, message",
    [
        ("X_D1", "'X_D1' is not a mechanism node name"),
        ("D1", "'D1' is not a mechanism node name"),
        ("PIX_D1", "'PIX_D1' is not a mechanism node name"),
        ("PI_D1_", "mechanism target 'PI_D1_' names no variable"),
    ],
)
def test_mechanism_target_is_resolved_by_its_prefix(capsys, tmp_path, target, message):
    entry = f"kind: fix_mechanism\ntarget: {target}\nvalue: C"
    _assert_one_error_line(capsys, _one_entry_scenario(tmp_path, entry), message)


@pytest.mark.parametrize(
    "entry, message",
    [
        ("kind: fix_mechanism\ntarget: THETA_D1\nvalue: C",
         "THETA_D1: decisions have rule nodes, not parameter nodes"),
        ("kind: fix_object\ntarget: ghost", "unknown variable 'ghost'"),
        ("kind: add_edge\nfrom: ghost\nto: D1", "unknown edge endpoint in ghost->D1"),
    ],
    ids=["theta_of_decision", "unknown_object", "unknown_edge_endpoint"],
)
def test_applier_refusal_names_the_scenario_file(capsys, tmp_path, entry, message):
    _assert_one_error_line(capsys, _one_entry_scenario(tmp_path, entry), message)


def test_non_text_label_is_one_error_line(capsys, tmp_path):
    """A label is matched as written, not turned into text: ``[a]`` is no
    label, even where a visibility list names ``"['a']"``."""
    path = _one_entry_scenario(tmp_path, "kind: fix_object\ntarget: D1\nvalue: C")
    text = path.read_text().replace("label: bad", "label: [a]")
    path.write_text(text + "visibility:\n  1: [\"['a']\"]\n")
    _assert_one_error_line(capsys, path, "intervention labels must be strings, got ['a']")


def _options_scenario(tmp_path, options):
    """A scenario on stackelberg asking ``forall ne: E[1] >= 2`` (True at the
    default tolerance) under ``options``, the YAML text of its value."""
    fixtures = Path(causalgames.__file__).parent / "fixtures"
    (tmp_path / "stackelberg.game.yaml").write_text(
        (fixtures / "stackelberg.game.yaml").read_text()
    )
    path = tmp_path / "opts.scenario.yaml"
    path.write_text(
        'game: stackelberg.game.yaml\nquery: "forall ne: E[1] >= 2"\n'
        f"options: {options}\n"
    )
    return path


@pytest.mark.parametrize(
    "options, message",
    [
        ("{epsilon: abc}", "option 'epsilon' must be a finite number of at least 0, got 'abc'"),
        ("{epsilon: .nan}", "option 'epsilon' must be a finite number of at least 0, got nan"),
        ("{epsilon: .inf}", "option 'epsilon' must be a finite number of at least 0, got inf"),
        ("{epsilon: -1}", "option 'epsilon' must be a finite number of at least 0, got -1"),
        ("{epsilon: true}", "option 'epsilon' must be a finite number of at least 0, got True"),
        ("{seed: abc}", "option 'seed' must be an integer, got 'abc'"),
        ("{seed: [1]}", "option 'seed' must be an integer, got [1]"),
        ("{seed: 1.5}", "option 'seed' must be an integer, got 1.5"),
        ("{seed: true}", "option 'seed' must be an integer, got True"),
        ("{agent_order: 5}", "option 'agent_order' must be a list of agent indices, got 5"),
        ("{agent_order: [1.0, 2]}",
         "option 'agent_order' must be a list of agent indices, got [1.0, 2]"),
        ('{mix_ties: "no"}', "option 'mix_ties' must be a boolean, got 'no'"),
        ("{merge_common: [1]}", "option 'merge_common' must be a boolean, got [1]"),
        ("{include_behavioral: 1}", "option 'include_behavioral' must be a boolean, got 1"),
        ("[1]", "'options' must be a mapping"),
    ],
    ids=["epsilon_text", "epsilon_nan", "epsilon_inf", "epsilon_negative",
         "epsilon_bool", "seed_text", "seed_list", "seed_float", "seed_bool",
         "agent_order_int", "agent_order_float", "mix_ties_text",
         "merge_common_list", "include_behavioral_int", "options_list"],
)
def test_ill_typed_option_is_one_error_line(capsys, tmp_path, options, message):
    _assert_one_error_line(capsys, _options_scenario(tmp_path, options), message)


def test_options_set_the_job_fields_of_their_names(capsys, tmp_path):
    """Each option reaches the ``QueryJob`` field of its name as written; an
    absent one keeps the field's default, and ``--seed``/``--epsilon`` win."""
    path = _options_scenario(
        tmp_path, "{epsilon: 0, seed: 3, mix_ties: true, agent_order: [2, 1]}"
    )
    no_flags = argparse.Namespace(seed=None, epsilon=None)
    job = _job_from_scenario(load_scenario(str(path)), no_flags)
    assert (job.epsilon, job.seed, job.mix_ties, job.agent_order) == (0, 3, True, [2, 1])
    assert (job.merge_common, job.include_behavioral) == (True, False)
    flags = argparse.Namespace(seed=5, epsilon=0.5)
    job = _job_from_scenario(load_scenario(str(path)), flags)
    assert (job.seed, job.epsilon) == (5, 0.5)
    code, out, _ = run_cli(capsys, "--json", "query", str(path))
    assert code == 0
    assert json.loads(out)["verdict"] is True


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "-1e-9"])
def test_cli_epsilon_must_be_a_tolerance(capsys, tmp_path, value):
    """``--epsilon`` keeps the scenario option's rule: at ``nan`` or ``-1``
    the verdict of ``forall ne: E[1] >= 2`` would flip to False."""
    path = _options_scenario(tmp_path, "{}")
    assert run_cli(capsys, "query", str(path))[1].startswith("verdict: True")
    code, out, err = run_cli(capsys, f"--epsilon={value}", "query", str(path))
    assert code == 2
    assert out == "" and "Traceback" not in err
    [line] = [line for line in err.splitlines() if "error:" in line]
    assert line.endswith(
        f"argument --epsilon: must be a finite number of at least 0, got {value!r}"
    )


def test_domain_value_with_comma_is_rejected(job_market, tmp_path):
    """A value no CPD context key can name fails validation, ``AddVariable``
    and the parser, each with a typed error."""
    variables = tuple(
        replace(v, domain=("j", "n,j")) if v.name == "D2" else v
        for v in job_market.variables
    )
    assert validate_game(replace(job_market, variables=variables)) == [
        "D2: domain value 'n,j' is empty or has a comma or surrounding whitespace"
    ]
    with pytest.raises(InterventionError, match="'b,c' is empty or has a comma"):
        apply_primitive(job_market, AddVariable(
            Variable("N", "chance", ("a", "b,c")), (), (),
            TabularCPD("N", (), {(): (0.5, 0.5)}),
        ))
    text = serialize_game(job_market).replace("- nj\n", "- n,j\n")
    assert "n,j" in text
    with pytest.raises(GameFileError):
        parse_game(text)


NAMED_VALUES = (
    "a", "b", "a b", "1", "true", "null", "x: y", "#c", "'q'",  # nameable
    "n,j", ",", " a", "b ", "",  # a comma, surrounding whitespace, empty
)


def _named_values_game(rng, values=None):
    """One or two chance variables, a decision and a utility, every
    non-utility domain drawn from ``values()``, by default from
    ``NAMED_VALUES``."""
    def named():
        return tuple(rng.sample(NAMED_VALUES, rng.randint(1, 3)))

    values = values or named

    names = [f"X{i}" for i in range(rng.randint(1, 2))]
    variables, parents, cpds = [], {}, {}
    for i, x in enumerate(names):
        variables.append(Variable(x, "chance", values()))
        parents[x] = tuple(rng.sample(names[:i], rng.randint(0, i)))
    variables.append(Variable("D", "decision", values(), 1))
    parents["D"] = tuple(rng.sample(names, rng.randint(0, len(names))))
    variables.append(Variable("U", "utility", (0, 1), 1))
    parents["U"] = ("D", rng.choice(names))
    domains = {v.name: v.domain for v in variables}
    for name in names + ["U"]:
        n = len(domains[name])
        cpds[name] = TabularCPD(name, parents[name], {
            ctx: (1.0 / n,) * n
            for ctx in itertools.product(*[domains[p] for p in parents[name]])
        })
    return CausalGame(1, tuple(variables), parents, cpds)


def test_every_accepted_game_round_trips():
    """Each game ``validate_game`` accepts parses back from what
    ``serialize_game`` writes; domain values with a comma, surrounding
    whitespace or no characters are refused."""
    accepted = rejected = 0
    for seed in range(400):
        game = _named_values_game(random.Random(seed))
        if validate_game(game):
            rejected += 1
            continue
        accepted += 1
        assert games_equal(parse_game(serialize_game(game)), game), seed
    assert accepted > 20 and rejected > 20


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_arbitrary_text_values_round_trip_or_fail_typed(rng, data):
    """Arbitrary text domain values: a game ``validate_game`` accepts comes
    back from ``serialize_game`` and ``parse_game`` equal, and writing and
    reading one it refuses raises a ``GameError``, never another exception."""
    domains = st.lists(st.text(max_size=4), min_size=1, max_size=3).map(tuple)
    game = _named_values_game(rng, lambda: data.draw(domains))
    if validate_game(game):
        with pytest.raises(GameError):
            parse_game(serialize_game(game))
    else:
        assert games_equal(parse_game(serialize_game(game)), game)


def test_serialize_refuses_non_text_values():
    """The parser reads chance and decision values as text, so a game with
    other values would not round-trip."""
    game = random_multi_decision_game(random.Random(0))
    assert game.domain("X") == (0, 1) and not validate_game(game)
    with pytest.raises(GameFileError, match=r"^X: only text chance values"):
        serialize_game(game)


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_output_pipe_exits_quietly(json_mode, unbuffered):
    argv = ["--json"] * json_mode + ["solve", "job_market", "--behavioral"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(causalgames.__file__).parents[1])
    if unbuffered:  # each print writes at once; otherwise the last flush does
        env["PYTHONUNBUFFERED"] = "1"
    with subprocess.Popen(
        [sys.executable, "-m", "causalgames.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    ) as proc:  # closes both pipes on the way out
        proc.stdout.close()  # before the child can write a byte
        err = proc.stderr.read()
        assert proc.wait() == 1
    assert err == ""  # no traceback


def test_cli_queries_reproduce_reference_values(capsys):
    for scenario, expected in (
        ("commitment_revealed", "3.0"),
        ("commitment_private", "2.0"),
        ("reward_hidden", "-4.5"),
        ("reward_reversed", "-4.5"),
        ("effortville_policy", "True"),
    ):
        code, out, _ = run_cli(capsys, "query", scenario)
        assert code == 0
        assert f"verdict: {expected}" in out


@pytest.mark.parametrize(
    "body",
    [
        "not " * 3000 + "E[1] >= 0",
        "- " * 3000 + "E[1] <= 100",
        " + ".join(["E[1]"] * 3000) + " >= -1e9",
        " and ".join(["E[1] >= -10"] * 3000),
    ],
    ids=["not_3000", "minus_3000", "sum_3000", "and_3000"],
)
def test_cli_query_length_is_unlimited(capsys, tmp_path, body):
    """The parent's parser and evaluator recursed once per ``not``, unary
    ``-`` or binary operator, and these ended in ``RecursionError``."""
    fixtures = Path(causalgames.__file__).parent / "fixtures"
    (tmp_path / "pd.game.yaml").write_text(
        (fixtures / "prisoners_dilemma.game.yaml").read_text()
    )
    path = tmp_path / "long.scenario.yaml"
    path.write_text(f'game: pd.game.yaml\nquery: "forall ne: {body}"\n')
    code, out, err = run_cli(capsys, "query", str(path))
    assert (code, err) == (0, "")
    assert out.startswith("verdict: ")


def test_cli_query_seed_stable(capsys):
    _, out1, _ = run_cli(capsys, "--json", "query", "reward_hidden", "--seed", "11")
    _, out2, _ = run_cli(capsys, "--json", "query", "reward_hidden", "--seed", "11")
    assert out1 == out2


def test_cli_side_effects_and_invariant(capsys, tmp_path):
    scenario = tmp_path / "hide.scenario.yaml"
    game = resolve_game("job_market")
    (tmp_path / "jm.game.yaml").write_text(serialize_game(game))
    scenario.write_text(
        """
game: jm.game.yaml
interventions:
  - label: hide
    kind: del_edge
    from: D1
    to: D2
"""
    )
    code, out, _ = run_cli(capsys, "side-effects", str(scenario))
    assert code == 0
    assert "removed: PI_D1 -> PI_D2" in out
    code, out, _ = run_cli(capsys, "invariant", str(scenario))
    assert code == 0
    assert "incentive invariant: False" in out


def test_cli_intervene_round_trip(capsys, tmp_path):
    (tmp_path / "jm.game.yaml").write_text(
        serialize_game(resolve_game("job_market"))
    )
    scenario = tmp_path / "env.scenario.yaml"
    scenario.write_text(
        """
game: jm.game.yaml
interventions:
  - label: env
    kind: fix_mechanism
    target: THETA_T
    value: h
"""
    )
    code, out, _ = run_cli(capsys, "intervene", str(scenario))
    assert code == 0
    reparsed = parse_game(out)
    assert reparsed.cpds["T"].row(()) == (1.0, 0.0)


def test_cli_edge_edit_keeps_a_pinned_decision(capsys, tmp_path):
    (tmp_path / "st.game.yaml").write_text(
        serialize_game(resolve_game("stackelberg"))
    )
    scenario = tmp_path / "see.scenario.yaml"
    scenario.write_text(
        """
game: st.game.yaml
interventions:
  - {label: pin, kind: fix_object, target: D2, value: R}
  - {label: see, kind: add_edge, from: D1, to: D2}
"""
    )
    code, out, _ = run_cli(capsys, "--json", "intervene", str(scenario))
    assert code == 0
    game = json.loads(out)["game"]
    assert game["object_fixed"] == ["D2"]
    assert game["cpds"]["D2"] == {"B": [0.0, 1.0], "T": [0.0, 1.0]}


def test_cli_query_on_a_rewired_realized_decision_is_one_error_line(capsys, tmp_path):
    """Agent 1 fixes D1's rule over ``(T,)``; agent 2's stage gives D1 the
    new parent N, so no stage resolves D1 in the final game."""
    (tmp_path / "jm.game.yaml").write_text(serialize_game(resolve_game("job_market")))
    scenario = tmp_path / "noise.scenario.yaml"
    scenario.write_text(
        """
game: jm.game.yaml
interventions:
  - {label: noise, kind: add_var, name: N, domain: [a, b], children: [D1],
     rows: {"": [0.5, 0.5]}}
visibility:
  2: [noise]
query: "forall ne: E[1] >= -100"
"""
    )
    code, out, err = run_cli(capsys, "query", str(scenario))
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: decision D1 was never resolved by any stage"]


def test_cli_query_on_a_retyped_parent_is_one_error_line(capsys):
    code, out, err = run_cli(
        capsys, "query", str(SCENARIOS / "retyped_parent.scenario.yaml")
    )
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: decision D1 was never resolved by any stage"]


def test_cli_mech_graph(capsys):
    code, out, _ = run_cli(capsys, "mech-graph", "job_market")
    assert code == 0
    assert out.startswith("digraph G {")


def test_cli_json_mech_graph_builds_once(monkeypatch, capsys):
    from causalgames import dot, graphs

    calls = []
    original = graphs.build_mechanised_graph

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (dot, graphs):  # the CLI reads it from ``graphs``
        monkeypatch.setattr(module, "build_mechanised_graph", counted)
    code, out, _ = run_cli(capsys, "--json", "mech-graph", "job_market")
    assert code == 0
    assert len(calls) == 1
    payload = json.loads(out)
    assert payload["dot"] == export_dot(resolve_game("job_market"), "mechanised")
    assert payload["inter_mechanism_edges"]


# every module of the package but the eager ``cli``: one left out of
# ``_EXPORTS`` would be imported eagerly, which the registration test catches
LAYERS = tuple(sorted(
    path.stem for path in Path(causalgames.__file__).parent.glob("*.py")
    if path.stem not in ("__init__", "cli")
))
# the layers every command reads, which importing the CLI runs
COMMON_LAYERS = {"errors", "model", "gamefile"}


def _modules_after(commands, modules, code=0) -> dict:
    """Which of ``modules`` a fresh process holds in ``sys.modules`` after
    importing the CLI and running each of ``commands`` through ``main``,
    each exiting with ``code``, each mapped to whether its code has run.  A
    layer registered but not yet run is a lazy module, not a plain one."""
    script = (
        "import contextlib, io, json, sys, types\n"
        "from causalgames.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert main(argv) == {code}, argv\n"
        f"print(json.dumps({{m: type(sys.modules[m]) is types.ModuleType\n"
        f"                  for m in {modules!r} if m in sys.modules}}))\n"
    )
    src = str(Path(causalgames.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _loaded_after(commands, modules, code=0) -> set:
    """Which of ``modules`` have run in such a process."""
    return {m for m, ran in _modules_after(commands, modules, code).items() if ran}


GRAPH_ONLY_COMMANDS = [
    ["validate", "job_market"],
    ["--json", "mech-graph", "job_market"],
    ["min-set", "job_market", "--from", "PI_D1", "--to", "PI_D2"],
    ["intervene", "reward_hidden"],
    ["side-effects", "reward_hidden"],
    ["invariant", "reward_hidden"],
]


def test_cli_commands_never_import_networkx():
    commands = GRAPH_ONLY_COMMANDS + [
        ["solve", "--behavioral", "effortville"],
        ["query", "commitment_revealed"],
        ["commit", "stackelberg", "--leader", "1"],
    ]
    assert _loaded_after(commands, ["networkx"]) == set()


def test_graph_api_runs_without_networkx():
    """With networkx unimportable, the package imports and every graph
    analysis and DOT view runs on ``job_market``."""
    script = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "from causalgames import (FixObject, TabularCPD, build_mechanised_graph,\n"
        "    export_dot, incentive_invariant, minimum_intervention_set,\n"
        "    predicted_edge_removals, reachability_paths, relevant_mechanisms)\n"
        "from causalgames.cli import resolve_game\n"
        "game = resolve_game('job_market')\n"
        "fix = FixObject('D1', (), TabularCPD.delta('D1', 'g', game.domain('D1')))\n"
        "assert build_mechanised_graph(game).inter_mechanism_edges\n"
        "assert 'PI_D1' in relevant_mechanisms(game, 'PI_D2')\n"
        "assert reachability_paths(game, 'PI_D1', 'PI_D2')\n"
        "assert predicted_edge_removals(game, fix)\n"
        "assert minimum_intervention_set(game, 'PI_D1', 'PI_D2') == ('D1',)\n"
        "assert incentive_invariant(game, fix) is False\n"
        "for which in ('object', 'mechanised', 'independent_mechanised'):\n"
        "    assert export_dot(game, which).startswith('digraph G {')\n"
        "print('ok')\n"
    )
    src = str(Path(causalgames.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stdout) == (0, "ok\n"), done.stderr


def test_graph_only_commands_never_import_numpy():
    assert _loaded_after(GRAPH_ONLY_COMMANDS, ["numpy"]) == set()


def test_commands_never_import_dataclasses_and_graph_only_ones_nor_inspect():
    """Records become dataclasses on first introspection, which no command
    makes; numpy imports ``inspect``, so only the graph-only commands run
    without it."""
    assert _loaded_after(GRAPH_ONLY_COMMANDS, ["dataclasses", "inspect"]) == set()
    solvers = [["solve", "job_market"], ["commit", "stackelberg", "--leader", "1"],
               ["query", "commitment_revealed"]]
    assert _loaded_after(solvers, ["dataclasses"]) == set()


def test_refused_commitment_never_imports_numpy():
    argv = ["commit", "job_market", "--leader", "1"]  # D1 has two contexts
    assert _loaded_after([argv], ["numpy"], code=1) == set()


@pytest.mark.parametrize(
    "argv",
    [["solve", "job_market"], ["query", "commitment_revealed"],
     ["commit", "stackelberg", "--leader", "1"]],
    ids=["solve", "query", "commit"],
)
def test_solver_commands_import_numpy(argv):
    assert _loaded_after([argv], ["numpy"]) == {"numpy"}


def test_cli_import_registers_every_layer_but_runs_only_the_common_ones():
    """Every layer is in ``sys.modules`` once the CLI is imported, where the
    benchmark tracer looks them up; only those every command reads have
    run."""
    layers = [f"causalgames.{layer}" for layer in LAYERS]
    assert _modules_after([], layers + ["numpy"]) == {
        f"causalgames.{layer}": layer in COMMON_LAYERS for layer in LAYERS
    }


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["validate", "job_market"], set()),
        (["--json", "mech-graph", "job_market"], {"graphs", "dot"}),
        (["solve", "job_market"], {"equilibrium", "kernel"}),
        (["commit", "stackelberg", "--leader", "1"], {"equilibrium", "kernel"}),
        (["intervene", "reward_hidden"], {"scenarios", "interventions"}),
        (["side-effects", "reward_hidden"], {"scenarios", "interventions", "graphs"}),
        (["invariant", "reward_hidden"], {"scenarios", "interventions", "graphs"}),
        (["min-set", "job_market", "--from", "PI_D1", "--to", "PI_D2"],
         {"interventions", "graphs"}),
        (["query", "commitment_revealed"],
         {"scenarios", "interventions", "equilibrium", "kernel", "queries"}),
    ],
    ids=["validate", "mech-graph", "solve", "commit", "intervene",
         "side-effects", "invariant", "min-set", "query"],
)
def test_each_command_runs_only_the_layers_it_reads(argv, layers):
    assert _loaded_after([argv], [f"causalgames.{m}" for m in LAYERS]) == {
        f"causalgames.{m}" for m in COMMON_LAYERS | layers
    }


def test_cli_module_runs_without_warnings():
    """``cli`` is not registered lazily: run as ``-m``, a module already in
    ``sys.modules`` makes runpy warn."""
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "causalgames.cli",
         "--json", "validate", "job_market"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(causalgames.__file__).parents[1])},
    )
    assert (done.returncode, done.stderr) == (0, "")


def test_cli_import_generates_no_dataclass_code():
    """Records get shared methods: importing the CLI and running every
    layer (by reading each exported name) makes no ``exec`` call from
    ``dataclasses.py``, which ``dataclass(frozen=True)`` makes six times per
    class."""
    script = (
        "import builtins, json, sys\n"
        "real_exec, callers = builtins.exec, []\n"
        "def spy(*args, **kwargs):\n"
        "    callers.append(sys._getframe(1).f_code.co_filename)\n"
        "    return real_exec(*args, **kwargs)\n"
        "builtins.exec = spy\n"
        "import causalgames.cli\n"
        "for name in causalgames.__all__:\n"
        "    getattr(causalgames, name)\n"
        "print(json.dumps(callers))\n"
    )
    src = str(Path(causalgames.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    callers = json.loads(done.stdout)
    assert [c for c in callers if Path(c).name == "dataclasses.py"] == []


def test_cli_exit_codes(capsys):
    code, _, err = run_cli(capsys, "solve", "no_such_game")
    assert code == 1
    assert "error:" in err
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2
    code, _, _ = run_cli(capsys)
    assert code == 2


def test_cli_solve_past_numpys_limits_is_one_error_line(capsys, tmp_path):
    """A valid game whose contraction numpy cannot represent: ``validate``
    passes, ``solve`` prints one ``error:`` line naming the limit."""
    path = tmp_path / "fan.game.yaml"
    path.write_text(serialize_game(fan_game(62, decision=True)))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0 and "ok" in out
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 1
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ") and "numpy" in line


def test_deep_chain_validates_and_joins_without_recursion(tmp_path):
    n = 1200
    names = [f"X{i}" for i in range(n)]
    copy_row = {("a",): (1.0, 0.0), ("b",): (0.0, 1.0)}
    game = CausalGame(
        1,
        tuple(Variable(x, "chance", ("a", "b")) for x in names),
        {x: names[max(i - 1, 0):i] for i, x in enumerate(names)},
        {
            x: TabularCPD(x, tuple(names[max(i - 1, 0):i]), copy_row if i else {(): (1.0, 0.0)})
            for i, x in enumerate(names)
        },
    )
    path = tmp_path / "deep.game.yaml"
    path.write_text(serialize_game(game))
    src = str(Path(causalgames.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "causalgames.cli", "validate", str(path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0
    assert "Traceback" not in done.stderr
    joint = induced_joint(game, PolicyProfile({}))
    assert list(joint.table.values()) == [1.0]
    assert next(iter(joint.table)) == ("a",) * n


def test_deep_chain_min_set_without_recursion(tmp_path):
    path = tmp_path / "chain.game.yaml"
    path.write_text(serialize_game(chain_to_utility_game(1200)))
    src = str(Path(causalgames.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "causalgames.cli", "min-set", str(path),
         "--from", "THETA_X0", "--to", "PI_D"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert "Traceback" not in done.stderr
    assert done.returncode == 0
    assert done.stdout.strip() == "{U}"


def test_min_set_past_witness_path_budget_is_one_error_line(tmp_path, monkeypatch, capsys):
    from causalgames import graphs

    path = tmp_path / "dense.game.yaml"
    path.write_text(serialize_game(dense_to_utility_game(10)))
    argv = ("min-set", str(path), "--from", "THETA_X0", "--to", "PI_D")
    assert run_cli(capsys, *argv)[:2] == (0, "{U}\n")
    monkeypatch.setattr(graphs, "ENUM_BUDGET", 100)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: would enumerate more than ")
    assert lines[0].endswith("witness paths; budget 100")


# -- README ----------------------------------------------------------------------


def test_readme_library_example_runs():
    """The README's library example runs as printed and ends with ``True``."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    src = str(Path(causalgames.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "True"


# Exported only for the benchmark tracer, which patches them by name until
# the library keeps its own stats record.
TRACER_EXPORTS = {"BEST_RESPONSE", "RationalityRelation", "JointDistribution", "induced_joint"}


def test_every_export_has_a_caller():
    """Every name ``causalgames`` exports is used by another module of the
    package, named in README code, or waits on the benchmark tracer."""
    package = Path(causalgames.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    used.update(alias.name for alias in node.names)
    readme = (Path(__file__).parents[1] / "README.md").read_text().split("```")
    # fenced blocks are the odd pieces; inline code spans lie in the others
    code = readme[1::2] + [span for text in readme[::2] for span in re.findall(r"`([^`]+)`", text)]
    named = set(re.findall(r"\w+", " ".join(code)))
    exported = [n for names in causalgames._EXPORTS.values() for n in names]
    assert len(exported) >= 66
    assert [n for n in exported if n not in used | named | TRACER_EXPORTS] == []


def test_every_export_resolves_from_its_layer():
    """The package reads each exported name from its layer, lists it in
    ``dir`` and ``__all__``, and refuses a name it does not export."""
    for layer, names in causalgames._EXPORTS.items():
        module = getattr(causalgames, layer)
        for name in names:
            assert getattr(causalgames, name) is getattr(module, name)
    assert set(causalgames.__all__) <= set(dir(causalgames))
    star = {}
    exec("from causalgames import *", star)
    assert set(star) - {"__builtins__"} == set(causalgames.__all__)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        causalgames.no_such_name
