"""Every subcommand's output validates against its schema under ``schemas/``,
and every schema there describes the output of some command."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import jsonschema
import pytest

from rrdlab.cli import _build_parser, main

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schemas"

# one invocation per subcommand, with the schema its output follows
COMMANDS = {
    "spheres": (["spheres", "--max-length", "2"], "sphere-table.schema.json"),
    "condition1": (["condition1", "--max-length", "2"], "envelope.schema.json"),
    "uniform-bound": (
        ["uniform-bound", "--max-length", "2", "--n", "2"],
        "envelope.schema.json",
    ),
    "opnorm": (
        ["opnorm", "--max-length", "2", "--n", "0", "--radius", "2"],
        "envelope.schema.json",
    ),
    "lamplighter": (["lamplighter", "--radius", "6"], "envelope.schema.json"),
    "report": (
        ["report", "--q", "2", "--max-length", "2", "--depth", "1"],
        "verdict.schema.json",
    ),
}


def load_validator(name: str):
    schema = json.loads((SCHEMA_DIR / name).read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def test_every_subcommand_is_covered():
    (subcommands,) = (
        action.choices
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert set(subcommands) == set(COMMANDS)


def test_every_schema_is_used():
    assert {p.name for p in SCHEMA_DIR.glob("*.schema.json")} == {
        schema for _, schema in COMMANDS.values()
    }


def test_envelope_schema_names_its_commands():
    schema = json.loads((SCHEMA_DIR / "envelope.schema.json").read_text())
    assert sorted(schema["properties"]["command"]["enum"]) == sorted(
        command for command, (_, name) in COMMANDS.items() if name == "envelope.schema.json"
    )


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_output_validates(tmp_path_factory, capsys, command):
    argv, schema = COMMANDS[command]
    cache = tmp_path_factory.getbasetemp() / "schema-cache"
    if argv[0] in ("spheres", "condition1", "uniform-bound", "opnorm", "report"):
        argv = argv + ["--cache-dir", str(cache)]
    code = main(argv)
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    load_validator(schema).validate(document)
