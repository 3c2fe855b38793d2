"""A well-formed command imports only what it runs.

A shell command is one process, which pays for every module the package
imports before it values anything. `dataclasses` (with `inspect`),
`argparse` and `datetime` are not needed by a well-formed command: argparse
is imported only for an argv that leaves the exact parse path, and datetime
only for a JSON run that is not --deterministic. `csv` is imported only where
a CSV is read or written, so table and JSON commands leave it out. This
runs the commands in a fresh interpreter and compares its modules with
those loaded before the package was imported, since what `site` loads
differs between machines.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import assetval

CODE = """
import io, json, sys
before = set(sys.modules)
from assetval.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv, out=io.StringIO()) == 0, argv
print(json.dumps(sorted(set(sys.modules) - before)))
"""

COMMANDS = [
    ["value", "--cost", "100", "--life", "10", "--rate", "0.2", "--age", "5"],
    ["schedule", "--cost", "100", "--life", "10", "--method", "sl", "--format", "csv"],
    ["value", "--cost", "100", "--life", "10", "--rate", "0.2", "--format", "json", "--deterministic"],
]

UNUSED = {"dataclasses", "inspect", "argparse", "datetime"}


def added_modules(commands):
    env = {**os.environ, "PYTHONPATH": str(Path(assetval.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", CODE, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_well_formed_commands_import_none_of_the_unused_modules():
    added = added_modules(COMMANDS)
    assert "assetval.cli" in added
    assert not added & UNUSED, sorted(added & UNUSED)


def test_an_unusual_argv_and_a_timestamp_import_what_they_use():
    added = added_modules([["value", "--cost=100", "--life", "10", "--rate", "0.2"],
                           ["value", "--cost", "100", "--life", "10", "--rate", "0.2", "--format", "json"]])
    assert {"argparse", "datetime"} <= added


# Each single-asset command's table and JSON forms: none reads or writes a CSV.
TABLE_AND_JSON = [[*argv, "--format", fmt, "--deterministic"] for fmt in ("table", "json") for argv in (
    ["value", "--cost", "100", "--life", "10", "--rate", "0.2", "--detail"],
    ["schedule", "--cost", "100", "--life", "10", "--method", "sl"],
    ["compare", "--cost", "100", "--life", "10", "--methods", "sl,intrinsic", "--rate", "0.2"],
    ["sweep", "--cost", "100", "--life", "10", "--rates", "0.05,20%"],
    ["surplus", "--cost", "100", "--life", "10", "--age", "5", "--seller-rate", "0.05",
     "--buyer-rate", "0.2"],
)]


def test_table_and_json_commands_do_not_import_csv(tmp_path):
    """Nor does a batch over a JSON registry, whose table form writes JSON."""
    registry = tmp_path / "assets.json"
    registry.write_text('[{"id": "a", "cost": 100, "lifetime": 10, "rate": 0.2}]')
    batches = [["batch", "--input", str(registry), "--format", fmt, "--deterministic"]
               for fmt in ("table", "json")]
    assert "csv" not in added_modules(TABLE_AND_JSON + batches)
    registry = registry.with_suffix(".csv")
    registry.write_text("id,cost,lifetime,rate\na,100,10,0.2\n")
    for argv in (["sweep", "--cost", "100", "--life", "10", "--rates", "0.05", "--format", "csv"],
                 ["batch", "--input", str(registry), "--format", "json", "--deterministic"]):
        assert "csv" in added_modules([argv]), argv
