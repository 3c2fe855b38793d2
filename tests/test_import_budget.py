"""A well-formed command imports only what it runs.

A shell command is one process, which pays for every module the package
imports before it values anything. `dataclasses` (with `inspect`),
`argparse` and `datetime` are not needed by a well-formed command: argparse
is imported only for an argv that leaves the exact parse path, and datetime
only for a JSON run that is not --deterministic. A CSV is written with
`_csv`, which imports nothing, and `csv` is imported only to read a CSV
registry, so no single-asset command imports it. `json` is imported only to
read a JSON registry, and `re` only to write a money list as JSON or
(through `csv`) to read a CSV registry. This runs the
commands in a fresh interpreter and compares its modules with those loaded
before the package was imported, since what `site` loads differs between
machines. `typing` is loaded with that baseline: the package's named tuples
still import it (ROADMAP item 9), and before Python 3.13 it imports `re`.
"""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import assetval
from assetval import cli

# The argv lists come as a literal for eval, so that nothing but the package is
# imported between the snapshot and the commands; json is imported only to print.
CODE = """
import io, sys, typing
before = set(sys.modules)
from assetval.cli import main
for argv in eval(sys.argv[1]):
    assert main(argv, out=io.StringIO()) == 0, argv
added = sorted(set(sys.modules) - before)
import json
print(json.dumps(added))
"""

COMMANDS = [
    ["value", "--cost", "100", "--life", "10", "--rate", "0.2", "--age", "5"],
    ["schedule", "--cost", "100", "--life", "10", "--method", "sl", "--format", "csv"],
    ["value", "--cost", "100", "--life", "10", "--rate", "0.2", "--format", "json", "--deterministic"],
]

UNUSED = {"dataclasses", "inspect", "argparse", "datetime", "json"}


def added_modules(commands):
    env = {**os.environ, "PYTHONPATH": str(Path(assetval.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", CODE, repr(commands)], env=env,
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


SINGLE_ASSET = (
    ["value", "--cost", "100", "--life", "10", "--rate", "0.2", "--detail"],
    ["schedule", "--cost", "100", "--life", "10", "--method", "sl"],
    ["compare", "--cost", "100", "--life", "10", "--methods", "sl,intrinsic", "--rate", "0.2"],
    ["sweep", "--cost", "100", "--life", "10", "--rates", "0.05,20%"],
    ["surplus", "--cost", "100", "--life", "10", "--age", "5", "--seller-rate", "0.05",
     "--buyer-rate", "0.2"],
)
# Each single-asset command's table and JSON forms: none reads or writes a CSV.
TABLE_AND_JSON = [[*argv, "--format", fmt, "--deterministic"] for fmt in ("table", "json")
                  for argv in SINGLE_ASSET]
CSV = [[*argv, "--format", "csv"] for argv in SINGLE_ASSET]


def test_table_and_json_commands_do_not_import_csv(tmp_path):
    """Nor does a batch over a JSON registry, whose table form writes JSON; CSV
    commands write with _csv alone."""
    registry = tmp_path / "assets.json"
    registry.write_text('[{"id": "a", "cost": 100, "lifetime": 10, "rate": 0.2}]')
    batches = [["batch", "--input", str(registry), "--format", fmt, "--deterministic"]
               for fmt in ("table", "json")]
    assert "csv" not in added_modules(TABLE_AND_JSON + batches)
    added = added_modules(CSV)
    assert "_csv" in added and "csv" not in added
    registry = registry.with_suffix(".csv")
    registry.write_text("id,cost,lifetime,rate\na,100,10,0.2\n")
    assert "csv" in added_modules([["batch", "--input", str(registry), "--format", "json",
                                    "--deterministic"]])


def test_json_is_imported_only_to_read_a_registry_and_re_only_for_money_lists(tmp_path):
    """Table and CSV commands and value's and surplus's JSON (no money list)
    import neither; every single-asset command leaves json out, and a batch
    over a JSON registry reads it with json."""
    plain = CSV + [argv for argv in TABLE_AND_JSON
                   if "table" in argv or argv[0] in ("value", "surplus")]
    assert not added_modules(plain) & {"json", "re"}
    assert "json" not in added_modules(TABLE_AND_JSON)
    registry = tmp_path / "assets.json"
    registry.write_text('[{"id": "a", "cost": 100, "lifetime": 10, "rate": 0.2}]')
    assert "json" in added_modules([["batch", "--input", str(registry), "--format", "csv"]])


def test_the_json_string_encoder_is_json_encoders_own():
    assert cli._json_str is json.encoder.encode_basestring_ascii


def test_csv_lines_are_the_csv_modules_own():
    """_csv_line binds _csv's writer, with no dialect: its lines are csv.writer's."""
    rows = [["a,b", 'say "hi"', "cr\rcr", "lf\nlf", "crlf\r\n", "", "é€😀", "x"],
            ['"', ",", "\r", "\n", " lead", "trail ", "%", "-0.0000"]]
    sink = io.StringIO()
    csv.writer(sink, lineterminator="\r\n").writerows(rows)
    assert "".join(map(cli._csv_line(), rows)) == sink.getvalue()
