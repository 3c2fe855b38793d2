"""Golden outputs of every CLI command in every format.

Each valid case runs `assetval` in process with --deterministic and
compares stdout and the exit code byte for byte with `cli_golden.txt`.
The --help text of `assetval` and of each subcommand, at 80 columns, is
compared the same way with `cli_help.txt`, except its usage block: that is
compared with its lines joined and runs of whitespace collapsed, because
argparse wraps usage differently across Python versions (3.13 keeps an
option and its metavar on one line). Error cases check the exit
code, an empty stdout and that stderr names the flag at fault; their
wording is free to change.

After an intended change of output, rewrite the goldens and review the
diff:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import io
import json
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from assetval.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.txt")
HELP_GOLDEN = Path(__file__).with_name("cli_help.txt")
FORMATS = ("table", "csv", "json")

GOOD_CSV = """\
id,cost,lifetime,rate,age
forklift,100,10,0.2,5
press,50000,3,8%,
van,2500.5,4,0,1.5
"""

# One record of each malformed kind, between valid ones.
MIXED_CSV = """\
id,cost,lifetime,rate,age
forklift,100,10,0.2,5
neg,-5,10,0.2,
zero,0,10,0.2,
old,100,10,0.2,11
badrate,100,10,abc,
badlife,100,ten,0.2,
frac,100,7.5,0.2,
,100,10,0.2,
press,50000,3,8%,
forklift,100,10,0.2,1
"""

MIXED_JSON = json.dumps([
    {"id": "forklift", "cost": 100, "lifetime": 10, "rate": 0.2, "age": 5},
    {"id": "neg", "cost": -5, "lifetime": 10, "rate": 0.2},
    {"id": "zero", "cost": 0, "lifetime": 10, "rate": 0.2},
    {"id": "old", "cost": 100, "lifetime": 10, "rate": 0.2, "age": 11},
    {"id": "badrate", "cost": 100, "lifetime": 10, "rate": "n/a"},
    {"id": "badlife", "cost": 100, "lifetime": "ten", "rate": 0.2},
    {"id": "frac", "cost": 100, "lifetime": 7.5, "rate": 0.2},
    {"id": "  ", "cost": 100, "lifetime": 10, "rate": 0.2},
    {"id": "press", "cost": 50000, "lifetime": 3, "rate": "8%"},
    {"id": "forklift", "cost": 100, "lifetime": 10, "rate": 0.2, "age": 1},
])

# Every record fails, so the report's entries are empty and its errors not.
INVALID_JSON = json.dumps([
    {"id": "neg", "cost": -5, "lifetime": 10, "rate": 0.2},
    {"id": "", "cost": 100, "lifetime": 10, "rate": 0.2},
    {"id": "old", "cost": 100, "lifetime": 10, "rate": 0.2, "age": 11},
])

# Short rows, a long row and null or absent fields, between valid ones.
RAGGED_CSV = """\
id,cost,lifetime,rate,age
short,100
noage,100,3,0.2
long,100,3,0.2,1,EXTRA
nocost
forklift,100,10,0.2,5
"""

RAGGED_JSON = json.dumps([
    {"id": "nullcost", "cost": None, "lifetime": 10, "rate": 0.2},
    {"id": "norate", "cost": 100, "lifetime": 10},
    {"id": "nullage", "cost": 100, "lifetime": 3, "rate": 0.2, "age": None},
])

REGISTRIES = {
    "good.csv": GOOD_CSV,
    "mixed.csv": MIXED_CSV,
    "mixed.json": MIXED_JSON,
    "header_only.csv": "id,cost,lifetime,rate,age\n",
    "invalid.json": INVALID_JSON,
    "ragged.csv": RAGGED_CSV,
    "ragged.json": RAGGED_JSON,
    "bad_header.csv": "name,price\nx,1\n",
    "broken.json": "[{",
    "assets.xml": "<assets/>",
    "latin1.csv": b"id,cost,lifetime,rate,age\ncaf\xe9,100,10,0.2,0\n",
    "latin1.json": b'[{"id": "caf\xe9", "cost": 100, "lifetime": 10, "rate": 0.2}]',
    # one cell over csv's default field size limit of 131,072 characters
    "huge_cell.csv": "id,cost,lifetime,rate,age\n" + "x" * 131_073 + ",100,10,0.2,0\n",
    # nested deeper than the json module's recursion limit
    "deep.json": "[" * 100_000 + "]" * 100_000,
}

ASSET = ["--cost", "100", "--life", "10"]

# Each runs in every format with --deterministic.
VALID = {
    "value": ["value", *ASSET, "--rate", "0.2", "--age", "5"],
    "value-detail": ["value", *ASSET, "--rate", "0.2", "--age", "5", "--detail"],
    "value-rate0": ["value", *ASSET, "--rate", "0", "--age", "4"],
    "value-percent": ["value", *ASSET, "--rate", "20%", "--age", "5"],
    "value-fractional": ["value", "--cost", "100", "--life", "7.5", "--rate", "0.1",
                         "--age", "2.25", "--detail"],
    "schedule-intrinsic": ["schedule", *ASSET, "--rate", "0.2", "--method", "intrinsic"],
    "schedule-intrinsic-rate0": ["schedule", *ASSET, "--rate", "0", "--method", "intrinsic"],
    "schedule-intrinsic-percent": ["schedule", *ASSET, "--rate", "20%", "--method", "intrinsic"],
    "schedule-sl": ["schedule", *ASSET, "--method", "sl"],
    "schedule-ddb": ["schedule", *ASSET, "--method", "ddb"],
    "schedule-syd": ["schedule", *ASSET, "--method", "syd"],
    "schedule-life1-intrinsic": ["schedule", "--cost", "100", "--life", "1", "--rate", "0.2",
                                 "--method", "intrinsic"],
    "schedule-life1-sl": ["schedule", "--cost", "100", "--life", "1", "--method", "sl"],
    "schedule-life1-ddb": ["schedule", "--cost", "100", "--life", "1", "--method", "ddb"],
    "schedule-life1-syd": ["schedule", "--cost", "100", "--life", "1", "--method", "syd"],
    # expenses that round to zero from below
    "schedule-tiny-expenses": ["schedule", "--cost", "100", "--life", "40", "--rate", "30",
                               "--method", "intrinsic"],
    # cells just below 1e11, which JSON writes from "%.4f" text, and above it,
    # which JSON writes as repr(round(x, 4)); "%.4f" gives 822065360899.7939
    "schedule-below-1e11": ["schedule", "--cost", "99999999999.9999", "--life", "3",
                            "--rate", "1000", "--method", "intrinsic"],
    "schedule-above-1e11": ["schedule", "--cost", "822887425440.27", "--life", "3",
                            "--rate", "1000", "--method", "intrinsic"],
    # cells between the guard's cost of 5e10 and 1e11, which JSON writes as repr(round(x, 4))
    "schedule-between-guards": ["schedule", "--cost", "6e10", "--life", "3", "--rate", "1000",
                                "--method", "intrinsic"],
    "compare": ["compare", *ASSET, "--rate", "0.2", "--methods", "intrinsic,sl,ddb,syd"],
    "compare-rate0": ["compare", *ASSET, "--rate", "0", "--methods", "syd, intrinsic"],
    "compare-classic": ["compare", *ASSET, "--methods", "ddb,sl"],
    "compare-life1": ["compare", "--cost", "100", "--life", "1", "--rate", "0.2",
                      "--methods", "intrinsic,sl,ddb,syd"],
    # book values above 1e11, which JSON writes as repr(round(x, 4))
    "compare-above-1e11": ["compare", "--cost", "822887425440.27", "--life", "3",
                           "--rate", "1000", "--methods", "intrinsic,sl,ddb,syd"],
    "compare-between-guards": ["compare", "--cost", "6e10", "--life", "3", "--rate", "1000",
                               "--methods", "intrinsic,sl,ddb,syd"],
    "sweep": ["sweep", *ASSET, "--rates", "0.05,0.2"],
    "sweep-rate0-percent": ["sweep", *ASSET, "--rates", "0,5%, 20%"],
    "sweep-life1": ["sweep", "--cost", "100", "--life", "1", "--rates", "0.05,0.2"],
    # values just below 1e11, which JSON writes from "%.4f" text, and above it
    "sweep-below-1e11": ["sweep", "--cost", "99999999999.9999", "--life", "3", "--rates", "1000"],
    "sweep-above-1e11": ["sweep", "--cost", "822887425440.27", "--life", "3", "--rates", "1000"],
    "sweep-between-guards": ["sweep", "--cost", "6e10", "--life", "3", "--rates", "1000"],
    "surplus": ["surplus", *ASSET, "--age", "5", "--seller-rate", "0.05", "--buyer-rate", "0.2"],
    "surplus-rate0-percent": ["surplus", *ASSET, "--age", "5", "--seller-rate", "0",
                              "--buyer-rate", "20%"],
    "surplus-fractional": ["surplus", "--cost", "100", "--life", "7.5", "--age", "2.25",
                           "--seller-rate", "0.05", "--buyer-rate", "0.2"],
    "batch-good": ["batch", "--input", "{dir}/good.csv"],
    "batch-mixed-csv": ["batch", "--input", "{dir}/mixed.csv"],
    "batch-mixed-json": ["batch", "--input", "{dir}/mixed.json"],
    "batch-header-only": ["batch", "--input", "{dir}/header_only.csv"],
    "batch-all-invalid": ["batch", "--input", "{dir}/invalid.json"],
    "batch-ragged-csv": ["batch", "--input", "{dir}/ragged.csv"],
    "batch-ragged-json": ["batch", "--input", "{dir}/ragged.json"],
}

# Each exits 2, writes nothing to stdout and names the flag on stderr.
ERRORS = {
    "value-cost-negative": (["value", "--cost", "-5", "--life", "10", "--rate", "0.2"], "--cost"),
    "value-cost-zero": (["value", "--cost", "0", "--life", "10", "--rate", "0.2"], "--cost"),
    "value-cost-text": (["value", "--cost", "abc", "--life", "10", "--rate", "0.2"], "--cost"),
    "value-cost-inf": (["value", "--cost", "inf", "--life", "10", "--rate", "0.2"], "--cost"),
    "value-life-zero": (["value", "--cost", "100", "--life", "0", "--rate", "0.2"], "--life"),
    "value-life-negative": (["value", "--cost", "100", "--life", "-1", "--rate", "0.2"], "--life"),
    "value-rate-negative": (["value", *ASSET, "--rate", "-0.1"], "--rate"),
    "value-rate-text": (["value", *ASSET, "--rate", "abc"], "--rate"),
    "value-age-above": (["value", *ASSET, "--rate", "0.2", "--age", "11"], "--age"),
    "value-age-negative": (["value", *ASSET, "--rate", "0.2", "--age", "-1"], "--age"),
    "value-detail-rate0": (["value", *ASSET, "--rate", "0", "--detail"], "--rate"),
    "schedule-no-rate": (["schedule", *ASSET, "--method", "intrinsic"], "--rate"),
    "schedule-bad-method": (["schedule", *ASSET, "--method", "macrs"], "--method"),
    "schedule-life-fractional": (["schedule", "--cost", "100", "--life", "7.5", "--method", "sl"],
                                 "--life"),
    "schedule-cost-zero": (["schedule", "--cost", "0", "--life", "10", "--method", "sl"], "--cost"),
    "compare-no-methods": (["compare", *ASSET, "--rate", "0.2", "--methods", " , "], "--methods"),
    "compare-bad-method": (["compare", *ASSET, "--rate", "0.2", "--methods", "sl,bogus"],
                           "--methods"),
    "compare-no-rate": (["compare", *ASSET, "--methods", "sl,intrinsic"], "--rate"),
    "compare-life-fractional": (["compare", "--cost", "100", "--life", "7.5", "--methods", "sl"],
                                "--life"),
    "sweep-no-rates": (["sweep", *ASSET, "--rates", ","], "--rates"),
    "sweep-rate-negative": (["sweep", *ASSET, "--rates", "0.1,-0.1"], "--rates"),
    "sweep-rate-text": (["sweep", *ASSET, "--rates", "abc"], "--rates"),
    "sweep-life-fractional": (["sweep", "--cost", "100", "--life", "7.5", "--rates", "0.1"],
                              "--life"),
    "surplus-age-above": (["surplus", *ASSET, "--age", "11", "--seller-rate", "0.05",
                           "--buyer-rate", "0.2"], "--age"),
    "surplus-seller-negative": (["surplus", *ASSET, "--age", "5", "--seller-rate", "-1",
                                 "--buyer-rate", "0.2"], "--seller-rate"),
    "surplus-buyer-text": (["surplus", *ASSET, "--age", "5", "--seller-rate", "0.05",
                            "--buyer-rate", "x"], "--buyer-rate"),
    "batch-missing-input": (["batch", "--input", "{dir}/nope.csv"], "--input"),
    "batch-bad-header": (["batch", "--input", "{dir}/bad_header.csv"], "--input"),
    "batch-broken-json": (["batch", "--input", "{dir}/broken.json"], "--input"),
    "batch-extension": (["batch", "--input", "{dir}/assets.xml"], "--input"),
    "batch-latin1-csv": (["batch", "--input", "{dir}/latin1.csv"], "--input"),
    "batch-latin1-json": (["batch", "--input", "{dir}/latin1.json"], "--input"),
    "batch-huge-cell": (["batch", "--input", "{dir}/huge_cell.csv"], "--input"),
    "batch-deep-json": (["batch", "--input", "{dir}/deep.json"], "--input"),
}


# --help of the program and of each subcommand
HELP = {"assetval": [], **{name: [name] for name in
                           ("value", "schedule", "compare", "sweep", "surplus", "batch")}}


def valid_cases() -> dict[str, list[str]]:
    return {
        f"{name}/{fmt}": [*argv, "--format", fmt, "--deterministic"]
        for name, argv in VALID.items()
        for fmt in FORMATS
    }


def run(argv: list[str], workdir: Path) -> tuple[int, str, str]:
    for name, text in REGISTRIES.items():
        (workdir / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    out, err = io.StringIO(), io.StringIO()
    with redirect_stderr(err):
        code = main([a.replace("{dir}", str(workdir)) for a in argv], out=out)
    return code, out.getvalue(), err.getvalue()


def run_help(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), redirect_stdout(out):
        try:
            main([*argv, "--help"])
        except SystemExit as exc:
            return exc.code, out.getvalue()
    raise AssertionError(f"--help did not exit: {argv}")


def load_golden(path: Path = GOLDEN) -> dict[str, tuple[int, str]]:
    # "### <case> exit <code>" lines, each followed by that case's stdout
    parts = re.split(r"^### (\S+) exit (\d+)\n", path.read_text(), flags=re.M)
    blocks = zip(parts[1::3], parts[2::3], parts[3::3])
    return {case: (int(code), stdout) for case, code, stdout in blocks}


def write_golden() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        blocks = []
        for case, argv in valid_cases().items():
            code, stdout, _ = run(argv, Path(tmp))
            blocks.append(f"### {case} exit {code}\n{stdout}")
    GOLDEN.write_text("".join(blocks))
    HELP_GOLDEN.write_text("".join(
        "### {} exit {}\n{}".format(case, *run_help(argv)) for case, argv in HELP.items()
    ))


@pytest.fixture(scope="module")
def golden() -> dict[str, tuple[int, str]]:
    return load_golden()


def test_golden_covers_every_case(golden):
    assert list(golden) == list(valid_cases())


@pytest.mark.parametrize("case", list(valid_cases()))
def test_output_matches_golden(case, golden, tmp_path):
    code, stdout, _ = run(valid_cases()[case], tmp_path)
    assert (code, stdout) == golden[case]


def usage_joined(text: str) -> tuple[str, str]:
    """The usage block with its whitespace collapsed, so its tokens and their
    order stay pinned but not its wrapping, and the rest of the text as is."""
    usage, blank, rest = text.partition("\n\n")
    assert usage.startswith("usage: ")
    return " ".join(usage.split()), blank + rest


@pytest.mark.parametrize("case", list(HELP))
def test_help_matches_golden(case):
    code, text = run_help(HELP[case])
    golden_code, golden_text = load_golden(HELP_GOLDEN)[case]
    assert (code, usage_joined(text)) == (golden_code, usage_joined(golden_text))


@pytest.mark.parametrize("case", list(ERRORS))
def test_error_names_flag(case, tmp_path):
    argv, flag = ERRORS[case]
    code, stdout, stderr = run(argv, tmp_path)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith(f"error: {flag}: ")


if __name__ == "__main__":
    write_golden()
