"""The CLI's parser gives what argparse's own path gives, for any argv.

`cli._Parser` hands a command's flags straight to its subparser instead of
scanning them at the top level first. For every golden argv (valid, error
and --help cases), hand-picked edge cases and Hypothesis draws from their
tokens, this checks that `build_parser().parse_args(argv)` gives the same
namespace as `argparse.ArgumentParser.parse_known_args` on the same parser
(with its `unrecognized arguments` error), or exits with the same code,
stdout and stderr.
"""

from __future__ import annotations

import argparse
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from assetval.cli import COMMANDS, build_parser
from test_cli_golden import ERRORS, HELP, valid_cases

VALUE = ["value", "--cost", "100", "--life", "10", "--rate", "0.2"]

EDGE_CASES = [
    [],
    ["--version"],
    ["--vers"],
    ["-h"],
    ["--version", "value"],
    ["--", "value", *VALUE[1:]],
    ["bogus", "--cost", "1"],
    ["VALUE", *VALUE[1:]],
    ["value", "--cost=100", "--life", "10", "--rate", "0.2"],
    ["value", "--co", "100", "--life", "10", "--rate", "0.2"],
    ["value", "--", "--cost", "1"],
    [*VALUE, "--"],
    [*VALUE, "-h"],
    [*VALUE, "--help=x"],
    [*VALUE, "--version"],
    [*VALUE, "--version=1"],
    [*VALUE, "--cost", "2"],
    ["value", "--cost"],
    [*VALUE, "--bogus"],
    [*VALUE, "extra"],
    ["value", "--cost", "100", "--life", "10", "--rate", "-5%"],
    ["value", "--cost", "-5", "--life", "10", "--rate", "0.2"],
    ["value", "--cost", "1 2", "--life", "10", "--rate", "0.2"],
    [*VALUE, "--format", "xml"],
    [*VALUE, "--deterministic", "--deterministic"],
    [*VALUE, "--detail=1"],
    [*VALUE, "--d"],
    [*VALUE, "--=x"],  # ambiguous at the top level (--help, --version)
    [*VALUE, "-=x"],
    ["value", "--", "--=x"],
    ["sweep", "--cost", "100", "--life", "10", "--rates=0.1,0.2", "--format=json"],
    ["schedule", "--cost", "100", "--life", "10", "--method", "sl", "--rate"],
    ["batch", "--input", "a.csv", "--output"],
]

GOLDEN_ARGV = [
    *valid_cases().values(),
    *(argv for argv, _ in ERRORS.values()),
    *([*argv, "--help"] for argv in HELP.values()),
]

TOKENS = sorted({token for argv in GOLDEN_ARGV + EDGE_CASES for token in argv})


def reference_parse(argv: list[str]) -> argparse.Namespace:
    """argparse's own path: the top-level scan, then its subparsers action."""
    parser = build_parser()
    namespace, extras = argparse.ArgumentParser.parse_known_args(parser, argv)
    if extras:
        parser.error("unrecognized arguments: %s" % " ".join(extras))
    return namespace


def outcome(parse, argv: list[str]) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return ("parsed", vars(parse(list(argv))))
        except SystemExit as exc:
            return ("exit", exc.code, out.getvalue(), err.getvalue())


def assert_same(argv: list[str]) -> None:
    assert outcome(build_parser().parse_args, argv) == outcome(reference_parse, argv)


@pytest.mark.parametrize("argv", GOLDEN_ARGV + EDGE_CASES, ids=" ".join)
def test_parse_matches_argparse(argv):
    assert_same(argv)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.sampled_from([*COMMANDS, *TOKENS]), st.lists(st.sampled_from(TOKENS), max_size=10))
@example("value", ["--cost", "1", "--life", "2", "--rate", "0", "--=x"])
def test_drawn_argv_parse_matches_argparse(first, rest):
    assert_same([first, *rest])


def test_a_command_is_scanned_once(monkeypatch):
    """A command's tokens go through argparse's scan once, in its own parser."""
    scans = []
    scan = argparse.ArgumentParser._parse_known_args

    def counted(parser, *args, **kwargs):
        scans.append(parser.prog)
        return scan(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "_parse_known_args", counted)
    assert build_parser().parse_args(VALUE).cost == "100"
    assert scans == ["assetval value"]
    reference_parse(VALUE)
    assert scans == ["assetval value", "assetval", "assetval value"]
