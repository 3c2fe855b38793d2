"""The CLI's parser gives what argparse's own path gives, for any argv.

`cli._Parser` parses a well-formed command from that command's flag table
without argparse: a command name, then only its exact option strings, each
store flag followed by a value that does not start with "-" (one of the
choices for --format), and every required flag given. Every other argv
(--x=v, abbreviations, values starting with "-", -h, "--", missing or extra
tokens) takes argparse's own path on the tree that `cli._template()` builds
from the same tables. For every golden argv (valid, error and --help
cases), hand-picked edge cases, Hypothesis draws from their tokens and
Hypothesis draws of well-formed argv for every command, this checks that
`build_parser().parse_args(argv)` gives the same namespace attributes as
`argparse.ArgumentParser.parse_known_args` on that tree (with its
`unrecognized arguments` error), or exits with the same code, stdout and
stderr.
"""

from __future__ import annotations

import argparse
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from assetval.cli import COMMANDS, _template, build_parser
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
    ["value", "--cost", "100", "--life", "10", "--rate", "0.2", "--age", "-1"],
    ["value", "--cost", "", "--life", "10", "--rate", "0.2"],
    [*VALUE, "--format", "json", "--format", "csv"],
    [*VALUE, "--age"],
    ["value", "--rate", "0.2", "--life", "10", "--cost", "100"],
    ["batch", "--input", "-"],
]

SWITCHES = {"--deterministic", "--detail"}  # store_true: they take no value
FORMATS = ["table", "csv", "json"]

# values a well-formed argv may give its flags; those starting with "-", and
# any but table, csv and json after --format, are argparse's to parse
VALUES = ["", "-1", "-", "--", "json", "xml", "1 2", "20%", "csv", "table", "100", "10", "0", "0.2",
          "sl", "a.csv"]
PLAIN_VALUES = [v for v in VALUES if not v.startswith("-")]

GOLDEN_ARGV = [
    *valid_cases().values(),
    *(argv for argv, _ in ERRORS.values()),
    *([*argv, "--help"] for argv in HELP.values()),
]

TOKENS = sorted({token for argv in GOLDEN_ARGV + EDGE_CASES for token in argv})


def reference_parse(argv: list[str]) -> argparse.Namespace:
    """argparse's own path on the tree: the top-level scan, then its subparsers action."""
    parser = _template()
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


@st.composite
def well_formed_argv(draw) -> list[str]:
    """A command, then its own flags in any order and with repeats, each store
    flag followed by a value from VALUES. In about half the draws every value
    is one the exact path takes and every required flag is given; in the
    rest, any value may be drawn and at most one required flag is left out."""
    name = draw(st.sampled_from(list(COMMANDS)))
    flags = COMMANDS[name][1]
    required = [flag for flag, options in flags.items() if options.get("required")]
    exact = draw(st.booleans())
    left_out = set() if exact else draw(st.sets(st.sampled_from(required), max_size=1))
    extra = draw(st.lists(st.sampled_from(["--format", "--deterministic", *flags]), max_size=6))
    argv = [name]
    for flag in draw(st.permutations([f for f in required if f not in left_out] + extra)):
        argv.append(flag)
        if flag not in SWITCHES:
            pool = VALUES if not exact else FORMATS if flag == "--format" else PLAIN_VALUES
            argv.append(draw(st.sampled_from(pool)))
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(well_formed_argv())
def test_well_formed_argv_parse_matches_argparse(argv):
    assert_same(argv)


def test_every_flag_is_in_the_plan_or_is_help():
    """Each plan entry holds what argparse made of the same table entry: its
    dest, whether it is a store_true switch, its default, required and choices."""
    plans = build_parser().plans
    subparsers = next(a for a in _template()._actions if isinstance(a, argparse._SubParsersAction))
    assert plans.keys() == subparsers.choices.keys() == COMMANDS.keys()
    for name, subparser in subparsers.choices.items():
        planned = []
        for action in subparser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            made = (action.dest, isinstance(action, argparse._StoreTrueAction), action.default,
                    action.required, action.choices)
            assert not made[1] or (action.nargs, action.const) == (0, True)
            for option in action.option_strings:
                assert plans[name].get(option) == made, (name, option)
                planned.append(option)
        assert planned == list(plans[name]), name


def test_only_unusual_argv_reach_argparse(monkeypatch):
    """A well-formed command skips argparse's scan; --cost=100 takes argparse's own path."""
    scans = []
    scan = argparse.ArgumentParser._parse_known_args

    def counted(parser, *args, **kwargs):
        scans.append(parser.prog)
        return scan(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "_parse_known_args", counted)
    assert build_parser().parse_args(VALUE).cost == "100"
    assert scans == []
    assert build_parser().parse_args(["value", "--cost=100", *VALUE[3:]]).cost == "100"
    assert scans == ["assetval", "assetval value"]
