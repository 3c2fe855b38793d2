"""build_parser() hands out a new parser per call.

The benchmark's tracer (`bench/spans.py`) wraps `parse_args` on every
parser that `build_parser()` returns, as the `cli.parse` span. One parser
object returned to every caller would carry those wrappers from command
to command, one more per command, until parsing hits the recursion
limit; a parser per call keeps each wrapper on its own parser. The
argparse tree that an unusual argv is parsed on is one per process, and
the tracer never wraps it.
"""

import contextlib
import io
import sys
from collections import Counter

import pytest

from assetval import cli
from test_bench_hooks import load_spans

VALUE = ["value", "--cost", "100", "--life", "10", "--rate", "0.2", "--age", "5"]


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv, out=buf)
    return code, buf.getvalue()


def test_each_call_gets_its_own_parser():
    first = cli.build_parser()
    assert first is not cli.build_parser()
    first.parse_args = None
    assert cli.build_parser().parse_args(VALUE).command == "value"


def test_traced_commands_past_the_recursion_limit(tmp_path):
    registry = tmp_path / "registry.csv"
    registry.write_text("id,cost,lifetime,rate\na,100,3,0.2\n")
    batch = ["batch", "--input", str(registry)]  # table format, which batch rewrites to json
    spans = load_spans()
    tracer = spans.Tracer()
    build_parser = cli.build_parser
    rounds = sys.getrecursionlimit() // 3 + 1
    with spans.instrument(tracer), tracer.root("pass"):
        for _ in range(rounds):
            with pytest.raises(SystemExit) as bad_flag, contextlib.redirect_stderr(io.StringIO()):
                cli.main([*VALUE, "--bogus"])
            assert bad_flag.value.code == 2
            code, out = run(batch)
            assert code == 0 and out.startswith("{")
            assert run(VALUE) == (0, "71.3329\n")
    assert cli.build_parser is build_parser
    assert "parse_args" not in vars(cli.build_parser())
    assert cli.build_parser().parse_args(batch).format == "table"
    commands = 3 * rounds
    assert commands > sys.getrecursionlimit()
    names = Counter(span[spans.NAME] for span in tracer.spans)
    assert names["cli.main"] == commands
    assert names["cli.parse"] == 2 * commands
