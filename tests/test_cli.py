import csv
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import unicodedata
from contextlib import redirect_stdout
from decimal import Decimal
from pathlib import Path

import pytest

import assetval
from assetval import cli, core, schedule
from assetval.cli import main


def run(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestValue:
    def test_midlife_value(self):
        code, out = run("value", "--cost", "100", "--life", "10", "--rate", "0.2", "--age", "5")
        assert code == 0
        assert out == "71.3329\n"

    def test_new_asset(self):
        code, out = run("value", "--cost", "100", "--life", "10", "--rate", "0.2", "--age", "0")
        assert code == 0
        assert out == "100.0000\n"

    def test_age_out_of_range_names_flag(self, capsys):
        code, _ = run("value", "--cost", "100", "--life", "10", "--rate", "0.2", "--age", "11")
        assert code == 2
        assert "--age" in capsys.readouterr().err

    def test_detail_adds_cost_lines(self):
        code, out = run(
            "value", "--cost", "100", "--life", "10", "--rate", "0.2", "--age", "5", "--detail"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "71.3329"
        assert any("present_cost" in l and "-119.2614" in l for l in lines)
        assert any("delayed_cost" in l and "-47.9285" in l for l in lines)

    def test_percent_rate_token(self):
        code, out = run("value", "--cost", "100", "--life", "10", "--rate", "20%", "--age", "5")
        assert code == 0
        assert out == "71.3329\n"

    @pytest.mark.parametrize("rate, message", [
        ("x%", "cannot parse number 'x%'"),
        ("%", "cannot parse number '%'"),
        (" x ", "cannot parse number ' x '"),
        ("nan%", "must be finite, got 'nan%'"),
        (" inf % ", "must be finite, got ' inf % '"),
    ])
    def test_rate_error_quotes_the_rate_as_typed(self, capsys, rate, message):
        assert run("value", "--cost", "100", "--life", "10", "--rate", rate) == (2, "")
        assert capsys.readouterr().err == f"error: --rate: {message}\n"

    def test_json_envelope(self):
        code, out = run(
            "value", "--cost", "100", "--life", "10", "--rate", "0.2", "--age", "5",
            "--format", "json", "--deterministic",
        )
        assert code == 0
        env = json.loads(out)
        assert env["command"] == "value"
        assert "generated_at" not in env
        assert env["payload"]["amount"] == 71.3329

    def test_json_timestamp_present_by_default(self):
        code, out = run(
            "value", "--cost", "100", "--life", "10", "--rate", "0.2", "--format", "json"
        )
        assert code == 0
        assert "generated_at" in json.loads(out)

    def test_compound_factor_beyond_double(self):
        assert run("value", "--cost", "2", "--life", "142", "--rate", "147") == (0, "2.0000\n")
        code, _ = run("value", "--cost", "100", "--life", "2000", "--rate", "0.5")
        assert code == 0

    def test_result_beyond_double_names_rate(self, capsys):
        code, out = run("value", "--cost", "100", "--life", "1", "--rate", "5e-324",
                        "--detail", "--format", "json")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith("error: --rate: ")

    def test_negative_zero_age_is_written_unsigned(self):
        code, out = run("value", "--cost", "100", "--life", "10", "--rate", "0.2", "--age", "-0",
                        "--format", "json", "--deterministic")
        assert code == 0
        assert '"age": 0.0,' in out and "-0.0" not in out

    def test_negative_cost_names_flag(self, capsys):
        code, _ = run("value", "--cost", "-5", "--life", "10", "--rate", "0.2")
        assert code == 2
        assert "--cost" in capsys.readouterr().err


class TestSchedule:
    def test_intrinsic_csv(self):
        code, out = run(
            "schedule", "--cost", "100", "--life", "10", "--rate", "0.2",
            "--method", "intrinsic", "--format", "csv",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["period", "expense", "book_value"]
        assert len(rows) == 10
        assert rows[0] == ["1", "-3.8523", "96.1477"]
        assert rows[-1][2] == "0.0000"

    def test_straight_line_csv(self):
        code, out = run(
            "schedule", "--cost", "100", "--life", "10", "--method", "sl", "--format", "csv"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert all(r[1] == "-10.0000" for r in rows)

    def test_straight_line_keeps_its_precision_at_end_of_life(self):
        """Straight-line books are cost * ((l - a) / l), within an ulp of the exact
        book at every period. cost * (1 - a/l) cancelled near a = l: period 99999
        here printed -10000000000.0655, 9999999999.9545, 24,000 ulps off."""
        asset = ("--cost", "1e15", "--life", "100000", "--format", "csv")
        code, out = run("schedule", *asset, "--method", "sl")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[-3:] == [["99998", "-10000000000.0000", "20000000000.0000"],
                             ["99999", "-10000000000.0000", "10000000000.0000"],
                             ["100000", "-10000000000.0000", "0.0000"]]
        for n, (_, expense, book) in enumerate(rows, 1):
            exact = 10**10 * (100_000 - n)
            slack = Decimal(math.ulp(exact + 10**10)) + Decimal("0.00005")  # and the printed rounding
            assert abs(Decimal(book) - exact) <= slack, n
            assert abs(Decimal(expense) + 10**10) <= 2 * slack, n
        # the rate-0 intrinsic line: each book is the last one plus its expense
        code, out = run("schedule", *asset, "--method", "intrinsic", "--rate", "0")
        assert code == 0
        _, rows = parse_csv(out)
        assert {r[1] for r in rows} == {"-10000000000.0000"}
        books = [10**15] + [Decimal(r[2]) for r in rows]
        for n in range(1, len(books)):
            slack = 2 * Decimal(math.ulp(books[n - 1])) + Decimal("0.0001")
            assert abs(books[n - 1] - 10**10 - books[n]) <= slack, n

    @pytest.mark.parametrize("method", [
        ("intrinsic", "--rate", "0"),
        pytest.param(("sl",), marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="a classical expense is the difference of two books, so it keeps their "
                   "rounding error, up to an ulp of the cost (ROADMAP item 8)")),
    ], ids=["intrinsic-rate-0", "sl"])
    def test_straight_line_expense_is_cost_over_life_at_every_period(self, method):
        """Every straight-line expense is -cost / life. The rate-0 intrinsic line
        prints it; straight line prints 2,596 of these 3,000 cells as
        -3333333333.3320, -3333333333.3359 and the like."""
        code, out = run("schedule", "--cost", "1e13", "--life", "3000", "--format", "csv",
                        "--method", *method)
        assert code == 0
        assert [r[1] for r in parse_csv(out)[1]] == ["-3333333333.3333"] * 3000

    def test_ddb_residual(self):
        code, out = run(
            "schedule", "--cost", "100", "--life", "10", "--method", "ddb", "--format", "csv"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[-1][2] == "10.7374"

    def test_intrinsic_without_rate(self, capsys):
        code, _ = run("schedule", "--cost", "100", "--life", "10", "--method", "intrinsic")
        assert code == 2
        assert "--rate" in capsys.readouterr().err

    def test_bad_method_named(self, capsys):
        code, _ = run("schedule", "--cost", "100", "--life", "10", "--method", "macrs")
        assert code == 2
        assert "macrs" in capsys.readouterr().err

    def test_classical_method_checks_rate_but_does_not_use_it(self, capsys):
        args = ("schedule", "--cost", "100", "--life", "10", "--method", "sl")
        code, _ = run(*args, "--rate", "abc")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --rate: ")
        for fmt in ("table", "csv", "json"):
            fixed = ("--format", fmt, "--deterministic")
            assert run(*args, "--rate", "0.2", *fixed) == run(*args, *fixed)

    def test_syd_at_largest_cost_is_valid_json(self):
        code, out = run("schedule", "--cost", "1.7e308", "--life", "3", "--method", "syd",
                        "--format", "json", "--deterministic")
        assert code == 0
        rows = json.loads(out, parse_constant=pytest.fail)["payload"]["rows"]
        assert [r["book_value"] for r in rows] == [8.5e307, 1.7e308 * (1 / 6), 0.0]
        assert all(-1.7e308 <= r["expense"] <= 0 for r in rows)

    def test_csv_round_trip_recurrence(self):
        _, out = run(
            "schedule", "--cost", "100", "--life", "10", "--rate", "0.2",
            "--method", "intrinsic", "--format", "csv",
        )
        _, rows = parse_csv(out)
        book = 100.0
        for _, expense, book_value in rows:
            book += float(expense)
            assert book == pytest.approx(float(book_value), abs=5e-4)

    def test_negative_zero_rate_is_written_unsigned(self):
        code, out = run("schedule", "--cost", "100", "--life", "2", "--rate", "-0",
                        "--method", "intrinsic", "--format", "json", "--deterministic")
        assert code == 0
        assert json.loads(out)["payload"]["rate"] == 0.0
        assert '"rate": 0.0' in out and "-0.0" not in out



def test_row_cells_start_no_collection():
    # A cell list made per column allocates no object per row, so the
    # collector, which would walk every live row, has nothing to start for.
    rows = schedule.build_schedule(assetval.AssetSpec(100, 20_000), assetval.Method.STRAIGHT_LINE).rows
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.enable()
    gc.collect()  # so that no young collection is due as the cells are made
    gc.callbacks.append(hook)
    try:
        cells = cli._row_cells(rows)
        during = len(starts)
    finally:
        gc.callbacks.remove(hook)
        (gc.enable if was_enabled else gc.disable)()
    assert cells[:3] == [1, *rows[0]] and cells[-3:] == [20_000, *rows[-1]] and len(cells) == 60_000
    assert during == 0


def env_with(**changes):
    """os.environ with assetval importable and each change made, None unsetting its variable."""
    env = {**os.environ, "PYTHONPATH": str(Path(assetval.__file__).parents[1]), **changes}
    return {k: v for k, v in env.items() if v is not None}


# Three records of 3,000 rows each: some 290 KB of CSV and 1 MB of JSON.
LONG_REGISTRY = "id,cost,lifetime,rate\n" + "".join(f"r{n},100,3000,0.01\n" for n in range(3))
SCHEDULE = ["schedule", "--cost", "100", "--life", "20000", "--method", "sl", "--deterministic"]


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    [*SCHEDULE, "--format", "csv"],
    [*SCHEDULE, "--format", "table"],
    [*SCHEDULE, "--format", "json"],
    ["batch", "--input", "{registry}", "--format", "json", "--deterministic"],
    ["batch", "--input", "{registry}", "--format", "csv"],
], ids=["schedule-csv", "schedule-table", "schedule-json", "batch-json", "batch-csv"])
def test_closed_pipe_exits_141_quietly(tmp_path, argv, unbuffered):
    """A reader that closes the pipe after the first line and 128 KiB more, more
    than a pipe buffers (64 KiB) before the end, leaves exit 141 and an empty
    stderr. In the schedule CSV and table cases the pipe closes part way
    through the last write: an unbuffered stdout (PYTHONUNBUFFERED, python -u)
    would report it a success, with exit 0, were it not for main's own writer,
    so their unbuffered cases pin that writer. The JSON and batch cases write
    more text after the long write, and that write raises, so they pin only
    the exit and the empty stderr. A child still running when a check fails
    is killed, so the case fails at once."""
    registry = tmp_path / "assets.csv"
    registry.write_text(LONG_REGISTRY)
    argv = [a.replace("{registry}", str(registry)) for a in argv]
    code, text = run(*argv)
    assert code == 0 and len(text) > 4 * 64 * 1024
    with subprocess.Popen([sys.executable, "-m", "assetval.cli", *argv],
                          env=env_with(PYTHONUNBUFFERED=unbuffered),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            assert proc.stdout.readline() == text[:text.index("\n") + 1].encode()
            proc.stdout.read(128 * 1024)
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
            assert proc.stderr.read() == b""
        finally:
            proc.kill()  # a no-op once the child has exited


def test_unbuffered_stdout_gets_main_output_after_earlier_text(tmp_path):
    """With sys.stdout unbuffered, as python -u makes it (a text layer on a raw
    file, writing through), main writes through a writer of its own on stdout's
    fd: its bytes follow text written to sys.stdout before it, and the fd and
    sys.stdout stay open and writable."""
    argv = [*SCHEDULE, "--format", "json"]
    path = tmp_path / "stdout"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    try:
        stdout = io.TextIOWrapper(io.FileIO(fd, "w", closefd=False), encoding="utf-8",
                                  write_through=True)
        with stdout, redirect_stdout(stdout):
            stdout.write("before\n")
            code = main(argv)
            gc.collect()  # finalizes any writer main left open
            stdout.write("after\n")
            assert not stdout.closed
        os.write(fd, b"end\n")
    finally:
        os.close(fd)
    assert (code, path.read_bytes()) == (0, b"before\n" + run(*argv)[1].encode() + b"after\nend\n")


class TestCompare:
    ARGS = (
        "compare", "--cost", "100", "--life", "10", "--rate", "0.2",
        "--methods", "intrinsic,sl,ddb,syd", "--format", "csv", "--deterministic",
    )

    def test_shape_and_values(self):
        code, out = run(*self.ARGS)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["period", "intrinsic", "sl", "ddb", "syd"]
        assert len(rows) == 10
        by_period = {r[0]: r for r in rows}
        assert by_period["5"][1] == "71.3329"
        assert by_period["5"][2] == "50.0000"

    def test_byte_identical_runs(self):
        out1 = run(*self.ARGS)[1]
        out2 = run(*self.ARGS)[1]
        assert out1 == out2

    def test_bad_method_token_all_or_nothing(self, capsys):
        code, out = run(
            "compare", "--cost", "100", "--life", "10", "--rate", "0.2",
            "--methods", "intrinsic,bogus",
        )
        assert code == 2
        assert out == ""
        assert "bogus" in capsys.readouterr().err

    def test_syd_at_huge_cost_stays_finite(self):
        code, out = run("compare", "--cost", "1e306", "--life", "40", "--methods", "syd",
                        "--format", "csv")
        assert code == 0
        _, rows = parse_csv(out)
        books = [float(book) for _, book in rows]
        assert all(0.0 <= b <= 1e306 for b in books) and books[-1] == 0.0

    def test_repeated_method_token(self):
        """JSON keeps one column per distinct token; CSV and table keep every repeat."""
        argv = ("compare", "--cost", "100", "--life", "3", "--rate", "0.2", "--methods", "sl,syd,sl")
        payload = json.loads(run(*argv, "--format", "json", "--deterministic")[1])["payload"]
        assert list(payload["book_values"]) == ["sl", "syd"]
        header, rows = parse_csv(run(*argv, "--format", "csv")[1])
        assert header == ["period", "sl", "syd", "sl"]
        assert [[float(c) for c in row[1:]] for row in rows] == [
            list(books) for books in zip(*(payload["book_values"][m] for m in ("sl", "syd", "sl")))]
        assert run(*argv)[1].splitlines()[0].split() == ["period", "sl", "syd", "sl"]

    def test_singleton(self):
        code, out = run(
            "compare", "--cost", "100", "--life", "10", "--rate", "0.2",
            "--methods", "intrinsic", "--format", "csv",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["period", "intrinsic"]
        assert len(rows) == 10

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_books_only(self, fmt, monkeypatch):
        """compare builds no schedule and makes no call per row (the counterpart of
        test_one_patched_call_per_row): with each such path raising, it prints the same."""
        argv = ("compare", "--cost", "100", "--life", "40", "--rate", "0.05",
                "--methods", "sl,ddb,syd,intrinsic", "--format", fmt, "--deterministic")
        want = run(*argv)

        def fail(*args):
            raise AssertionError("compare built a schedule or called a per-row function")

        for module, name in ((schedule, "build_schedule"), (cli, "build_schedule"),
                             (cli, "compare_methods"), (schedule, "intrinsic_depreciation")):
            monkeypatch.setattr(module, name, fail)
        for method in list(schedule._CLASSIC_BOOK):
            monkeypatch.setitem(schedule._CLASSIC_BOOK, method, fail)
        assert want[0] == 0
        assert run(*argv) == want


class TestSweep:
    def test_matrix_with_gap_row(self):
        code, out = run(
            "sweep", "--cost", "100", "--life", "10", "--rates", "0.05,0.2", "--format", "csv"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["age", "0.05", "0.2"]
        assert len(rows) == 12  # ages 0..10 plus chord_gap
        assert rows[0] == ["0", "100.0000", "100.0000"]
        assert rows[10] == ["10", "0.0000", "0.0000"]
        assert rows[11][0] == "chord_gap"
        assert float(rows[11][1]) < float(rows[11][2])

    def test_repeated_rate_token(self):
        """JSON keeps one key per distinct token; CSV, table and `rates` keep every repeat."""
        argv = ("sweep", "--cost", "100", "--life", "2", "--rates", "0.1,0.2,0.1")
        payload = json.loads(run(*argv, "--format", "json", "--deterministic")[1])["payload"]
        assert payload["rates"] == [0.1, 0.2, 0.1]
        assert list(payload["values"]) == list(payload["chord_gap"]) == ["0.1", "0.2"]
        header, rows = parse_csv(run(*argv, "--format", "csv")[1])
        assert header == ["age", "0.1", "0.2", "0.1"]
        assert [[float(c) for c in row[1:]] for row in rows[:-1]] == [
            list(values) for values in zip(*(payload["values"][t] for t in ("0.1", "0.2", "0.1")))]
        assert rows[-1][1] == rows[-1][3] != rows[-1][2]
        assert run(*argv)[1].splitlines()[0].split() == ["age", "0.1", "0.2", "0.1"]

    @pytest.mark.parametrize("token", ["5\r%", "5\n%", "5\r\n%"], ids=["cr", "lf", "crlf"])
    def test_csv_header_quotes_a_rate_token_holding_cr_or_lf(self, token):
        """The header repeats each token as typed, quoted as a batch id is: a
        "\\n"-terminated csv writer left a lone CR bare on Python 3.11, so the
        header read back as two rows."""
        code, out = run("sweep", "--cost", "100", "--life", "2", "--rates", f"{token},0.1",
                        "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert rows[0] == ["age", token, "0.1"]
        assert [row[0] for row in rows[1:]] == ["0", "1", "2", "chord_gap"]

    @staticmethod
    def run_to_ascii_stdout(fmt):
        """sweep over the rate token '\uff15%' (a fullwidth 5, which float() reads)
        in a process whose stdout is ASCII; UTF-8 mode decodes the token from argv
        under any locale."""
        argv = ["sweep", "--cost", "100", "--life", "1", "--rates", "\uff15%".encode(),
                "--format", fmt, "--deterministic"]
        return subprocess.run([sys.executable, "-m", "assetval.cli", *argv], capture_output=True,
                              env=env_with(PYTHONIOENCODING="ascii", PYTHONUTF8="1"), timeout=60)

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_header_the_stdout_cannot_encode_exit_2(self, fmt):
        """CSV and table repeat each rate token in the header."""
        proc = self.run_to_ascii_stdout(fmt)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == b"error: stdout: cannot write '\\uff15' in its encoding, ascii\n"

    def test_json_escapes_a_token_the_stdout_cannot_encode(self):
        proc = self.run_to_ascii_stdout("json")
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert b'"\\uff15%": [' in proc.stdout

    def test_table_header_padded_by_terminal_cells(self):
        """A fullwidth 5 in a rate token (float() reads it) takes two terminal
        cells, as every East Asian wide (W) or fullwidth (F) character does, so
        each header starts where its column starts, two cells after the last
        column's right-justified cells end."""
        code, out = run("sweep", "--cost", "100", "--life", "2", "--rates", "\uff15%,0.1")
        assert code == 0
        header, *lines = out.splitlines()
        cells = "".join(c * (1 + (unicodedata.east_asian_width(c) in ("W", "F"))) for c in header)
        starts = [m.start() for m in re.finditer(r"\S+", cells)]
        assert len(lines) == 4 and starts == [0, 11, 21]
        for line in lines:
            assert starts == [0, *(m.end() + 2 for m in re.finditer(r"\S+", line))][:-1]

    @pytest.mark.parametrize("token", ["5\t%", "5\r%", "5\n%", "5\t\r\n\x1f\x0b\x0c%",
                                       "5\u2028%", "5\x85%", "5\u2029%"])
    def test_table_header_escapes_control_characters(self, token):
        """A tab, CR, LF, other C0 control, NEL, U+2028 or U+2029 in a rate token
        (float() reads the number around it) is written in the table's header as
        repr escapes it, so the header is one line, also to str.splitlines(), and
        is measured as it is printed: the escaped token starts two cells after
        the age column ends, and where it is its column's widest text, it ends
        where the column's cells end. CSV and JSON keep the token as typed."""
        code, out = run("sweep", "--cost", "100", "--life", "2", "--rates", f"{token},0.1")
        assert code == 0
        header, *lines = out.split("\n")[:-1]
        assert out.splitlines() == [header, *lines]
        escaped = repr(token)[1:-1]
        assert len(lines) == 4 and header.isprintable()
        assert header.split() == ["age", escaped, "0.1"]
        start = header.index(escaped)
        for line in lines:
            ends = [m.end() for m in re.finditer(r"\S+", line)]
            assert start == ends[0] + 2
            if len(escaped) > len("100.0000"):
                assert ends[1] == start + len(escaped)
        _, csv_out = run("sweep", "--cost", "100", "--life", "2", "--rates", f"{token},0.1", "--format", "csv")
        assert next(csv.reader(io.StringIO(csv_out, newline=""))) == ["age", token, "0.1"]

    def test_negative_rate_rejected(self, capsys):
        code, _ = run("sweep", "--cost", "100", "--life", "10", "--rates", "-0.1")
        assert code == 2
        assert "--rates" in capsys.readouterr().err

    def test_each_value_evaluated_once(self, monkeypatch):
        """The sweep's values are one value curve of 11 ages per rate; its chord
        gaps, chord_gap's own, evaluate none."""
        ages = []
        value_curve = schedule._value_curve

        def counted(asset, rate, curve_ages):
            ages.append(len(curve_ages))
            return value_curve(asset, rate, curve_ages)

        monkeypatch.setattr(schedule, "_value_curve", counted)
        code, _ = run("sweep", "--cost", "100", "--life", "10", "--rates", "0.05,0.2")
        assert code == 0
        assert ages == [11, 11]

    def test_gaps_are_chord_gap_calls(self, monkeypatch):
        """Each --rates token's gap, a repeated one included, is one chord_gap call on its rate."""
        calls = []

        def counted(asset, rate):
            calls.append(rate.rate)
            return schedule.chord_gap(asset, rate)

        monkeypatch.setattr(cli, "chord_gap", counted)
        for fmt in ("csv", "table", "json"):
            calls.clear()
            code, _ = run("sweep", "--cost", "100", "--life", "10", "--rates", "0.05,0.2,5%", "--format", fmt)
            assert code == 0
            assert calls == [0.05, 0.2, 0.05]


class TestSurplus:
    def test_midlife(self):
        code, out = run(
            "surplus", "--cost", "100", "--life", "10", "--age", "5",
            "--seller-rate", "0.05", "--buyer-rate", "0.2", "--format", "csv",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["buyer_value", "seller_value", "surplus"]
        assert rows[0] == ["71.3329", "56.0687", "15.2642"]

    def test_equal_rates(self):
        code, out = run(
            "surplus", "--cost", "100", "--life", "10", "--age", "5",
            "--seller-rate", "0.2", "--buyer-rate", "0.2", "--format", "csv",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][2] == "0.0000"

    def test_new_asset(self):
        code, out = run(
            "surplus", "--cost", "100", "--life", "10", "--age", "0",
            "--seller-rate", "0.05", "--buyer-rate", "0.2", "--format", "csv",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][2] == "0.0000"

    def test_two_valuations(self, monkeypatch):
        """The two values it prints are one intrinsic_value call each; the
        surplus, trade_surplus's own, makes none."""
        calls = []

        def counted(*args):
            calls.append(args)
            return core.intrinsic_value(*args)

        for module in (cli, schedule):
            monkeypatch.setattr(module, "intrinsic_value", counted)
        code, _ = run("surplus", "--cost", "100", "--life", "10", "--age", "5",
                      "--seller-rate", "0.05", "--buyer-rate", "0.2")
        assert code == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    def test_surplus_is_one_trade_surplus_call(self, monkeypatch, fmt):
        """The surplus is one trade_surplus call on the asset, the age and the seller's and buyer's rates."""
        calls = []

        def counted(*args):
            calls.append(args)
            return core.trade_surplus(*args)

        monkeypatch.setattr(cli, "trade_surplus", counted)
        code, _ = run("surplus", "--cost", "100", "--life", "10", "--age", "5",
                      "--seller-rate", "0.05", "--buyer-rate", "0.2", "--format", fmt)
        assert code == 0
        assert [(asset.cost, age, seller.rate, buyer.rate) for asset, age, seller, buyer in calls] == [
            (100.0, 5.0, 0.05, 0.2)]


@pytest.mark.parametrize("lifetime", ["1e20", "1000001"])
@pytest.mark.parametrize("argv", [
    ["schedule", "--method", "sl", "--format", "csv"],
    ["compare", "--methods", "intrinsic,syd", "--rate", "0.2"],
    ["sweep", "--rates", "0.2", "--format", "json"],
])
def test_too_many_periods_exit_2_naming_life(argv, lifetime, capsys):
    """Rejected at once: a schedule of 1e20 rows would never finish."""
    code, out = run(*argv, "--cost", "100", "--life", lifetime)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith(
        "error: --life: lifetime must be at most 1000000 periods")


class Discard:
    """A sink that keeps no text, so that a traced peak is the command's own."""

    def write(self, text):
        pass

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [
    ["schedule", "--method", "sl"],
    ["compare", "--methods", "sl,ddb,syd,intrinsic", "--rate", "0.05"],
    ["sweep", "--rates", "0.05,0.1"],
])
def test_table_peak_memory_within_a_quarter_of_csv(argv):
    """A table is filled once at its column widths, making no string per cell,
    so its traced peak stays within 1.25x the CSV's."""
    peaks = {}
    for fmt in ("csv", "table"):
        tracemalloc.start()
        try:
            assert main([*argv, "--cost", "100", "--life", "20000", "--format", fmt], out=Discard()) == 0
            peaks[fmt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["table"] <= 1.25 * peaks["csv"]


class TestBatch:
    def write_registry(self, tmp_path, text, name="assets.csv"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_happy_path(self, tmp_path):
        path = self.write_registry(
            tmp_path,
            "id,cost,lifetime,rate,age\nforklift,100,10,0.2,5\npress,50000,20,0.08,\n",
        )
        code, out = run("batch", "--input", path, "--format", "json", "--deterministic")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert [e["id"] for e in payload["entries"]] == ["forklift", "press"]
        assert payload["errors"] == []
        assert payload["entries"][0]["value"] == 71.3329
        assert payload["entries"][0]["age"] == 5
        assert len(payload["entries"][1]["schedule"]) == 20
        assert payload["entries"][1]["age"] == 0  # age column empty -> default

    def test_partial_failure_exit_3(self, tmp_path):
        path = self.write_registry(
            tmp_path,
            "id,cost,lifetime,rate,age\ngood,100,10,0.2,5\nbad,100,10,0.2,11\n",
        )
        code, out = run("batch", "--input", path, "--format", "json", "--deterministic")
        assert code == 3
        payload = json.loads(out)["payload"]
        assert [e["id"] for e in payload["entries"]] == ["good"]
        assert payload["errors"][0]["id"] == "bad"
        assert payload["errors"][0]["reason"]

    def test_header_only_registry(self, tmp_path):
        path = self.write_registry(tmp_path, "id,cost,lifetime,rate,age\n")
        code, out = run("batch", "--input", path, "--format", "json", "--deterministic")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["entries"] == [] and payload["errors"] == []

    def test_json_registry_and_output_file(self, tmp_path):
        path = tmp_path / "assets.json"
        path.write_text(json.dumps([
            {"id": "a", "cost": 100, "lifetime": 10, "rate": 0.2, "age": 5},
        ]))
        out_path = tmp_path / "report.json"
        code, out = run(
            "batch", "--input", str(path), "--output", str(out_path),
            "--format", "json", "--deterministic",
        )
        assert code == 0
        assert out == ""
        payload = json.loads(out_path.read_text())["payload"]
        assert payload["entries"][0]["value"] == 71.3329

    def test_rate_error_quotes_the_rate_as_typed(self, tmp_path):
        path = self.write_registry(
            tmp_path, "id,cost,lifetime,rate\na,100,10,x%\nb,100,10,nan %\nc,100,10, y \n")
        code, out = run("batch", "--input", path, "--format", "json", "--deterministic")
        assert code == 3
        assert json.loads(out)["payload"]["errors"] == [
            {"id": "a", "reason": "rate: cannot parse number 'x%'"},
            {"id": "b", "reason": "rate: must be finite, got 'nan %'"},
            {"id": "c", "reason": "rate: cannot parse number ' y '"},
        ]

    def test_duplicate_id_reported(self, tmp_path):
        path = self.write_registry(
            tmp_path,
            "id,cost,lifetime,rate,age\na,100,10,0.2,0\na,100,10,0.2,1\n",
        )
        code, out = run("batch", "--input", path, "--format", "json", "--deterministic")
        assert code == 3
        payload = json.loads(out)["payload"]
        assert len(payload["entries"]) == 1
        assert payload["errors"][0]["reason"] == "duplicate id"

    def test_missing_file_exit_2(self, tmp_path):
        code, _ = run("batch", "--input", str(tmp_path / "nope.csv"))
        assert code == 2

    def test_unknown_extension_exit_2(self, tmp_path):
        path = self.write_registry(tmp_path, "whatever", name="assets.xml")
        code, _ = run("batch", "--input", path)
        assert code == 2

    def test_bad_header_exit_2(self, tmp_path):
        path = self.write_registry(tmp_path, "name,price\nx,1\n")
        code, _ = run("batch", "--input", path)
        assert code == 2

    @pytest.mark.parametrize("name, text, message", [
        ("bad.csv", "a,b\n1,2\n", "registry header missing column(s) id, cost, lifetime, rate"),
        ("bad.json", '{"id": "a"}', "JSON registry must be an array of objects"),
        ("bad.xml", "<assets/>", "unsupported registry extension '.xml' (use .csv or .json)"),
    ])
    def test_load_error_named_once(self, tmp_path, capsys, name, text, message):
        path = self.write_registry(tmp_path, text, name=name)
        assert run("batch", "--input", path) == (2, "")
        assert capsys.readouterr().err == f"error: --input: {message}\n"

    def test_csv_cell_over_the_size_limit_exit_2(self, tmp_path, capsys):
        text = f"id,cost,lifetime,rate\na,100,10,{'1' * (csv.field_size_limit() + 1)}\n"
        path = self.write_registry(tmp_path, text)
        with pytest.raises(csv.Error) as reason:
            list(csv.reader(io.StringIO(text)))
        assert run("batch", "--input", path) == (2, "")
        assert capsys.readouterr().err == f"error: --input: cannot parse {path!r} ({reason.value})\n"

    def test_path_with_nul_byte_exit_2(self, capsys):
        assert run("batch", "--input", "assets\x00.csv") == (2, "")
        assert capsys.readouterr().err.startswith("error: --input: cannot parse ")

    def test_negative_zero_age_is_written_unsigned(self, tmp_path):
        path = self.write_registry(tmp_path, "id,cost,lifetime,rate,age\na,100,2,0.2,-0\n")
        code, out = run("batch", "--input", path, "--format", "json", "--deterministic")
        assert code == 0
        assert '"age": 0.0,' in out and "-0.0" not in out

    def test_output_into_missing_directory_exit_2(self, tmp_path, monkeypatch, capsys):
        path = self.write_registry(tmp_path, "id,cost,lifetime,rate,age\na,100,10,0.2,0\n")
        loaded = []
        load_registry = cli._load_registry
        monkeypatch.setattr(cli, "_load_registry", lambda p: loaded.append(p) or load_registry(p))
        code, out = run("batch", "--input", path, "--output", str(tmp_path / "no" / "report.json"))
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("error: --output: cannot write")
        assert loaded == []  # the output is checked before any record is read

    def test_output_name_the_file_system_cannot_encode_exit_2(self, tmp_path, capsys):
        path = self.write_registry(tmp_path, "id,cost,lifetime,rate,age\na,100,10,0.2,0\n")
        # a lone surrogate has no bytes in any file system encoding
        code, out = run("batch", "--input", path, "--output", str(tmp_path / "\ud800.json"))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith("error: --output: cannot write")

    def test_input_name_the_file_system_cannot_encode_exit_2(self, tmp_path, capsys):
        code, out = run("batch", "--input", str(tmp_path / "\ud800.csv"))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.startswith("error: --input: cannot read")

    @pytest.mark.parametrize("lifetime", ["1e20", "1000001"])
    def test_record_with_too_many_periods_fails(self, tmp_path, lifetime):
        path = self.write_registry(
            tmp_path, f"id,cost,lifetime,rate\nlong,100,{lifetime},0.2\nshort,100,2,0.2\n")
        code, out = run("batch", "--input", path, "--format", "json", "--deterministic")
        payload = json.loads(out)["payload"]
        assert code == 3
        assert [entry["id"] for entry in payload["entries"]] == ["short"]
        [error] = payload["errors"]
        assert error["id"] == "long"
        assert error["reason"].startswith("lifetime must be at most 1000000 periods")

    def test_id_the_report_cannot_encode_exit_2(self, tmp_path, capsys):
        path = self.write_registry(
            tmp_path, '[{"id": "\\ud800", "cost": 100, "lifetime": 2, "rate": 0.2}]', name="a.json")
        code, _ = run("batch", "--input", path, "--output", str(tmp_path / "r.csv"), "--format", "csv")
        assert code == 2
        assert capsys.readouterr().err == "error: --output: cannot write '\\ud800' in its encoding, utf-8\n"

    def test_failed_input_keeps_existing_report(self, tmp_path):
        report = tmp_path / "report.json"
        report.write_text("last run\n")
        code, _ = run("batch", "--input", str(tmp_path / "nope.csv"), "--output", str(report))
        assert code == 2
        assert report.read_text() == "last run\n"

    @pytest.mark.parametrize("name, text", [("nope.csv", None), ("bad.csv", "a,b\n1,2\n")])
    def test_failed_input_leaves_no_new_report(self, tmp_path, name, text):
        if text is not None:
            self.write_registry(tmp_path, text, name=name)
        report = tmp_path / "new.json"
        code, _ = run("batch", "--input", str(tmp_path / name), "--output", str(report))
        assert code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if text is None else [name])

    def test_report_shorter_than_old_file_replaces_it(self, tmp_path):
        path = self.write_registry(tmp_path, "id,cost,lifetime,rate,age\na,100,2,0.2,0\n")
        report = tmp_path / "report.csv"
        report.write_text("x" * 10_000)
        code, _ = run("batch", "--input", path, "--output", str(report), "--format", "csv")
        assert code == 0
        assert report.read_text() == run("batch", "--input", path, "--format", "csv")[1]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_output_to_fifo(self, tmp_path):
        path = self.write_registry(tmp_path, "id,cost,lifetime,rate,age\na,100,10,0.2,0\n")
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        # a reader is open before the command runs, so its open does not wait;
        # the report is far smaller than the pipe's buffer
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, _ = run("batch", "--input", path, "--output", str(fifo), "--format", "csv")
            text = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert code == 0
        assert text == run("batch", "--input", path, "--format", "csv")[1]

    def test_output_to_device(self, tmp_path):
        path = self.write_registry(tmp_path, "id,cost,lifetime,rate,age\na,100,10,0.2,0\n")
        code, _ = run("batch", "--input", path, "--output", os.devnull)
        assert code == 0

    def test_output_may_replace_input(self, tmp_path):
        path = self.write_registry(tmp_path, "id,cost,lifetime,rate,age\nforklift,100,10,0.2,5\n")
        code, _ = run("batch", "--input", path, "--output", path, "--format", "csv")
        assert code == 0
        header, rows = parse_csv(Path(path).read_text())
        assert header == ["id", "value", "period", "expense", "book_value"]
        assert len(rows) == 10

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_peak_memory_bounded_by_the_longest_schedule(self, tmp_path, fmt):
        """Records fill their money into one period text per batch, which grows
        only to the longest schedule and is dropped with the batch: a batch of one
        record at each lifetime from 1 to 300 peaks less than 512 KiB above its
        300-period record alone, and an identical second batch no higher than the
        first. Each peak is traced from the batch's start, after a batch that
        imports and caches what every batch uses."""
        every = self.write_registry(tmp_path, "id,cost,lifetime,rate\n"
                                    + "".join(f"a{life},100,{life},0.05\n" for life in range(1, 301)))
        alone = self.write_registry(tmp_path, "id,cost,lifetime,rate\na300,100,300,0.05\n", "alone.csv")
        argv = ["batch", "--format", fmt, "--deterministic", "--input"]
        assert main([*argv, alone], out=Discard()) == 0
        peaks = []
        for path in (alone, every, every):
            tracemalloc.start()
            try:
                assert main([*argv, path], out=Discard()) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 512 * 1024
        assert peaks[2] <= peaks[1]

    def test_csv_output(self, tmp_path):
        path = self.write_registry(
            tmp_path, "id,cost,lifetime,rate,age\nforklift,100,10,0.2,5\n"
        )
        code, out = run("batch", "--input", path, "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["id", "value", "period", "expense", "book_value"]
        assert len(rows) == 10
        assert rows[0][0] == "forklift"
        assert rows[0][1] == "71.3329"

    def test_csv_quotes_ids_holding_cr_or_lf(self, tmp_path):
        ids = ["a\rb", "c\nd", "e\r\nf"]
        path = tmp_path / "assets.json"
        path.write_text(json.dumps([{"id": i, "cost": 100, "lifetime": 2, "rate": 0.2} for i in ids]))
        code, out = run("batch", "--input", str(path), "--format", "csv")
        assert code == 0
        _, rows = parse_csv(out)
        assert [row[:3] for row in rows] == [[i, "100.0000", n] for i in ids for n in "12"]

    def test_csv_error_is_one_stderr_line_each(self, tmp_path, capsys):
        path = tmp_path / "assets.json"
        path.write_text(json.dumps([{"id": i, "cost": "x", "lifetime": 2, "rate": 0.2}
                                    for i in ("a\nb", "c\rd")]))
        code, out = run("batch", "--input", str(path), "--format", "csv")
        assert (code, out) == (3, "id,value,period,expense,book_value\n")
        reason = "cost: cannot parse number 'x'"
        assert capsys.readouterr().err == f"a\\nb: {reason}\nc\\rd: {reason}\n"
        code, out = run("batch", "--input", str(path), "--format", "json", "--deterministic")
        assert code == 3
        assert json.loads(out)["payload"]["errors"] == [
            {"id": "a\nb", "reason": reason}, {"id": "c\rd", "reason": reason}]

    def test_csv_error_id_escaped_at_every_line_end(self, tmp_path, capsys):
        """An id's VT, tab, NEL and U+2028 are written to stderr as repr writes
        them, so str.splitlines() reads one line per error."""
        ids = ["a\u2028b", "c\x0bd", "e\x85f", "g\th"]
        path = tmp_path / "assets.json"
        path.write_text(json.dumps([{"id": i, "cost": "x", "lifetime": 2, "rate": 0.2} for i in ids]))
        code, _ = run("batch", "--input", str(path), "--format", "csv")
        assert code == 3
        reason = "cost: cannot parse number 'x'"
        assert capsys.readouterr().err.splitlines() == [
            f"a\\u2028b: {reason}", f"c\\x0bd: {reason}", f"e\\x85f: {reason}", f"g\\th: {reason}"]

    def test_entries_stream_as_computed(self, tmp_path, monkeypatch):
        path = self.write_registry(
            tmp_path,
            "id,cost,lifetime,rate,age\na,100,10,0.2,5\nb,100,3,0.1,\nc,100,10,0.2,11\n",
        )
        log = []

        class Recorder:
            def write(self, text):
                log.append(text)

            def flush(self):
                pass

        batch_record = cli._batch_record

        def logged(record):
            log.append(("record", record["id"]))
            return batch_record(record)

        monkeypatch.setattr(cli, "_batch_record", logged)
        code = main(["batch", "--input", path, "--format", "json", "--deterministic"],
                    out=Recorder())
        assert code == 3
        # each entry reaches write as two strings, its separator and its text,
        # before the next record is read
        for rec_id, following in (("a", "b"), ("b", "c")):
            between = log[log.index(("record", rec_id)) + 1:log.index(("record", following))]
            assert len(between) == 2 and json.loads(between[1])["id"] == rec_id
        third = log.index(("record", "c"))
        before = "".join(t for t in log[:third] if isinstance(t, str))
        report = "".join(t for t in log if isinstance(t, str))
        start = report.index("{", report.index('"entries": ['))
        first, end = json.JSONDecoder().raw_decode(report, start)
        assert first["id"] == "a"
        assert len(before) >= end  # the whole first entry was written already
        payload = json.loads(report)["payload"]
        assert list(payload) == ["entries", "errors"]
        assert [e["id"] for e in payload["entries"]] == ["a", "b"]
        assert [e["id"] for e in payload["errors"]] == ["c"]

    @pytest.mark.parametrize("cost", [2e11, 703275009772.664])
    def test_json_money_at_a_large_cost_is_repr_of_round(self, tmp_path, cost):
        """From a cost of 5e10, an entry's money is written as repr(round(x, 4)):
        at 703275009772.664, "%.4f" would print 703275009772.6639."""
        path = tmp_path / "assets.json"
        path.write_text(json.dumps([{"id": "a", "cost": cost, "lifetime": 1, "rate": 0.1}]))
        code, out = run("batch", "--input", str(path), "--format", "json", "--deterministic")
        assert code == 0
        (expense, book), = schedule.build_schedule(
            core.AssetSpec(cost, 1), cli.Method.INTRINSIC, core.DiscountRate(0.1)).rows
        for key, x, end in (("value", cost, ","), ("expense", expense, ","), ("book_value", book, "\n")):
            assert f'"{key}": {round(x, 4)!r}{end}' in out

    @staticmethod
    def run_in_c_locale(tmp_path, *argv, **env):
        """batch over a registry whose id is caf\u00e9, in a process whose locale
        is C, not in UTF-8 mode: stdout's encoding is ASCII unless env sets it."""
        path = tmp_path / "assets.csv"
        path.write_bytes("id,cost,lifetime,rate\ncaf\u00e9,100,2,0.2\n".encode())
        env = env_with(LC_ALL="C", LANG="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", **env)
        return subprocess.run([sys.executable, "-m", "assetval.cli", "batch", "--input", str(path),
                               *argv], env=env, capture_output=True, timeout=60)

    def test_report_is_utf8_under_any_locale(self, tmp_path):
        report = tmp_path / "report.csv"
        proc = self.run_in_c_locale(tmp_path, "--output", str(report), "--format", "csv")
        assert (proc.returncode, proc.stderr) == (0, b"")
        _, rows = parse_csv(report.read_bytes().decode("utf-8"))
        assert [row[:3] for row in rows] == [["caf\u00e9", "100.0000", n] for n in "12"]

    # PYTHONUNBUFFERED too: main's own writer on stdout's fd keeps its encoding and errors
    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    def test_stdout_that_cannot_encode_an_id_exit_2(self, tmp_path, unbuffered):
        proc = self.run_in_c_locale(tmp_path, "--format", "csv", PYTHONUNBUFFERED=unbuffered)
        assert (proc.returncode, proc.stdout) == (2, b"id,value,period,expense,book_value\n")
        assert proc.stderr == (b"error: stdout: cannot write '\\xe9' in its encoding, ascii"
                               b" (--output writes UTF-8)\n")

    def test_unbuffered_stdout_keeps_its_encoding(self, tmp_path):
        proc = self.run_in_c_locale(tmp_path, "--format", "csv", PYTHONUNBUFFERED="1",
                                    PYTHONIOENCODING="utf-8")
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.decode("utf-8").splitlines()[1].startswith("caf\u00e9,100.0000,1,")

    @pytest.mark.parametrize("name, text", [
        ("assets.csv", "id,cost,lifetime,rate,age\nf,100,10,0.2,5\n"),
        ("assets.json", '[{"id": "f", "cost": 100, "lifetime": 10, "rate": 0.2, "age": 5}]'),
    ], ids=["csv", "json"])
    def test_registry_with_utf8_bom(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        code, out = run("batch", "--input", str(path), "--format", "json", "--deterministic")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert [e["id"] for e in payload["entries"]] == ["f"]
        assert payload["entries"][0]["value"] == 71.3329

    def test_json_ids_zero_and_blank(self, tmp_path):
        path = tmp_path / "assets.json"
        path.write_text(json.dumps([
            {"id": 0, "cost": 100, "lifetime": 10, "rate": 0.2},
            {"id": None, "cost": 100, "lifetime": 10, "rate": 0.2},
            {"id": " ", "cost": 100, "lifetime": 10, "rate": 0.2},
            {"cost": 100, "lifetime": 10, "rate": 0.2},
        ]))
        code, out = run("batch", "--input", str(path), "--format", "json", "--deterministic")
        assert code == 3
        payload = json.loads(out)["payload"]
        assert [e["id"] for e in payload["entries"]] == ["0"]
        assert payload["errors"] == [
            {"id": f"<row {n}>", "reason": "missing or empty id"} for n in (2, 3, 4)
        ]

    @pytest.mark.parametrize("text, reason", [
        ("id,cost,lifetime,rate,age\nf,100\n", "lifetime: missing value"),
        ("id,cost,lifetime,rate,age\nf\n", "cost: missing value"),
        ("id,cost,lifetime,rate,age\nf,100,10\n", "rate: missing value"),
    ], ids=["no-lifetime", "no-cost", "no-rate"])
    def test_short_csv_row_names_missing_field(self, tmp_path, text, reason):
        path = self.write_registry(tmp_path, text)
        code, out = run("batch", "--input", path, "--format", "json", "--deterministic")
        assert code == 3
        assert json.loads(out)["payload"]["errors"] == [{"id": "f", "reason": reason}]

    def test_short_csv_row_without_age_is_age_zero(self, tmp_path):
        path = self.write_registry(tmp_path, "id,cost,lifetime,rate,age\ng,100,10,0.2\n")
        code, out = run("batch", "--input", path, "--format", "json", "--deterministic")
        assert code == 0
        entry = json.loads(out)["payload"]["entries"][0]
        assert (entry["id"], entry["age"], entry["value"]) == ("g", 0.0, 100.0)

    @pytest.mark.parametrize("extra", [["EXTRA"], ["x", ""]], ids=["one", "two"])
    def test_long_csv_row_names_extra_cells(self, tmp_path, extra):
        line = ",".join(["g", "100", "10", "0.2", "1", *extra])
        path = self.write_registry(tmp_path, f"id,cost,lifetime,rate,age\n{line}\n")
        code, out = run("batch", "--input", path, "--format", "json", "--deterministic")
        assert code == 3
        payload = json.loads(out)["payload"]
        assert payload["entries"] == []
        [error] = payload["errors"]
        assert error["id"] == "g"
        assert "beyond the header" in error["reason"]
        assert all(repr(cell) in error["reason"] for cell in extra)

    def test_json_null_or_absent_field_named_missing(self, tmp_path):
        path = tmp_path / "assets.json"
        path.write_text(json.dumps([
            {"id": "a", "cost": None, "lifetime": 10, "rate": 0.2},
            {"id": "b", "cost": 100, "lifetime": 10},
            {"id": "c", "cost": 100, "lifetime": 10, "rate": 0.2, "age": None},
        ]))
        code, out = run("batch", "--input", str(path), "--format", "json", "--deterministic")
        assert code == 3
        payload = json.loads(out)["payload"]
        assert [(e["id"], e["age"]) for e in payload["entries"]] == [("c", 0.0)]
        assert payload["errors"] == [
            {"id": "a", "reason": "cost: missing value"},
            {"id": "b", "reason": "rate: missing value"},
        ]
