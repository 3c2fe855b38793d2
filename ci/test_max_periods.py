"""The CLI's runs at MAX_PERIODS (1,000,000 periods), one table row each.

Tier-1 caps --life at 1e4, so these are the only runs of the longest
schedules the CLI accepts. Each row spawns one run in a wrapper process that
spawns nothing else, so the wrapper's RUSAGE_CHILDREN peak is that run's own.
A row fails unless its run exits 0 within 120 s with an empty stderr, prints
what the row expects and peaks within its memory ceiling: the row's reading,
taken on Python 3.11.7, plus 25%, rounded up to 10 MB. Two more rows close
the SL JSON schedule's pipe after 100 bytes, under an unbuffered stdout and
a buffered one, and need exit 141 with an empty stderr. Every run works in
tmp_path, so nothing is written to the checkout. The runs get PYTHONPATH from
this file's checkout and the rest of the environment as it is, so this works
from any directory; pyproject's testpaths keeps it out of a plain pytest.

    python -X dev -W error -m pytest -q ci
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
LONG = ["--cost", "100", "--life", "1000000"]
REGISTRY = b"id,cost,lifetime,rate\nbig,100,1000000,0.05\nsmall,100,12,0.05\n"
# argv: the stdout file, then the run's argv. ru_maxrss is in KiB on Linux.
WRAPPER = """
import resource, subprocess, sys
with open(sys.argv[1], "wb") as stdout:
    code = subprocess.run(sys.argv[2:], stdout=stdout, timeout=120).returncode
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(code)
"""


def run(tmp_path, *args):
    """Runs python with args in tmp_path; returns its stdout file and its peak RSS in MB."""
    stdout = tmp_path / "stdout"
    proc = subprocess.run([sys.executable, "-c", WRAPPER, stdout, sys.executable, *args],
                          cwd=tmp_path, env=ENV, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    peak = int(proc.stdout) / 1024
    print(f"peak RSS {peak:.0f} MB")
    return stdout, peak


def ceiling(mb):
    return math.ceil(mb * 1.25 / 10) * 10


def text(count, last, lines=None):
    """count lines, each ending in a newline, the last one last and each of lines
    (numbered from 1) as given; below a table's header, every line as wide as its
    last, so no cell outgrew its column."""
    want = {**(lines or {}), count: last}

    def check(path, fmt):
        got = path.read_bytes().decode().split("\n")
        assert got.pop() == ""
        assert len(got) == count
        assert {n: got[n - 1] for n in want} == want
        if fmt == "table":
            assert {len(line) for line in got[1:]} == {len(last)}
    return check


def payload(get, expected):
    """get of the JSON document's payload is expected."""
    def check(path, fmt):
        assert get(json.loads(path.read_bytes())["payload"]) == expected
    return check


# the command's own flags (single-asset commands also get LONG), --format, peak MB, check;
# a batch reads REGISTRY and writes its report through --output
RUNS = [
    ("schedule --method sl", "csv", 259, text(1000001, "1000000,-0.0001,0.0000")),
    ("schedule --method ddb", "csv", 259, text(1000001, "1000000,0.0000,13.5335")),
    ("schedule --method syd", "csv", 259, text(1000001, "1000000,0.0000,0.0000")),
    ("sweep --rates 0.05", "csv", 137, text(1000003, "chord_gap,99.9758")),
    ("compare --methods sl,intrinsic --rate 0.05", "csv", 180,
     text(1000001, "1000000,0.0000,0.0000")),
    ("compare --methods sl,ddb,syd,intrinsic --rate 0.05", "csv", 297,
     text(1000001, "1000000,0.0000,13.5335,0.0000,0.0000")),
    ("schedule --method sl", "table", 281, text(1000001, "1000000  -0.0001      0.0000")),
    ("compare --methods sl,ddb,syd,intrinsic --rate 0.05", "table", 309,
     text(1000001, "1000000   0.0000  13.5335   0.0000     0.0000")),
    ("sweep --rates 0.05", "table", 137, text(1000003, "chord_gap   99.9758")),
    ("schedule --method sl --deterministic", "json", 580,
     payload(lambda p: (len(p["rows"]), p["rows"][-1]),
             (1000000, {"period": 1000000, "expense": -0.0001, "book_value": 0.0}))),
    ("compare --methods sl,ddb,syd,intrinsic --rate 0.05 --deterministic", "json", 343,
     payload(lambda p: (len(p["periods"]), p["periods"][-1],
                        [(len(b), b[-1]) for b in p["book_values"].values()]),
             (1000000, 1000000, [(1000000, 0.0), (1000000, 13.5335), (1000000, 0.0), (1000000, 0.0)]))),
    ("sweep --rates 0.05,0.2 --deterministic", "json", 265,
     payload(lambda p: (len(p["ages"]), p["ages"][-1], p["chord_gap"],
                        [(len(v), v[-1]) for v in p["values"].values()]),
             (1000001, 1000000, {"0.05": 99.9758, "0.2": 99.9928}, [(1000001, 0.0)] * 2))),
    # the first record is the longest (its period text is filled with no reuse),
    # the second is cut back to 12 rows from that text
    ("batch --input registry.csv --output report", "csv", 270,
     text(1000013, "small,100.0000,12,-10.7453,0.0000",
          {1000001: "big,100.0000,1000000,-4.7619,0.0000",
           1000002: "small,100.0000,1,-6.2825,93.7175"})),
    ("batch --input registry.csv --output report --deterministic", "json", 785,
     payload(lambda p: (p["errors"], [(len(e["schedule"]), e["schedule"][-1]) for e in p["entries"]]),
             ([], [(1000000, {"period": 1000000, "expense": -4.7619, "book_value": 0.0}),
                   (12, {"period": 12, "expense": -10.7453, "book_value": 0.0})]))),
]


@pytest.mark.parametrize("flags, fmt, mb, check", RUNS, ids=[f"{f} {fmt}" for f, fmt, *_ in RUNS])
def test_max_periods_run(tmp_path, flags, fmt, mb, check):
    (tmp_path / "registry.csv").write_bytes(REGISTRY)
    size = [] if flags.startswith("batch") else LONG
    stdout, peak = run(tmp_path, "-m", "assetval.cli", *flags.split(), *size, "--format", fmt)
    check(tmp_path / "report" if "--output" in flags else stdout, fmt)
    assert peak <= ceiling(mb)


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
def test_max_periods_closed_pipe_exits_141(tmp_path, unbuffered):
    """The SL JSON schedule into a reader that closes the pipe after 100 bytes:
    with PYTHONUNBUFFERED=1 and with it unset, the run exits 141 within 120 s
    with an empty stderr."""
    env = {k: v for k, v in {**ENV, "PYTHONUNBUFFERED": unbuffered}.items() if v is not None}
    argv = ["-m", "assetval.cli", "schedule", *LONG, "--method", "sl", "--format", "json", "--deterministic"]
    with open(tmp_path / "stderr", "wb") as stderr:
        proc = subprocess.Popen([sys.executable, *argv], cwd=tmp_path, env=env,
                                stdout=subprocess.PIPE, stderr=stderr)
        try:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            assert proc.wait(timeout=120) == 141
        finally:
            proc.kill()  # a no-op once the run has exited
            proc.wait()
    assert (tmp_path / "stderr").read_bytes() == b""


# chord_gap scans only the ages around its peak: at MAX_PERIODS it is the full
# grid's max, bit for bit, at a curved rate and a nearly flat one
CHORD_GAP = """
import math, sys
from assetval import AssetSpec, DiscountRate, chord_gap
r = float(sys.argv[1])
g, e = math.log1p(r), math.expm1(-(1000000 * math.log1p(r)))
grid = max([100 * (math.expm1(-((1000000 - a) * g)) / e) - 100 * ((1000000 - a) / 1000000)
            for a in range(1000001)])
print(chord_gap(AssetSpec(100, 1000000), DiscountRate(r)).hex(), grid.hex())
"""


@pytest.mark.parametrize("rate", ["0.05", "1e-18"])
def test_chord_gap_is_the_full_grid_max(tmp_path, rate):
    stdout, peak = run(tmp_path, "-c", CHORD_GAP, rate)
    got, want = stdout.read_text().split()
    assert got == want
    assert peak <= ceiling(52)
