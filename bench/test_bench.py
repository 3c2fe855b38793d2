"""Tests of the benchmark itself: seeded inputs, the output checker, spans.

    python3 -m pytest bench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import gen  # noqa: E402
from spans import SELF_TIME_LAYERS, Tracer, instrument, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from assetval import cli  # noqa: E402


def registry_bytes(seed: int, tmp_path: Path) -> tuple[bytes, bytes]:
    records = gen.registry_records(seed, n=300)
    gen.write_registry_csv(records, tmp_path / "r.csv")
    gen.write_registry_json(records, tmp_path / "r.json")
    return (tmp_path / "r.csv").read_bytes(), (tmp_path / "r.json").read_bytes()


def test_same_seed_gives_identical_inputs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert registry_bytes(7, tmp_path / "a") == registry_bytes(7, tmp_path / "b")
    assert registry_bytes(7, tmp_path / "a") != registry_bytes(8, tmp_path / "b")
    assert [c.argv for c in gen.cli_commands(7, n=200)] == [c.argv for c in gen.cli_commands(7, n=200)]
    assert gen.kernel_plan(7) == gen.kernel_plan(7)


def test_registry_mixes_every_malformed_kind():
    records = gen.registry_records(3, n=1000)
    kinds = {r.kind for r in records}
    assert kinds == {"valid", *gen.MALFORMED_KINDS}
    assert sum(r.kind != "valid" for r in records) == 10


def run_batch(tmp_path: Path, fmt: str, records) -> tuple[int, str, str]:
    registry = tmp_path / f"registry.{fmt}"
    (gen.write_registry_json if fmt == "json" else gen.write_registry_csv)(records, registry)
    report = tmp_path / f"report.{fmt}"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main(["batch", "--input", str(registry), "--output", str(report),
                         "--format", fmt, "--deterministic"])
    return code, report.read_text(), stderr.getvalue()


@pytest.fixture(scope="module")
def records():
    return gen.registry_records(11, n=400)


def test_batch_json_report_passes_and_corruptions_are_caught(tmp_path, records):
    code, text, _ = run_batch(tmp_path, "json", records)
    assert code == 3
    assert check.check_batch_json(records, text) == []

    env = json.loads(text)
    entries = env["payload"]["entries"]
    entries[5]["value"] = round(entries[5]["value"] + 0.01, 4)
    problems = check.check_batch_json(records, json.dumps(env))
    assert len(problems) == 1 and entries[5]["id"] in problems[0]

    env = json.loads(text)
    row = env["payload"]["entries"][9]["schedule"][0]
    row["book_value"] = round(row["book_value"] + 0.001, 4)
    assert len(check.check_batch_json(records, json.dumps(env))) == 1

    env = json.loads(text)
    dropped = env["payload"]["entries"].pop(3)["id"]
    problems = check.check_batch_json(records, json.dumps(env))
    assert len(problems) == 1 and dropped in problems[0]

    env = json.loads(text)
    accepted = env["payload"]["errors"].pop(0)["id"]
    problems = check.check_batch_json(records, json.dumps(env))
    assert len(problems) == 1 and accepted in problems[0]


def test_batch_csv_report_passes_and_corruptions_are_caught(tmp_path, records):
    code, text, stderr = run_batch(tmp_path, "csv", records)
    assert code == 3
    assert check.check_batch_csv(records, text, stderr) == []

    lines = text.splitlines(keepends=True)
    rid, value, period, expense, book = lines[1].rstrip("\n").split(",")
    flipped = f"{rid},{value},{period},{expense},{float(book) + 0.0001:.4f}\n"
    assert len(check.check_batch_csv(records, "".join([lines[0], flipped, *lines[2:]]), stderr)) == 1

    kept = [line for line in lines if not line.startswith(rid + ",")]
    problems = check.check_batch_csv(records, "".join(kept), stderr)
    assert len(problems) == 1 and rid in problems[0]

    assert len(check.check_batch_csv(records, text, stderr.split("\n", 1)[1])) == 1


def test_cli_commands_pass_and_a_changed_value_is_caught():
    for cmd in gen.cli_commands(5, n=150):
        buf = io.StringIO()
        code = cli.main(cmd.argv, out=buf)
        assert check.check_command(cmd, code, buf.getvalue()) is None, cmd.argv
        if cmd.fmt == "csv":
            text = buf.getvalue().rstrip("\n")
            cut = max(text.rfind(","), text.rfind("\n")) + 1
            changed = f"{text[:cut]}{float(text[cut:]) + 0.001:.4f}\n"
            assert check.check_command(cmd, 0, changed) is not None, cmd.argv
    assert check.check_command(cmd, 2, buf.getvalue()) == "exit code 2"


def test_checker_flags_a_negative_book():
    books = [100 * (1 - 2 / 1)]  # the documented DDB formula at lifetime 1
    assert check.schedule_problem("ddb", 100.0, 1, None, [books[0] - 100], books, True) is not None


def test_library_pass_is_checked(tmp_path):
    wl = WORKLOADS["library-kernel"](2, tmp_path)
    wl.grid, wl.plan.grid = wl.grid[:50], wl.plan.grid[:50]
    wl.surplus, wl.plan.surplus = wl.surplus[:50], wl.plan.surplus[:50]
    wl.daily, wl.plan.daily = [], []
    result = wl.run_pass()
    wl.check(result)
    assert result.problems == []
    wl._digests = None
    i = next(i for i, (_, life, _, age) in enumerate(wl.plan.grid) if 0 < age < life)
    cost, life, rate, age = wl.plan.grid[i]
    wl.plan.grid[i] = (cost, life, rate, age / 2)
    result = wl.run_pass()
    wl.check(result)
    assert len(result.problems) == 1


def test_spans_add_up_and_instrument_restores(tmp_path):
    originals = (cli.main, cli._batch_record, cli.intrinsic_value, cli.build_parser)
    records = gen.registry_records(4, n=50)
    registry = tmp_path / "registry.json"
    gen.write_registry_json(records, registry)
    argv = ["batch", "--input", str(registry), "--output", str(tmp_path / "out.json"),
            "--format", "json", "--deterministic"]
    tracer = Tracer()
    with instrument(tracer), tracer.root("pass"), contextlib.redirect_stderr(io.StringIO()):
        for i, cmd in enumerate(gen.cli_commands(4, n=30)):
            tracer.request = i
            cli.main(cmd.argv, out=io.StringIO())
        cli.main(argv)
    assert (cli.main, cli._batch_record, cli.intrinsic_value, cli.build_parser) == originals

    m = layer_metrics(tracer, 1, 1000, len(records))
    attributed = sum(m[k] for k in SELF_TIME_LAYERS) + m["trace.unattributed_s"]
    assert attributed == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["cli.record.calls"] + m["cli.records.failed.id_check"] == len(records)
    valid, _ = check.expected_outcomes(records)
    assert m["cli.records.ok"] == len(valid)
    assert m["schedule.rows"] >= sum(int(r.lifetime) for r in valid.values())
    assert m["core.intrinsic_depreciation.calls"] > 0 and m["classic.book_value.calls"] > 0
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "cli.parse", "cli.load", "cli.record", "cli.encode",
            "schedule.build_schedule"} <= names
    first_id = next(iter(valid))
    assert any(s[4] == first_id for s in tracer.spans if s[0] == "cli.record")


def test_benchmark_json_lists_what_the_runs_print():
    import run
    from workloads import PassResult, Summary

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    wl = SimpleNamespace(summarize=lambda times, other: Summary(10, 1.0, 10, 1.0, times))
    passes = [PassResult(1.0, list(range(2000)), 0, 1), PassResult(1.0, list(range(1, 2001)), 5, 1)]
    e2e = run.end_to_end(wl, passes, SimpleNamespace(times=[0.1], setup_s=lambda: 0.1), 20.0)
    assert e2e["cmd_latency_p50_ms"][0] == 1000.5 / 1e6
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, u) for k, (_, u, _) in e2e.items()]

    tracer = Tracer()
    with tracer.root("pass"):
        pass
    layers = [*layer_metrics(tracer, 1, 0, 0), "trace.overhead_ratio"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, run.unit_of(k)) for k in layers]
    assert set(spec["workloads"][i]["name"] for i in range(4)) == set(WORKLOADS)


def test_reference_clock_counts_reference_work_at_its_standard_time():
    """Whatever the machine's speed, the reference work itself reads about
    REFERENCE_NS on the Reference clock, and the handler's time is left out."""
    import signal
    import statistics

    import run

    ref = run.Reference()
    ref.start()
    try:
        times = []
        for _ in range(300):
            t0 = ref.clock()
            run.reference_work()
            times.append(ref.clock() - t0)
    finally:
        ref.stop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(ref.samples) > 1
    assert 0.7 < statistics.median(times) / run.REFERENCE_NS < 1.3
