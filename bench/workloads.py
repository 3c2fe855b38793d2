"""The four workloads. Each is a closed loop with one caller in one process.

A workload is prepared once from the seed (inputs written under its work
directory) and then run pass after pass. Every pass makes the same requests
in the same order (records, commands, library calls) and times each one.
It calls the package only through module attributes looked up at call
time, so `spans.instrument` can time it too. A pass reads time from the
clock it is given, so the runner can leave out time it takes for itself.
A pass returns what it produced; `check` then fills in what the checker
found and drops the output, and `summarize` turns each request's time,
as the runner settles it over the passes, into the end-to-end figures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import check
import gen


@dataclass
class PassResult:
    wall_s: float  # the whole pass, as its caller waited for it
    request_ns: list[int]  # each request's time, in the same order every pass
    other_ns: int  # time the caller waited outside the timed requests
    attempted: int
    bytes_out: int = 0
    output: object = None  # what the checker reads; dropped once checked
    ref_ns: float = 0.0  # mean time of one piece of reference work during the pass
    problems: list[str] = field(default_factory=list)


@dataclass
class Summary:
    rows: int  # schedule rows produced
    rows_s: float  # time of the requests that produced them
    values: int  # point valuations produced
    values_s: float  # time of the requests that produced them
    latencies_ns: list[int]  # the requests that latency percentiles are taken over


class BatchWorkload:
    """`assetval batch` over the seeded 2,000-record registry, in process."""

    def __init__(self, fmt: str, seed: int, workdir: Path) -> None:
        self.fmt = fmt
        self.records = gen.registry_records(seed)
        self.input = workdir / f"registry.{fmt}"
        (gen.write_registry_json if fmt == "json" else gen.write_registry_csv)(self.records, self.input)
        self.output = workdir / f"report.{fmt}"
        self.argv = ["batch", "--input", str(self.input), "--output", str(self.output),
                     "--format", fmt, "--deterministic"]
        valid, _ = check.expected_outcomes(self.records)
        self.expected_rows = sum(int(r.lifetime) for r in valid.values())
        self.expected_code = 3 if len(valid) < len(self.records) else 0
        self.rows = self.values = 0  # counted in each report by `check`
        self._digest = None

    def inputs(self) -> dict:
        valid, _ = check.expected_outcomes(self.records)
        kinds: dict[str, int] = {}
        for r in self.records:
            if r.kind != "valid":
                kinds[r.kind] = kinds.get(r.kind, 0) + 1
        lifetimes = [int(r.lifetime) for r in valid.values()]
        return {
            "records": len(self.records),
            "valid_records": len(valid),
            "malformed_by_kind": kinds,
            "rows": self.expected_rows,
            "lifetime_quantiles": gen.quantiles(lifetimes),
            "rows_from_lifetimes_over_100": sum(n for n in lifetimes if n > 100) / self.expected_rows,
            "bytes_in": self.input.stat().st_size,
        }

    def run_pass(self, tracer=None, clock=perf_counter_ns) -> PassResult:
        """One batch command. Untraced, each record is timed by one timer
        pair; traced, the record spans carry the record ids."""
        from assetval import cli

        latencies: list[int] = []
        time_records = tracer is None
        if time_records:
            batch_record = cli._batch_record

            def timed(record):
                t0 = clock()
                try:
                    return batch_record(record)
                finally:
                    latencies.append(clock() - t0)

            cli._batch_record = timed
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                t0 = clock()
                code = cli.main(self.argv, out=io.StringIO())
                wall_ns = clock() - t0
        finally:
            if time_records:
                cli._batch_record = batch_record
        # other_ns is the command's time outside the records: parse, load, encode
        return PassResult(wall_ns / 1e9, latencies, wall_ns - sum(latencies), len(self.records),
                          output=(code, stderr.getvalue()))

    def check(self, result: PassResult) -> None:
        """Read the report (after the pass, so its bytes are not part of the
        pass's peak memory), count what it holds and check it."""
        code, stderr = result.output
        data = self.output.read_bytes()
        result.output = None
        result.bytes_out = len(data)
        if self.fmt == "csv":
            self.rows = data.count(b"\n") - 1
            n_errors = stderr.count("\n")
        else:
            self.rows = data.count(b'"period":')
            n_errors = data.count(b'"reason":')
        self.values = len(self.records) - n_errors
        result.problems = self._problems(code, data, stderr)

    def summarize(self, request_ns: list[int], other_ns: int) -> Summary:
        """The batch command as its records' times plus its time outside
        the records; rows and values as counted in the report."""
        seconds = (sum(request_ns) + other_ns) / 1e9
        return Summary(self.rows, seconds, self.values, seconds, request_ns)

    def _problems(self, code: int, data: bytes, stderr: str) -> list[str]:
        """Full check of the first report; later ones must be byte-identical."""
        digest = hashlib.sha256(data + stderr.encode()).digest()
        if code != self.expected_code:
            return [f"batch exit code {code}, expected {self.expected_code}"]
        if digest == self._digest:
            return []
        text = data.decode()
        problems = (check.check_batch_json(self.records, text) if self.fmt == "json"
                    else check.check_batch_csv(self.records, text, stderr))
        if not problems:
            self._digest = digest
        return problems


class CliShortWorkload:
    """A seeded stream of single-asset commands through `cli.main`."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.commands = gen.cli_commands(seed)

    def inputs(self) -> dict:
        by_name: dict[str, int] = {}
        by_format: dict[str, int] = {}
        for c in self.commands:
            by_name[c.name] = by_name.get(c.name, 0) + 1
            by_format[c.fmt] = by_format.get(c.fmt, 0) + 1
        return {
            "commands": len(self.commands),
            "by_command": by_name,
            "by_format": by_format,
            "rows": sum(self._rows(c) for c in self.commands),
            "values": sum(self._values(c) for c in self.commands),
            "lifetime_quantiles": gen.quantiles([c.life for c in self.commands]),
            "bytes_in": sum(len(" ".join(c.argv)) for c in self.commands),
        }

    @staticmethod
    def _rows(cmd: gen.Command) -> int:
        return int(cmd.life) * len(cmd.params["methods"]) if cmd.name in ("schedule", "compare") else 0

    @staticmethod
    def _values(cmd: gen.Command) -> int:
        if cmd.name == "sweep":
            return (int(cmd.life) + 1) * len(cmd.params["rates"])
        return 1 if cmd.name in ("value", "surplus") else 0

    def run_pass(self, tracer=None, clock=perf_counter_ns) -> PassResult:
        """The whole command stream; traced, spans carry the command index."""
        from assetval import cli

        latencies = []
        outputs = []
        t_start = clock()
        for i, cmd in enumerate(self.commands):
            if tracer:
                tracer.request = i
            buf = io.StringIO()
            t0 = clock()
            code = cli.main(cmd.argv, out=buf)
            latencies.append(clock() - t0)
            outputs.append((code, buf.getvalue()))
        wall = (clock() - t_start) / 1e9
        return PassResult(wall, latencies, 0, len(self.commands),
                          sum(len(text) for _, text in outputs), outputs)

    def check(self, result: PassResult) -> None:
        for i, (cmd, (code, text)) in enumerate(zip(self.commands, result.output)):
            why = check.check_command(cmd, code, text)
            if why:
                result.problems.append(f"command {i} ({' '.join(cmd.argv)}): {why}")
        result.output = None

    def summarize(self, request_ns: list[int], other_ns: int) -> Summary:
        """Rows over the time of the commands that produce rows (schedule,
        compare), values over the time of those that produce values."""
        rows = values = rows_ns = values_ns = 0
        for cmd, ns in zip(self.commands, request_ns):
            if n := self._rows(cmd):
                rows += n
                rows_ns += ns
            elif n := self._values(cmd):
                values += n
                values_ns += ns
        return Summary(rows, rows_ns / 1e9, values, values_ns / 1e9, request_ns)


PORTFOLIO = 40


class LibraryKernelWorkload:
    """Library calls only: long schedules, comparisons, sweeps, point values."""

    def __init__(self, seed: int, workdir: Path) -> None:
        from assetval import AssetSpec, DiscountRate

        self.plan = plan = gen.kernel_plan(seed)
        spec = lambda cost, life, rate: (AssetSpec(cost, life), DiscountRate(rate))  # noqa: E731
        self.daily = [spec(c, l, r) for c, l, r in plan.daily]
        self.compare = [spec(c, l, r) for c, l, r in plan.compare]
        self.sweeps = [(AssetSpec(c, l), [DiscountRate(r) for r in rates]) for c, l, rates in plan.sweeps]
        self.grid = [(*spec(c, l, r), a) for c, l, r, a in plan.grid]
        self.surplus = [(AssetSpec(c, l), a, DiscountRate(s), DiscountRate(b))
                        for c, l, a, s, b in plan.surplus]
        self.rows = sum(l for _, l, _ in plan.daily) + 4 * sum(l for _, l, _ in plan.compare)
        self.values = len(plan.grid) + len(plan.surplus) + sum(
            (l + 1) * len(rates) for _, l, rates in plan.sweeps)
        self._digests: list[int] | None = None

    def inputs(self) -> dict:
        p = self.plan
        return {
            "daily_schedules": len(p.daily),
            "daily_lifetimes": [l for _, l, _ in p.daily],
            "comparisons": len(p.compare),
            "compare_lifetime_quantiles": gen.quantiles([l for _, l, _ in p.compare]),
            "rows": self.rows,
            "rows_from_lifetimes_over_100": (sum(l for _, l, _ in p.daily) + 4 * sum(
                l for _, l, _ in p.compare if l > 100)) / self.rows,
            "sweeps": len(p.sweeps),
            "sweep_cells": sum((l + 1) * len(rates) for _, l, rates in p.sweeps),
            "grid_values": len(p.grid),
            "surplus_values": len(p.surplus),
            "bytes_in": 0,
        }

    def run_pass(self, tracer=None, clock=perf_counter_ns) -> PassResult:
        """Schedules, comparisons, sweeps, then valuation portfolios, each
        timed as one request; traced, spans carry the request name."""
        from assetval import core, schedule
        from assetval.classic import Method

        methods = list(Method)
        intrinsic_value, trade_surplus = core.intrinsic_value, schedule.trade_surplus
        times: list[int] = []
        results: list = []
        sweeps: list = []
        grid: list[float] = []
        surplus: list[float] = []

        def timed(name: str, call):
            if tracer:
                tracer.request = name
            t0 = clock()
            out = call()
            times.append(clock() - t0)
            return out

        t_start = clock()
        for i, (asset, rate) in enumerate(self.daily):
            results.append(timed(f"daily{i}", lambda: schedule.build_schedule(asset, Method.INTRINSIC, rate)))
        for i, (asset, rate) in enumerate(self.compare):
            results.append(timed(f"compare{i}", lambda: schedule.compare_methods(asset, methods, rate)))
        for i, (asset, rates) in enumerate(self.sweeps):
            sweeps.append(timed(f"sweep{i}", lambda: (schedule.rate_sweep(asset, rates),
                                                      [schedule.chord_gap(asset, r) for r in rates])))
        # A request values one portfolio of PORTFOLIO assets: single calls of
        # about 2 us would time the clock more than the library.
        for i in range(0, len(self.grid), PORTFOLIO):
            timed(f"grid{i}", lambda: grid.extend(
                intrinsic_value(asset, rate, age).amount for asset, rate, age in self.grid[i:i + PORTFOLIO]))
        for i in range(0, len(self.surplus), PORTFOLIO):
            timed(f"surplus{i}", lambda: surplus.extend(
                trade_surplus(*args) for args in self.surplus[i:i + PORTFOLIO]))
        wall = (clock() - t_start) / 1e9
        attempted = len(results) + len(sweeps) + len(self.grid) + len(self.surplus)
        return PassResult(wall, times, 0, attempted, output=(results, sweeps, grid, surplus))

    def summarize(self, request_ns: list[int], other_ns: int) -> Summary:
        """Rows over the schedule and comparison requests, values over the
        sweeps and portfolios; latency over the portfolios."""
        n_rows = len(self.daily) + len(self.compare)
        return Summary(self.rows, sum(request_ns[:n_rows]) / 1e9, self.values,
                       sum(request_ns[n_rows:]) / 1e9, request_ns[n_rows + len(self.sweeps):])

    def check(self, result: PassResult) -> None:
        result.problems = self._problems(*result.output)
        result.output = None

    def _problems(self, results, sweeps, grid, surplus) -> list[str]:
        """Full check of the first pass; later passes must give equal results."""
        digests = [hash(s.rows) for s in results[:len(self.daily)]]
        digests += [hash(tuple(s.rows for s in r.schedules)) for r in results[len(self.daily):]]
        digests += [hash((r.values, tuple(g))) for r, g in sweeps]
        digests += [hash(tuple(grid)), hash(tuple(surplus))]
        if digests == self._digests:
            return []
        p = self.plan
        problems = []
        for (cost, life, rate), s in zip(p.daily, results):
            why = check.schedule_problem("intrinsic", cost, life, rate,
                                         [r.expense for r in s.rows], [r.book_value for r in s.rows], False)
            if why:
                problems.append(f"build_schedule({cost}, {life}, {rate}): {why}")
        for (cost, life, rate), r in zip(p.compare, results[len(p.daily):]):
            for method, s in zip(("intrinsic", "sl", "ddb", "syd"), r.schedules):
                why = check.schedule_problem(method, cost, life, rate if method == "intrinsic" else None,
                                             [x.expense for x in s.rows], [x.book_value for x in s.rows], False)
                if why:
                    problems.append(f"compare_methods({cost}, {life}, {rate}) {method}: {why}")
                    break
        for (cost, life, rates), (report, gaps) in zip(p.sweeps, sweeps):
            for rate, values, gap in zip(rates, report.values, gaps):
                want = [check.ref_value(cost, life, rate, a) for a in range(life + 1)]
                want_gap = max(v - cost * (1.0 - a / life) for a, v in enumerate(want))
                tol = check.tolerance(cost, False)
                if len(values) != life + 1 or any(abs(g - w) > tol for g, w in zip(values, want)) \
                        or abs(gap - want_gap) > tol:
                    problems.append(f"rate_sweep/chord_gap({cost}, {life}, {rate}) differs from reference")
                    break
        for (cost, life, rate, age), got in zip(p.grid, grid):
            why = check.check_value(cost, life, rate, age, got)
            if why:
                problems.append(why)
        for (cost, life, age, seller, buyer), got in zip(p.surplus, surplus):
            want = check.ref_value(cost, life, buyer, age) - check.ref_value(cost, life, seller, age)
            if abs(got - want) > 2 * check.tolerance(cost, False):
                problems.append(f"trade_surplus({cost}, {life}, {age}, {seller}, {buyer}) = {got!r}, "
                                f"expected {want!r}")
        if not problems:
            self._digests = digests
        return problems


WORKLOADS = {
    "batch-json": lambda seed, workdir: BatchWorkload("json", seed, workdir),
    "batch-csv": lambda seed, workdir: BatchWorkload("csv", seed, workdir),
    "library-kernel": LibraryKernelWorkload,
    "cli-short": CliShortWorkload,
}
