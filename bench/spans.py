"""Spans timed from outside the package, around calls into its modules.

`instrument` swaps the names that callers look up at call time (module
attributes such as `assetval.cli._batch_record`, and the classical
methods in `schedule._CLASSIC_BOOK`) for timing wrappers, and restores
them on exit. Nothing in the package changes.

Spans record name, start, end, parent and request id. Per-row calls into
`core` and `classic` are not spans: they are counted and their time summed
under the span that made them, so memory stays bounded by the number of
records and commands, not rows. A span's self time is its duration minus
the time covered by its child spans and these per-row calls.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

# Span fields, stored as lists to keep a span cheap to record.
NAME, START, END, PARENT, REQUEST, CHILD_NS, LEAVES, ERROR = range(8)

CORE_LEAVES = {
    "core.intrinsic_value": ("intrinsic_value", ("core", "schedule", "cli")),
    "core.intrinsic_depreciation": ("intrinsic_depreciation", ("core", "schedule")),
    "core.present_cost": ("present_cost", ("core", "cli")),
    "core.delayed_present_cost": ("delayed_present_cost", ("core", "cli")),
}
SCHEDULE_SPANS = ("build_schedule", "compare_methods", "rate_sweep", "chord_gap", "trade_surplus")
CLI_COMMANDS = ("cmd_value", "cmd_schedule", "cmd_compare", "cmd_sweep", "cmd_surplus", "cmd_batch")
CLI_EMITTERS = ("_emit_json", "_emit_csv", "_emit_table")


class Tracer:
    def __init__(self, clock=perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = None
        self._stack: list[int] = []

    @contextmanager
    def root(self, name: str):
        """The span of one workload pass; everything else nests under it."""
        start = len(self.spans)
        self._stack.append(start)
        self.spans.append([name, self.clock(), 0, -1, None, 0, None, None])
        try:
            yield
        finally:
            self.spans[start][END] = self.clock()
            self._stack.pop()

    def span(self, name: str, fn, request=None, measure=None):
        """Wrap fn so that each call records a span.

        request(args) names the request the span serves; measure(args,
        result) adds to `counts`."""
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock

        def traced(*args, **kwargs):
            parent = stack[-1]
            rec = [name, 0, 0, parent, request(args) if request else self.request, 0, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = t1 = clock()
                stack.pop()
                spans[parent][CHILD_NS] += t1 - t0
            if measure:
                measure(counts, args, result)
            return result

        return traced

    def leaf(self, name: str, fn):
        """Wrap a per-row call: count and time it under the enclosing span."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec = spans[stack[-1]]
                rec[CHILD_NS] += dt
                leaves = rec[LEAVES]
                if leaves is None:
                    leaves = rec[LEAVES] = {}
                agg = leaves.get(name)
                if agg is None:
                    leaves[name] = [1, dt]
                else:
                    agg[0] += 1
                    agg[1] += dt

        return traced

    def write(self, path: Path) -> None:
        """Spans as JSON lines, with self time worked out."""
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[NAME], "start_ns": s[START], "end_ns": s[END],
                    "parent": s[PARENT], "request": s[REQUEST],
                    "self_ns": s[END] - s[START] - s[CHILD_NS],
                    "calls": s[LEAVES], "error": s[ERROR],
                }) + "\n")


@contextmanager
def instrument(tracer: Tracer):
    """Patch the package's call-time lookups with tracer wrappers."""
    from assetval import cli, core, schedule

    modules = {"core": core, "schedule": schedule, "cli": cli}
    saved: list[tuple[object, str, object]] = []

    def patch(target, attr: str, wrapper) -> None:
        saved.append((target, attr, getattr(target, attr)))
        setattr(target, attr, wrapper)

    for name, (attr, where) in CORE_LEAVES.items():
        for mod in where:
            patch(modules[mod], attr, tracer.leaf(name, getattr(modules[mod], attr)))
    classic_books = schedule._CLASSIC_BOOK
    saved_books = dict(classic_books)
    for method, fn in saved_books.items():
        classic_books[method] = tracer.leaf("classic.book_value", fn)

    rows = lambda counts, args, result: counts.update({"schedule.rows": len(result.rows)})  # noqa: E731
    for attr in SCHEDULE_SPANS:
        fn = getattr(schedule, attr)
        wrapped = tracer.span(f"schedule.{attr}", fn, measure=rows if attr == "build_schedule" else None)
        patch(schedule, attr, wrapped)
        patch(cli, attr, wrapped)

    patch(cli, "main", tracer.span("cli.main", cli.main))
    build_parser = cli.build_parser

    def traced_build_parser():
        parser = tracer.span("cli.parse", build_parser)()
        parser.parse_args = tracer.span("cli.parse", parser.parse_args)
        return parser

    patch(cli, "build_parser", traced_build_parser)
    for attr in CLI_COMMANDS:
        patch(cli, attr, tracer.span("cli.command", getattr(cli, attr)))
    for attr in CLI_EMITTERS:
        patch(cli, attr, tracer.span("cli.encode", getattr(cli, attr)))
    bytes_in = lambda counts, args, result: counts.update({"cli.load.bytes_in": args[0].stat().st_size})  # noqa: E731
    patch(cli, "_load_registry", tracer.span("cli.load", cli._load_registry, measure=bytes_in))
    patch(cli, "_batch_record", tracer.span("cli.record", cli._batch_record,
                                            request=lambda args: args[0]["id"]))
    try:
        yield tracer
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)
        classic_books.clear()
        classic_books.update(saved_books)


# Layers whose self times, with the unattributed remainder, make up the
# traced wall time.
SELF_TIME_LAYERS = (
    "core.self_s", "classic.self_s", "schedule.build_schedule.self_s",
    "schedule.analysis.self_s", "cli.parse.s", "cli.load.s", "cli.record.self_s", "cli.encode.s",
)
RECORD_ERROR_CLASSES = ("CliError", "AgeOutOfRange", "NonIntegerPeriod", "InvalidInput")


def layer_metrics(tracer: Tracer, passes: int, bytes_out: int, records: int) -> dict[str, float]:
    """Per-layer metrics per traced pass.

    bytes_out is what one pass wrote; records is how many registry records
    one pass fed to the batch command (0 when it ran none)."""
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    leaf_calls: Counter = Counter()
    leaf_ns: Counter = Counter()
    errors: Counter = Counter()
    for s in tracer.spans:
        name = s[NAME]
        self_ns[name] += s[END] - s[START] - s[CHILD_NS]
        calls[name] += 1
        if s[LEAVES]:
            for leaf, (n, ns) in s[LEAVES].items():
                leaf_calls[leaf] += n
                leaf_ns[leaf] += ns
        if name == "cli.record" and s[ERROR]:
            errors[s[ERROR] if s[ERROR] in RECORD_ERROR_CLASSES else "InvalidInput"] += 1
    for counter in (self_ns, calls, leaf_calls, leaf_ns, errors):
        for key in counter:
            counter[key] /= passes
    wall_ns = sum(s[END] - s[START] for s in tracer.spans if s[NAME] == "pass") / passes

    def ratio(total: float, n: float) -> float:
        return total / n if n else 0.0

    rows = tracer.counts["schedule.rows"] / passes
    encode_ns = self_ns["cli.encode"] + self_ns["cli.command"]
    analysis = ("schedule.compare_methods", "schedule.rate_sweep", "schedule.chord_gap",
                "schedule.trade_surplus")
    m = {
        "core.intrinsic_value.calls": leaf_calls["core.intrinsic_value"],
        "core.intrinsic_value.ns_per_call": ratio(leaf_ns["core.intrinsic_value"],
                                                  leaf_calls["core.intrinsic_value"]),
        "core.intrinsic_depreciation.calls": leaf_calls["core.intrinsic_depreciation"],
        "core.intrinsic_depreciation.ns_per_call": ratio(
            leaf_ns["core.intrinsic_depreciation"], leaf_calls["core.intrinsic_depreciation"]),
        "core.self_s": sum(ns for leaf, ns in leaf_ns.items() if leaf.startswith("core.")) / 1e9,
        "classic.book_value.calls": leaf_calls["classic.book_value"],
        "classic.book_value.ns_per_call": ratio(leaf_ns["classic.book_value"],
                                                leaf_calls["classic.book_value"]),
        "classic.self_s": leaf_ns["classic.book_value"] / 1e9,
        "schedule.build_schedule.calls": calls["schedule.build_schedule"],
        "schedule.rows": rows,
        "schedule.build_schedule.self_s": self_ns["schedule.build_schedule"] / 1e9,
        "schedule.build_schedule.self_ns_per_row": ratio(self_ns["schedule.build_schedule"], rows),
        "schedule.analysis.self_s": sum(self_ns[n] for n in analysis) / 1e9,
        "cli.parse.s": self_ns["cli.parse"] / 1e9,
        "cli.parse.ms_per_cmd": ratio(self_ns["cli.parse"], calls["cli.main"]) / 1e6,
        "cli.load.s": self_ns["cli.load"] / 1e9,
        "cli.load.bytes_in": tracer.counts["cli.load.bytes_in"] / passes,
        "cli.record.calls": calls["cli.record"],
        "cli.record.self_s": self_ns["cli.record"] / 1e9,
        "cli.encode.s": encode_ns / 1e9,
        "cli.encode.bytes_out": bytes_out,
        "cli.encode.ns_per_byte": ratio(encode_ns, bytes_out),
        "cli.records.ok": calls["cli.record"] - sum(errors.values()),
    }
    for cls in RECORD_ERROR_CLASSES:
        m[f"cli.records.failed.{cls}"] = errors[cls]
    # records the batch command turned away before validation: empty and duplicate ids
    m["cli.records.failed.id_check"] = records - calls["cli.record"]
    m["trace.wall_s"] = wall_ns / 1e9
    m["trace.unattributed_s"] = (self_ns["pass"] + self_ns["cli.main"]) / 1e9
    return m
