"""Command-line front end.

Subcommands: value, schedule, compare, sweep, batch, surplus. Every
subcommand takes --format {table,csv,json} and --deterministic (omits the
timestamp from JSON envelopes so identical invocations are byte-identical).

Exit codes: 0 success, 1 internal error, 2 input validation failure or
text that the output's encoding cannot hold, 3 batch run with at least one
failed record, 141 stdout closed by its reader (128 + SIGPIPE, as the shell
reports for a tool killed by it).

Money is rendered with exactly 4 decimal places (half-even). CSV output
uses '.' decimals, ',' separators, '\\n' line endings, and always carries
a header row.
"""

from __future__ import annotations

import functools
import io
import math
import os
import stat
import sys
# the C function that json.encoder re-exports as encode_basestring_ascii: bound from
# _json, writing JSON imports neither json nor the re that json's decoder imports
from _json import encode_basestring_ascii as _json_str
from collections.abc import Callable, Iterable, Sequence
from contextlib import nullcontext
from itertools import chain
from operator import itemgetter, sub
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import __version__
from .classic import Method, _book_curve
from .core import AssetSpec, DiscountRate, InvalidInput, delayed_present_cost, intrinsic_value, present_cost
# chord_gap, compare_methods and trade_surplus are not called here; the benchmark's tracer
# patches them by name
from .schedule import (MAX_PERIODS, _book_columns, build_schedule, chord_gap, compare_methods,
                       rate_sweep, trade_surplus)

if TYPE_CHECKING:  # for annotations: cmd_batch imports it, so that only batch pays for it
    from pathlib import Path

METHOD_TOKENS = {
    "intrinsic": Method.INTRINSIC,
    "sl": Method.STRAIGHT_LINE,
    "ddb": Method.DOUBLE_DECLINING,
    "syd": Method.SUM_OF_YEARS,
}


class CliError(InvalidInput):
    """Validation failure whose message names the offending flag. Exit 2."""


def _money(x: float) -> float:
    """x rounded for JSON as "%.4f" rounds it, zero without a sign."""
    return round(x, 4) + 0.0


def _parse_number(token: str, flag: str, typed: str | None = None) -> float:
    """token as a finite float; errors quote typed, the text as the user gave
    it, if token is a part of it."""
    try:
        value = float(token)
    except ValueError:
        raise CliError(f"{flag}: cannot parse number {token if typed is None else typed!r}") from None
    if not math.isfinite(value):
        raise CliError(f"{flag}: must be finite, got {token if typed is None else typed!r}")
    return value + 0.0  # '-0' is zero without a sign, as JSON writes it


def parse_rate(token: str, flag: str) -> DiscountRate:
    """Accept a fraction ('0.2') or a percentage ('20%')."""
    text = token.strip()
    scale = 1.0
    if text.endswith("%"):
        text = text[:-1].strip()
        scale = 0.01
    value = _parse_number(text, flag, token) * scale
    if value < 0:
        raise CliError(f"{flag}: rate must be non-negative, got {token!r}")
    return DiscountRate(value)


def parse_asset(cost_token: str, life_token: str) -> AssetSpec:
    cost = _parse_number(cost_token, "--cost")
    life = _parse_number(life_token, "--life")
    return AssetSpec(cost=cost, lifetime=life)


def _split(text: str) -> list[str]:
    """The non-blank items of a comma list, stripped."""
    return [t.strip() for t in text.split(",") if t.strip()]


def _write_json(write, obj, pad: str = "\n") -> None:
    """Pass json.dumps(obj, indent=2) to write, at the indent of pad ("\n"
    and spaces): dicts key by key and iterators item by item, so an iterator
    under dicts is consumed as it is written; a list (ages, periods, rates:
    ints and floats only) in one piece from its items' reprs; a callable (a
    batch entry, a schedule, a money list) returns its own text given pad;
    a str, float or int (payloads hold no other scalar) as json.dumps writes it.
    Each of these leaves reaches write as one text. It dispatches on the exact
    type: payloads hold no subclass of these."""
    kind = type(obj)
    if kind is dict:
        opener, closer, items = "{", "}", ((f"{_json_str(k)}: ", v) for k, v in obj.items())
    elif kind is float or kind is int:
        write(repr(obj))
        return
    elif kind is str:
        write(_json_str(obj))
        return
    elif kind is list:
        write(_json_list("%r", len(obj), pad) % tuple(obj) if obj else "[]")
        return
    elif callable(obj):
        write(obj(pad))
        return
    else:  # an iterator
        opener, closer, items = "[", "]", (("", v) for v in obj)
    inner = pad + "  "
    lead = opener + inner
    for key, value in items:
        write(lead + key)
        _write_json(write, value, inner)
        lead = "," + inner
    write(pad + closer if lead[0] == "," else opener + closer)


def _emit_json(out, command: str, payload: dict, deterministic: bool) -> None:
    env: dict = {"tool_version": __version__, "command": command}
    if not deterministic:
        from datetime import datetime, timezone

        env["generated_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    env["payload"] = payload
    _write_json(out.write, env)
    out.write("\n")


def _emit_csv(out, header: list[str], body: str) -> None:
    out.write(_csv_line()(header)[:-2] + "\n")
    out.write(body)


def _table_line(template: str, widths: list[int]) -> str:
    """A CSV line template ("%d", "%.4f" and text fields) as a table's: each field
    right-justified at its width after two spaces, but a money field one wider after
    one space, so that _fill can write a "-0.0000" as " 0.0000" in its place."""
    return template and "".join(
        " %%%d.4f" % (w + 1) if f == "%.4f" else "  %%%dd" % w if f == "%d" else "  " + f.rjust(w)
        for f, w in zip(template[:-1].split(","), widths)) + "\n"


def _display_width(text: str) -> int:
    """text's width in terminal cells: East Asian wide and fullwidth characters
    take two, every other character one."""
    if text.isascii():
        return len(text)
    from unicodedata import east_asian_width

    return sum(2 if east_asian_width(c) in ("W", "F") else 1 for c in text)


def _emit_table(out, header: list[str], row: str, n: int, tail: str, cells: Iterable,
                widest: Sequence) -> None:
    """(row * n + tail) % cells, money as _fill writes it, each cell right-justified
    under header, in one fill at each column's width: the terminal cells of its
    header or its widest text in widest, the cells of row * 2 + tail. row starts
    with a period or an age, so a line drops only its template's two-space lead.
    A header's C0 controls and DEL (a --rates token may hold a tab, CR or LF) are
    written and measured as repr escapes them, so the header stays one line."""
    if not "".join(header).isprintable():
        escapes = {c: repr(chr(c))[1:-1] for c in (*range(32), 127)}
        header = [h.translate(escapes) for h in header]
    sample = _fill(row * 2 + tail, widest)[:-1].split("\n")
    spans = list(map(_display_width, header))
    widths = list(map(max, spans, *(map(len, line.split(",")) for line in sample)))
    out.write("  ".join([h + " " * (w - s) for h, w, s in zip(header, widths, spans)]).rstrip() + "\n")
    out.write(_fill(_table_line(row, widths)[2:] * n + _table_line(tail, widths)[2:], cells, " 0.0000"))


def _fill(template: str, cells: Iterable, zero: str = "0.0000") -> str:
    """template % cells, money that rounds to zero written as zero, without its sign:
    money cells are "%.4f" and no other cell ("%d", text) holds "-0.0000", so each is
    a whole cell. The template's own text (chord_gap, value's and surplus's labels)
    is a command's fixed names, with no "%" and no "-0.0000"."""
    return (template % tuple(cells)).replace("-0.0000", zero)


def _render(out, args, command: str, header: list[str], row: str, cells: Iterable[float],
            payload: Callable[[], dict], *, n: int = 1, tail: str = "",
            widest: Callable[[], Sequence] | None = None, labels: list[str] | None = None) -> None:
    """Write one command's result in the format --format names, building only what it writes.

    header and (row * n + tail) % cells are the table: row is the CSV template
    of each of its n lines and tail of a last line (sweep's chord gaps), whose
    money cells "%.4f" writes and whose other cells are periods ("%d") or text.
    widest(), called only for --format table, gives the cells of row * 2 +
    tail that hold each column's widest text: _widest's two lines, then the
    tail's cells. payload() is what --format json writes. With labels (value,
    surplus: one line of money only), --format table prints one line per
    column, the label and the cell, or the bare cell where the label is empty,
    from one fill.
    """
    if args.format == "json":
        _emit_json(out, command, payload(), args.deterministic)
    elif args.format == "csv":
        _emit_csv(out, header, _fill(row * n + tail, cells))
    elif labels is None:
        _emit_table(out, header, row, n, tail, cells, widest())
    else:
        width = max(map(len, labels))
        out.write(_fill("".join(f"{label.ljust(width)}  %.4f\n" if label else "%.4f\n"
                                for label in labels), cells))


def _widest(last: int, *columns: Sequence[float]) -> tuple:
    """The cells of two lines, last and each column's max, then last and each
    column's min: the widest text of a period or age is its column's last, and
    of money its column's max or min, as "%.4f" text grows with |x| on each sign."""
    return (last, *map(max, columns), last, *map(min, columns))


# The zeros after a money cell's first decimal, in JSON text that "%.4f" wrote:
# each such cell ends at "," or "\n". A pattern, not a compiled one: re
# compiles it on first use, so a command that writes no money list does not
# pay for it at start-up.
_SURPLUS_ZEROS = r"0(?:00(?<=\.\d000)|0(?<=\.\d[1-9]00)|(?<=\.\d\d[1-9]0))(?=[,\n])"


def _json_money(template: str, cells: Sequence, cost: float) -> str:
    """template % cells, each "%.4f" cell as repr(_money(x)) writes it. No money cell
    exceeds cost by more than a few ulps, so under the cost guard below none reaches
    1e11; there "%.4f" % x has at most 15 significant digits, so it is the decimal
    nearest round(x, 4), which repr prints with its trailing zeros cut."""
    if cost >= 5e10:  # %r of each cell; "%d" prints a rounded period as itself
        return template.replace("%.4f", "%r") % tuple(map(_money, cells))
    import re  # here, so that only a command that writes a money list imports it

    return re.sub(_SURPLUS_ZEROS, "", _fill(template, cells))


@functools.cache  # on the few rows and pads that payloads hold, never on a row count
def _item(row: str, pad: str) -> str:
    """row, json.dumps's text of an item (or of a dict's keys), led by "," and
    indented as the items of a list (or keys of a dict) that _write_json writes at pad."""
    inner = pad + "  "
    return "," + inner + row.replace("\n", inner)


def _json_list(row: str, n: int, pad: str) -> str:
    """The text of a list of n > 0 items, each row, as _write_json writes it at pad."""
    item = _item(row, pad)
    return "[" + item[1:] + item * (n - 1) + pad + "]"


def _json_rows(cells: Sequence, cost: float, row: str = "%.4f") -> Callable[[str], str]:
    """A list, never empty, as _write_json writes it at pad: each item is row
    % its share of cells, with "%.4f" for each money cell. Money, all finite
    and within cost, is written as _money rounds it."""
    return lambda pad: _json_money(_json_list(row, len(cells) // row.count("%"), pad), cells, cost)


_ROW = '{\n  "period": %d,\n  "expense": %.4f,\n  "book_value": %.4f\n}'  # a schedule row
_CSV_ROW = "%d,%.4f,%.4f\n"  # a schedule row's CSV line


_EXPENSE, _BOOK = itemgetter(0), itemgetter(1)  # a schedule row's cells


def _row_cells(rows: Sequence[tuple[float, float]]) -> list:
    """Each row's period (from 1), expense and book_value, in one flat list made by
    one slice assignment per column: no object per row, which the cyclic collector
    would track and walk, as zip(*rows) makes an iterator per row."""
    n = len(rows)
    cells = [None] * (3 * n)
    cells[0::3] = range(1, n + 1)
    cells[1::3] = map(_EXPENSE, rows)
    cells[2::3] = map(_BOOK, rows)
    return cells


def _period_text(first: str, row: str) -> Callable[[int], str]:
    """A batch's period text: text(n) is first, then row once for each period 2..n,
    each with its period ("%d") written in and its money ("%.4f") left to fill.
    It is cut from one text that grows to the largest n asked for, by one fill of
    the periods it lacks; row n's end is computed, so nothing is kept per period,
    and a cut at the text's end is the text itself, not a copy."""
    fixed = len(row) - 2  # a row's length without its period
    base = len(first) - len(row)
    first, row = first.replace("%.4f", "%%.4f"), row.replace("%.4f", "%%.4f")
    text, m = first % 1, 1

    def cut(n: int) -> str:
        nonlocal text, m
        if n > m:
            text += row * (n - m) % tuple(range(m + 1, n + 1))
            m = n
        d = len(str(n))  # the digits of 1..n: d per period, less 10**k - 1 for each 0 < k < d
        return text[:base + n * (fixed + d) - (10**d - 1) // 9 + d]

    return cut


def _batch_json(texts: dict, rec_id: str, cost: float, age: float, value: float, rows: Sequence,
                pad: str) -> str:
    """A batch entry as _write_json writes its dict of id, age, value (as _money
    rounds it) and schedule (as _json_rows writes its _ROW items) at pad. texts
    maps each pad to the batch's _period_text of the entries at it."""
    inner = pad + "  "
    text = texts.get(pad)
    if text is None:
        item = _item(_ROW, inner)
        text = texts[pad] = _period_text(_item('"value": %.4f,\n"schedule": [', pad) + item[1:], item)
    money = _json_money(text(len(rows)), (value, *chain.from_iterable(rows)), cost)
    # the id and age go in after the cut, which would take zeros from an id such as "1.5000,"
    return f'{{{inner}"id": {_json_str(rec_id)},{inner}"age": {age!r}{money}{inner}]{pad}}}'


@functools.cache
def _csv_line() -> Callable[[Iterable], str]:
    """The writerow of every CSV line's writer (headers, batch prefixes), returning the row's
    text; with a "\r\n" terminator, every Python version quotes a cell holding CR or LF.
    csv.writer is _csv.writer, whose defaults are the excel dialect's; csv would import re."""
    from _csv import writer

    return writer(SimpleNamespace(write=str), lineterminator="\r\n").writerow


def _schedule_csv(text: Callable[[int], str], rec_id: str, value: float,
                  rows: Sequence[tuple[float, float]]) -> str:
    """A batch record's CSV lines, each ending in "\\n": id and value as the csv
    module writes them, then period (from 1), expense and book_value, money as
    _fill writes it. rows is a schedule's, never empty and all finite; text is
    the batch's _period_text of _CSV_ROW."""
    prefix = _csv_line()((rec_id, _fill("%.4f", (value,)), ""))[:-2]  # "id,value,"
    body = _fill(text(len(rows)), chain.from_iterable(rows))
    # the id goes in after the fill, which would change an id holding "-0.0000"
    return prefix + body.replace("\n", "\n" + prefix, len(rows) - 1)


# ---------------------------------------------------------------- commands


def cmd_value(args, out) -> int:
    asset = parse_asset(args.cost, args.life)
    rate = parse_rate(args.rate, "--rate")
    age = _parse_number(args.age, "--age")
    value = intrinsic_value(asset, rate, age).amount
    detail = {
        "present_cost": present_cost(asset, rate).amount,
        "delayed_cost": delayed_present_cost(asset, rate, age).amount,
    } if args.detail else {}
    _render(out, args, "value", ["value", *detail], "%.4f" + ",%.4f" * len(detail) + "\n",
            (value, *detail.values()),
            lambda: {"kind": "intrinsic_value", "age": age, "amount": _money(value),
                     **{k: _money(v) for k, v in detail.items()}},
            labels=["", *detail])
    return 0


def _parse_method(token: str, flag: str) -> Method:
    try:
        return METHOD_TOKENS[token]
    except KeyError:
        raise CliError(
            f"{flag}: unknown method {token!r} (expected one of {', '.join(METHOD_TOKENS)})"
        ) from None


def cmd_schedule(args, out) -> int:
    asset = parse_asset(args.cost, args.life)
    method = _parse_method(args.method, "--method")
    rate = None if args.rate is None else parse_rate(args.rate, "--rate")
    rows = build_schedule(asset, method, rate).rows
    cells = _row_cells(rows)
    _render(out, args, "schedule", ["period", "expense", "book_value"], _CSV_ROW, cells,
            lambda: {"method": method.value,
                     "asset": {"cost": asset.cost, "lifetime": asset.lifetime},
                     "rows": _json_rows(cells, asset.cost, _ROW),
                     # classical schedules do not use the rate
                     **({"rate": rate.rate} if method is Method.INTRINSIC else {})},
            n=len(rows), widest=lambda: _widest(len(rows), cells[1::3], cells[2::3]))
    return 0


def cmd_compare(args, out) -> int:
    asset = parse_asset(args.cost, args.life)
    tokens = _split(args.methods)
    methods = [_parse_method(t, "--methods") for t in tokens]
    rate = None if args.rate is None else parse_rate(args.rate, "--rate")
    books = _book_columns(asset, methods, rate)
    periods = range(1, len(books[0]) + 1)
    _render(out, args, "compare", ["period"] + tokens, "%d" + ",%.4f" * len(books) + "\n",
            chain.from_iterable(zip(periods, *books)),
            lambda: {"asset": {"cost": asset.cost, "lifetime": asset.lifetime},
                     "periods": list(periods),
                     "book_values": {tok: _json_rows(b, asset.cost) for tok, b in zip(tokens, books)},
                     **({} if rate is None else {"rate": rate.rate})},
            n=len(periods), widest=lambda: _widest(len(periods), *books))
    return 0


def cmd_sweep(args, out) -> int:
    asset = parse_asset(args.cost, args.life)
    tokens = _split(args.rates)
    rates = [parse_rate(t, "--rates") for t in tokens]
    values = rate_sweep(asset, rates).values
    ages = range(len(values[0]))
    chord = _book_curve(asset, Method.STRAIGHT_LINE, ages)
    gaps = [max(map(sub, curve, chord)) for curve in values]  # bit for bit as chord_gap
    row = ",%.4f" * len(gaps) + "\n"
    _render(out, args, "sweep", ["age"] + tokens, "%d" + row,
            chain(chain.from_iterable(zip(ages, *values)), gaps),
            lambda: {"asset": {"cost": asset.cost, "lifetime": asset.lifetime}, "ages": list(ages),
                     "rates": [r.rate for r in rates],
                     "values": {tok: _json_rows(v, asset.cost) for tok, v in zip(tokens, values)},
                     "chord_gap": {tok: _money(g) for tok, g in zip(tokens, gaps)}},
            n=len(ages), tail="chord_gap" + row, widest=lambda: (*_widest(ages[-1], *values), *gaps))
    return 0


def cmd_surplus(args, out) -> int:
    asset = parse_asset(args.cost, args.life)
    seller = parse_rate(args.seller_rate, "--seller-rate")
    buyer = parse_rate(args.buyer_rate, "--buyer-rate")
    age = _parse_number(args.age, "--age")
    buyer_value = intrinsic_value(asset, buyer, age).amount
    seller_value = intrinsic_value(asset, seller, age).amount
    surplus = buyer_value - seller_value  # bit for bit as trade_surplus
    header = ["buyer_value", "seller_value", "surplus"]
    _render(out, args, "surplus", header, "%.4f,%.4f,%.4f\n", (buyer_value, seller_value, surplus),
            lambda: {"age": age, "seller_rate": seller.rate, "buyer_rate": buyer.rate,
                     "buyer_value": _money(buyer_value), "seller_value": _money(seller_value),
                     "surplus": _money(surplus)},
            labels=header)
    return 0


# ------------------------------------------------------------------ batch

REGISTRY_FIELDS = ("id", "cost", "lifetime", "rate")  # age is optional


def _load_registry(path: Path) -> list[dict]:
    """Rows as dicts with string values; format sniffed by extension."""
    suffix = path.suffix.lower()
    if suffix == ".csv":
        import csv

        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            try:
                header = reader.fieldnames or []
                missing = [f for f in REGISTRY_FIELDS if f not in header]
                if missing:
                    raise CliError(f"--input: registry header missing column(s) {', '.join(missing)}")
                return list(reader)
            except csv.Error as exc:  # a cell over csv.field_size_limit(): cmd_batch's parse error
                raise ValueError(str(exc)) from None
    if suffix == ".json":
        import json

        records = json.loads(path.read_text(encoding="utf-8-sig"))
        if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
            raise CliError("--input: JSON registry must be an array of objects")
        return records
    raise CliError(f"--input: unsupported registry extension {suffix!r} (use .csv or .json)")


def _required(record: dict, name: str) -> str:
    """The record's token for a required field; absent, JSON null and a
    cell past the end of a short CSV row (DictReader's None) are missing."""
    token = record.get(name)
    if token is None:
        raise CliError(f"{name}: missing value")
    return str(token)


def _batch_record(record: dict) -> tuple[float, float, float, tuple[tuple[float, float], ...]]:
    """Validate one registry record; its cost, age, value and schedule rows."""
    extra = record.get(None)  # DictReader's key for the cells of a long CSV row
    if extra is not None:
        raise CliError(f"row has {len(extra)} cell(s) beyond the header: "
                       + ", ".join(map(repr, extra)))
    cost = _parse_number(_required(record, "cost"), "cost")
    lifetime = _parse_number(_required(record, "lifetime"), "lifetime")
    asset = AssetSpec(cost=cost, lifetime=lifetime)
    rate = parse_rate(_required(record, "rate"), "rate")
    age_token = record.get("age")
    age = 0.0 if age_token in (None, "") else _parse_number(str(age_token), "age")
    value = intrinsic_value(asset, rate, age).amount
    return cost, age, value, build_schedule(asset, Method.INTRINSIC, rate).rows


def cmd_batch(args, out) -> int:
    """Each registry record's value and schedule, or its error. JSON writes each
    entry as its record is computed, as one string (_batch_json) after its separator."""
    from pathlib import Path

    fd = created = records = None
    if args.output:
        # opened before any record is read, so that an unwritable output fails
        # at once, but emptied only after, since it may be the input
        try:
            try:
                fd, created = os.open(args.output, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), True
            except FileExistsError:
                fd = os.open(args.output, os.O_WRONLY)
        # UnicodeEncodeError: a name that the file system's encoding cannot hold
        except (OSError, UnicodeEncodeError) as exc:
            raise CliError(f"--output: cannot write {args.output!r} "
                           f"({getattr(exc, 'strerror', None) or exc})") from None
    try:
        records = _load_registry(Path(args.input))
    except InvalidInput:  # a bad header, shape or extension, already named
        raise
    # UnicodeEncodeError, an unencodable name, is a ValueError: caught ahead of that clause
    except (OSError, UnicodeEncodeError) as exc:
        raise CliError(f"--input: cannot read {args.input!r} "
                       f"({getattr(exc, 'strerror', None) or exc})") from None
    except (ValueError, RecursionError) as exc:
        # not UTF-8, not JSON, a CSV cell over csv.field_size_limit(), or JSON nested too deep
        raise CliError(f"--input: cannot parse {args.input!r} ({exc})") from None
    finally:
        if records is None and fd is not None:  # a failed load leaves no new, empty report
            os.close(fd)
            if created:
                os.remove(args.output)

    errors: list[dict] = []

    def checked_entries():
        seen: set[str] = set()
        for idx, record in enumerate(records, start=1):
            rec_id = "" if record.get("id") is None else str(record["id"]).strip()
            if not rec_id:
                errors.append({"id": f"<row {idx}>", "reason": "missing or empty id"})
            elif rec_id in seen:
                errors.append({"id": rec_id, "reason": "duplicate id"})
            else:
                seen.add(rec_id)
                try:
                    result = _batch_record({**record, "id": rec_id})
                except InvalidInput as exc:
                    errors.append({"id": rec_id, "reason": str(exc)})
                else:
                    yield rec_id, *result

    entries = checked_entries()
    # a 64 KiB buffer for --output, which gets a text per record, each often a few KB
    with open(fd, "w", encoding="utf-8", buffering=1 << 16) if fd is not None else nullcontext(out) as sink:
        if fd is not None and stat.S_ISREG(os.fstat(fd).st_mode):  # not a device or FIFO
            os.ftruncate(fd, 0)
        # JSON writes "errors" after "entries" and CSV prints it after the
        # rows, so the list is complete by the time it is written. Each record
        # fills only its money into the periods of one text per batch.
        if args.format == "csv":
            sink.write("id,value,period,expense,book_value\n")
            text = _period_text(_CSV_ROW, _CSV_ROW)
            for rec_id, _, _, value, rows in entries:
                sink.write(_schedule_csv(text, rec_id, value, rows))
        else:  # a batch report has no table layout: table writes JSON
            texts: dict = {}
            entries = (functools.partial(_batch_json, texts, *entry) for entry in entries)
            # errors holds dicts, which _write_json takes only as an iterator
            _emit_json(sink, "batch", {"entries": entries, "errors": iter(errors)}, args.deterministic)
    if args.format == "csv":
        for err in errors:  # one line each, whatever the id holds
            rec_id = err["id"].replace("\r", "\\r").replace("\n", "\\n")
            print(f"{rec_id}: {err['reason']}", file=sys.stderr)
    return 3 if errors else 0


# ------------------------------------------------------------------ parser

REQUIRED = {"required": True}
ASSET_FLAGS = {"--cost": REQUIRED, "--life": REQUIRED}
# schedule, compare and sweep take a whole number of periods
_PERIOD_FLAGS = {**ASSET_FLAGS,
                 "--life": {**REQUIRED, "help": f"whole number of periods, at most {MAX_PERIODS}"}}

# flag -> add_argument options, taken by every command ahead of its own flags.
# Here and in COMMANDS each flag is a store flag (one value, no type) or a
# store_true switch, the two kinds that _Parser._exact parses.
COMMON = {
    "--format": {"choices": ("table", "csv", "json"), "default": "table"},
    "--deterministic": {"action": "store_true",
                        "help": "omit the timestamp so identical runs are byte-identical"},
}

# name -> (help, {flag: add_argument options}); main runs cmd_<name>.
COMMANDS = {
    "value": ("intrinsic value at an age", {
        **ASSET_FLAGS, "--rate": REQUIRED, "--age": {"default": "0"},
        "--detail": {"action": "store_true", "help": "also report present and delayed cost"},
    }),
    "schedule": ("per-period depreciation schedule", {
        **_PERIOD_FLAGS, "--rate": {},
        "--method": {"required": True, "help": "intrinsic, sl, ddb or syd"},
    }),
    "compare": ("book values across methods", {
        **_PERIOD_FLAGS, "--rate": {},
        "--methods": {"required": True, "help": "comma list of intrinsic, sl, ddb, syd"},
    }),
    "sweep": ("intrinsic value across discount rates", {
        **_PERIOD_FLAGS, "--rates": {"required": True, "help": "comma list of per-period rates"},
    }),
    "surplus": ("buyer/seller valuation gap", {
        **ASSET_FLAGS, "--age": REQUIRED, "--seller-rate": REQUIRED, "--buyer-rate": REQUIRED,
    }),
    "batch": ("process an asset registry file", {
        "--input": {"required": True, "help": "CSV or JSON registry of assets"},
        "--output": {"help": "report file (default: stdout)"},
    }),
}


def _flag_plan(flag: str, options: dict) -> tuple[str, bool, object, bool, tuple | None]:
    """(dest, store_true, default, required, choices) of a COMMON or COMMANDS flag,
    as argparse's add_argument(flag, **options) sets them."""
    store_true = options.get("action") == "store_true"
    default = options.get("default", False if store_true else None)
    return (flag[2:].replace("-", "_"), store_true, default, options.get("required", False),
            options.get("choices"))


class _Parser:
    """The command line's parser, which parses a well-formed command without argparse.

    A well-formed argv is a command name, then only that command's option
    strings spelled in full, each store flag followed by a value that does
    not start with "-" (one of its choices, if it has any), with every
    required flag given; parse_args gives it, as a types.SimpleNamespace, the
    attributes argparse's own path gives it. Every other argv (-h, --version,
    --x=v, an abbreviation, a value starting with "-", a missing or extra
    token, a bad choice, "--") takes argparse's own path on the tree that
    _template() builds, so help, errors, their usage lines and exit codes
    stay argparse's own. Only such an argv imports argparse.
    """

    # name -> {option string: _flag_plan of it}, from COMMON and COMMANDS in the
    # order _template adds them; -h is not in it, so an argv that names it takes argparse's path
    plans = {name: {flag: _flag_plan(flag, options) for flag, options in {**COMMON, **flags}.items()}
             for name, (_, flags) in COMMANDS.items()}

    def parse_args(self, args: Sequence[str] | None = None):
        args = sys.argv[1:] if args is None else list(args)
        values = self._exact(args) if args else None
        if values is None:
            return _template().parse_args(args)
        return SimpleNamespace(**values)

    def _exact(self, args: list[str]) -> dict | None:
        """The namespace of args as a dict, or None if args are not of the exact form."""
        plan = self.plans.get(args[0])
        if plan is None:
            return None
        values = {"command": args[0]}
        tokens = iter(args[1:])
        for token in tokens:
            flag = plan.get(token)
            if flag is None:
                return None
            dest, store_true, _, _, choices = flag
            if store_true:
                values[dest] = True
                continue
            value = next(tokens, "-")  # a store flag with no value left bails
            if value.startswith("-") or choices is not None and value not in choices:
                return None
            values[dest] = value
        for dest, _, default, required, _ in plan.values():
            if dest not in values:
                if required:
                    return None
                values[dest] = default
        return values


@functools.cache
def _template():
    """The argparse.ArgumentParser tree of COMMON and COMMANDS, built once per
    process on the first argv that leaves the exact path."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="assetval",
        description="Intrinsic (time-value-of-money) valuation and depreciation of assets",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in COMMANDS.items():
        add = sub.add_parser(name, help=help_text).add_argument
        for flag, options in {**COMMON, **flags}.items():
            add(flag, **options)
    return parser


def build_parser() -> _Parser:
    """A new parser per call, so that an attribute set on it (a wrapped
    parse_args, say) stays on it. It holds nothing of its own: parsing reads
    the class's plans and, off the exact path, the process's one argparse tree,
    and writes only to the namespace it returns."""
    return _Parser()


def main(argv: list[str] | None = None, out: io.TextIOBase | None = None) -> int:
    out = out or sys.stdout
    stdout = out is sys.stdout
    args = build_parser().parse_args(argv)
    # An unbuffered stdout (python -u, PYTHONUNBUFFERED) is a text layer on a raw file,
    # which reports a write that a closing pipe cut short as a success; a buffered
    # writer on its fd writes the rest or raises BrokenPipeError. A buffered stdout
    # stays as it is, since it may hold text that a second writer would overtake.
    raw = stdout and isinstance(getattr(out, "buffer", None), io.RawIOBase)
    try:
        with open(out.fileno(), "w", encoding=out.encoding, errors=out.errors,
                  closefd=False) if raw else nullcontext(out) as out:
            # looked up at call time, so a wrapper set on the module takes effect
            code = globals()[f"cmd_{args.command}"](args, out)
            out.flush()
        return code
    except InvalidInput as exc:
        flag = "--life" if exc.field == "lifetime" else f"--{exc.field}"
        print(f"error: {flag}: {exc}" if exc.field else f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeEncodeError as exc:  # text that the sink's encoding cannot hold
        output = getattr(args, "output", None)  # batch's; its file is UTF-8, so only a surrogate fails there
        hint = " (--output writes UTF-8)" if hasattr(args, "output") and not output else ""
        print(f"error: {'--output' if output else 'stdout'}: cannot write "
              f"{exc.object[exc.start:exc.end]!r} in its encoding, {exc.encoding}{hint}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe. Point stdout at devnull so that the
        # interpreter's final flush of what is left in its buffer stays quiet.
        if stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:  # noqa: BLE001 - last-resort guard for exit code 1
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
