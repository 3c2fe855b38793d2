"""Output checker, independent of the package's closed forms.

Values are recomputed here from the textbook ratio of compound factors
(1+r)^x and compared with what the program printed; nothing in
`assetval` is imported. Each function returns one message per failed
record, command or library call, so its length is the failure count.
"""

from __future__ import annotations

import csv
import io
import json

from gen import Command, Record

ROUNDING = 5.0001e-5  # outputs carry 4 decimals, rounded


def parse_rate(token: str) -> float:
    text = token.strip()
    if text.endswith("%"):
        return float(text[:-1].strip()) * 0.01
    return float(text)


def ref_value(cost: float, life: float, rate: float, age: float) -> float:
    """Intrinsic value cost * ((1+r)^l - (1+r)^a) / ((1+r)^l - 1)."""
    if rate == 0:
        return cost * (1.0 - age / life)
    grow_l = (1.0 + rate) ** life
    return cost * (grow_l - (1.0 + rate) ** age) / (grow_l - 1.0)


def ref_costs(cost: float, life: float, rate: float, age: float) -> tuple[float, float]:
    """Present and delayed cost of the replacement perpetuity (both < 0)."""
    grow_l = (1.0 + rate) ** life
    return -cost * grow_l / (grow_l - 1.0), -cost * (1.0 + rate) ** age / (grow_l - 1.0)


def ref_books(method: str, cost: float, life: int, rate: float | None) -> list[float]:
    """Book values at the end of periods 1..life."""
    if method == "intrinsic":
        return [ref_value(cost, life, rate, n) for n in range(1, life + 1)]
    if method == "sl":
        return [cost * (1.0 - n / life) for n in range(1, life + 1)]
    if method == "ddb":
        return [cost * (1.0 - 2.0 / life) ** n for n in range(1, life + 1)]
    digits = life * (life + 1) // 2
    return [cost * (digits - (n * life - n * (n - 1) // 2)) / digits for n in range(1, life + 1)]


def tolerance(cost: float, rounded: bool) -> float:
    """Rounding to 4 decimals plus the reference's own error, which is
    about 1e-16 / rate relative to cost and well below 1e-10 here."""
    return (ROUNDING if rounded else 0.0) + 1e-9 * cost


def schedule_problem(method: str, cost: float, life: int, rate: float | None,
                     expenses: list[float], books: list[float], rounded: bool) -> str | None:
    """Check one schedule; returns a reason, or None when it is correct."""
    if len(books) != life or len(expenses) != life:
        return f"{len(books)} rows, expected {life}"
    tol = tolerance(cost, rounded)
    ref = ref_books(method, cost, life, rate)
    prev_ref = prev = cost
    for n, (exp, book, want) in enumerate(zip(expenses, books, ref), start=1):
        if abs(book - want) > tol:
            return f"period {n}: book {book!r}, expected {want!r}"
        if abs(exp - (want - prev_ref)) > 2 * tol:
            return f"period {n}: expense {exp!r}, expected {want - prev_ref!r}"
        if book > prev + tol or book < -tol or exp > tol:
            return f"period {n}: book {book!r} after {prev!r} is not a non-increasing, non-negative run"
        prev_ref, prev = want, book
    if method != "ddb" and abs(books[-1]) > tol:
        return f"final book {books[-1]!r} is not 0"
    if method == "intrinsic" and abs(sum(expenses) + cost) > life * ROUNDING + tol:
        return f"expenses sum to {sum(expenses)!r}, expected {-cost!r}"
    return None


# ------------------------------------------------------------------ batch


def expected_outcomes(records: list[Record]) -> tuple[dict[str, Record], dict[str, Record]]:
    """Ids the program must accept and ids it must report in `errors`.

    Rejections keyed as the program names them: the stripped id, or
    `<row N>` for an empty one."""
    valid: dict[str, Record] = {}
    rejected: dict[str, Record] = {}
    for idx, rec in enumerate(records, start=1):
        rid = rec.id.strip()
        if rec.kind == "empty_id":
            rejected[f"<row {idx}>"] = rec
        elif rec.kind == "valid":
            valid[rid] = rec
        elif rec.kind == "duplicate_id":
            rejected.setdefault(rid, rec)
        else:
            rejected[rid] = rec
    return valid, rejected


def _record_inputs(rec: Record) -> tuple[float, int, float, float]:
    age = float(rec.age) if rec.age is not None else 0.0
    return float(rec.cost), int(float(rec.lifetime)), parse_rate(rec.rate), age


def _check_entries(records: list[Record], entries: dict[str, list[tuple]],
                   error_ids: list[str]) -> list[str]:
    """entries: id -> [(age or None when not reported, value, expenses, books)]."""
    valid, rejected = expected_outcomes(records)
    problems = []
    error_set = set(error_ids)
    for rid, rec in valid.items():
        got = entries.get(rid)
        if not got:
            problems.append(f"{rid}: valid record missing from entries"
                            + (" (rejected)" if rid in error_set else ""))
            continue
        if len(got) != 1:
            problems.append(f"{rid}: appears {len(got)} times in entries")
            continue
        age, value, expenses, books = got[0]
        cost, life, rate, want_age = _record_inputs(rec)
        want = ref_value(cost, life, rate, want_age)
        if age is not None and age != want_age:
            problems.append(f"{rid}: age {age!r}, expected {want_age!r}")
        elif abs(value - want) > tolerance(cost, True):
            problems.append(f"{rid}: value {value!r}, expected {want!r}")
        else:
            why = schedule_problem("intrinsic", cost, life, rate, expenses, books, True)
            if why:
                problems.append(f"{rid}: {why}")
    for rid, rec in rejected.items():
        if rid not in error_set:
            problems.append(f"{rid}: malformed record ({rec.kind}) was not reported in errors")
    for rid in error_set - valid.keys() - rejected.keys():
        problems.append(f"{rid}: unexpected entry in errors")
    for rid in entries.keys() - valid.keys():
        if rid not in rejected:
            problems.append(f"{rid}: unexpected id in entries")
    return problems


def check_batch_json(records: list[Record], text: str) -> list[str]:
    try:
        payload = json.loads(text)["payload"]
        entries: dict[str, list] = {}
        for e in payload["entries"]:
            rows = e["schedule"]
            entries.setdefault(e["id"], []).append(
                (e["age"], e["value"], [r["expense"] for r in rows], [r["book_value"] for r in rows])
            )
            if [r["period"] for r in rows] != list(range(1, len(rows) + 1)):
                return [f"{e['id']}: periods are not 1..{len(rows)}"]
        error_ids = [err["id"] for err in payload["errors"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable JSON report: {exc!r}"]
    return _check_entries(records, entries, error_ids)


def check_batch_csv(records: list[Record], text: str, stderr: str) -> list[str]:
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != ["id", "value", "period", "expense", "book_value"]:
        return ["CSV report header is wrong"]
    entries: dict[str, list] = {}
    last_id = None
    try:
        for rid, value, period, expense, book in reader:
            if rid != last_id:
                entries.setdefault(rid, []).append((None, float(value), [], []))
                last_id = rid
            entry = entries[rid][-1]
            if int(period) != len(entry[2]) + 1 or float(value) != entry[1]:
                return [f"{rid}: rows are not one run of periods 1..l with one value"]
            entry[2].append(float(expense))
            entry[3].append(float(book))
    except ValueError as exc:
        return [f"unreadable CSV report: {exc!r}"]
    error_ids = [line.partition(": ")[0] for line in stderr.splitlines() if line]
    return _check_entries(records, entries, error_ids)


# -------------------------------------------------------------------- cli


def _table(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [line.split() for line in text.splitlines()]
    return lines[0], lines[1:]


def _grid(cmd: Command, text: str) -> tuple[list[str], list[list[str]]]:
    if cmd.fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        return rows[0], rows[1:]
    return _table(text)


def _close(got: float, want: float, cost: float) -> bool:
    return abs(got - want) <= tolerance(max(cost, abs(want)), True)


def check_command(cmd: Command, code: int, text: str) -> str | None:
    """Check one cli-short command; returns a reason, or None when correct."""
    if code != 0:
        return f"exit code {code}"
    try:
        return _command_problem(cmd, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def _command_problem(cmd: Command, text: str) -> str | None:
    p, cost, life = cmd.params, cmd.cost, cmd.life
    payload = json.loads(text)["payload"] if cmd.fmt == "json" else None
    if cmd.name == "value":
        want = {"value": ref_value(cost, life, p["rate"], p["age"])}
        if p["detail"]:
            want["present_cost"], want["delayed_cost"] = ref_costs(cost, life, p["rate"], p["age"])
        if payload is not None:
            got = {k: payload["amount" if k == "value" else k] for k in want}
        elif cmd.fmt == "csv":
            header, rows = _grid(cmd, text)
            got = dict(zip(header, map(float, rows[0])))
        else:
            lines = text.splitlines()
            got = {"value": float(lines[0])}
            got.update((k, float(v)) for k, v in (line.split() for line in lines[1:]))
    elif cmd.name == "surplus":
        buyer = ref_value(cost, life, p["buyer"], p["age"])
        seller = ref_value(cost, life, p["seller"], p["age"])
        want = {"buyer_value": buyer, "seller_value": seller, "surplus": buyer - seller}
        if payload is not None:
            got = {k: payload[k] for k in want}
        elif cmd.fmt == "csv":
            header, rows = _grid(cmd, text)
            got = dict(zip(header, map(float, rows[0])))
        else:
            got = {k: float(v) for k, v in (line.split() for line in text.splitlines())}
    elif cmd.name == "sweep":
        return _sweep_problem(cmd, text, payload)
    else:
        return _books_problem(cmd, text, payload)
    if got.keys() != want.keys():
        return f"fields {sorted(got)}, expected {sorted(want)}"
    for k, w in want.items():
        if not _close(got[k], w, cost):
            return f"{k} {got[k]!r}, expected {w!r}"
    return None


def _sweep_problem(cmd: Command, text: str, payload: dict | None) -> str | None:
    p, cost, life = cmd.params, cmd.cost, int(cmd.life)
    want = {}
    for tok, rate in zip(p["tokens"], p["rates"]):
        values = [ref_value(cost, life, rate, a) for a in range(life + 1)]
        gap = max(v - cost * (1.0 - a / life) for a, v in enumerate(values))
        want[tok] = (values, gap)
    if payload is not None:
        got = {tok: (payload["values"][tok], payload["chord_gap"][tok]) for tok in payload["values"]}
    else:
        header, rows = _grid(cmd, text)
        if header != ["age"] + p["tokens"] or rows[-1][0] != "chord_gap":
            return f"header {header}"
        if [r[0] for r in rows[:-1]] != [str(a) for a in range(life + 1)]:
            return "age column is not 0..l"
        got = {tok: ([float(r[i]) for r in rows[:-1]], float(rows[-1][i]))
               for i, tok in enumerate(p["tokens"], start=1)}
    if got.keys() != want.keys():
        return f"rates {sorted(got)}, expected {sorted(want)}"
    for tok, (values, gap) in want.items():
        got_values, got_gap = got[tok]
        if len(got_values) != life + 1:
            return f"{tok}: {len(got_values)} ages, expected {life + 1}"
        for a, (g, w) in enumerate(zip(got_values, values)):
            if not _close(g, w, cost):
                return f"{tok} age {a}: {g!r}, expected {w!r}"
        if not _close(got_gap, gap, cost):
            return f"{tok} chord_gap {got_gap!r}, expected {gap!r}"
    return None


def _books_problem(cmd: Command, text: str, payload: dict | None) -> str | None:
    """compare and schedule: book values per method, plus expenses for schedule."""
    p, cost, life = cmd.params, cmd.cost, int(cmd.life)
    methods = p["methods"]
    expenses = None
    if cmd.name == "schedule":
        if payload is not None:
            rows = payload["rows"]
            periods = [r["period"] for r in rows]
            books = {methods[0]: [r["book_value"] for r in rows]}
            expenses = [r["expense"] for r in rows]
        else:
            header, rows = _grid(cmd, text)
            if header != ["period", "expense", "book_value"]:
                return f"header {header}"
            periods = [int(r[0]) for r in rows]
            books = {methods[0]: [float(r[2]) for r in rows]}
            expenses = [float(r[1]) for r in rows]
    elif payload is not None:
        periods, books = payload["periods"], payload["book_values"]
    else:
        header, rows = _grid(cmd, text)
        if header != ["period"] + methods:
            return f"header {header}"
        periods = [int(r[0]) for r in rows]
        books = {m: [float(r[i]) for r in rows] for i, m in enumerate(methods, start=1)}
    if periods != list(range(1, life + 1)):
        return "periods are not 1..l"
    if list(books) != methods:
        return f"methods {list(books)}, expected {methods}"
    for m, got in books.items():
        rate = p["rate"] if m == "intrinsic" else None
        # compare prints books only; its expenses are the books' differences
        exp = expenses or [b - a for a, b in zip([cost] + got[:-1], got)]
        why = schedule_problem(m, cost, life, rate, exp, got, True)
        if why:
            return f"{m}: {why}"
    return None


# ---------------------------------------------------------- library calls


def check_value(cost: float, life: float, rate: float, age: float, got: float) -> str | None:
    want = ref_value(cost, life, rate, age)
    if abs(got - want) > tolerance(cost, False):
        return f"intrinsic_value({cost}, {life}, {rate}, {age}) = {got!r}, expected {want!r}"
    return None
