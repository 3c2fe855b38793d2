"""Seeded input generator for the benchmark.

Everything here depends only on the seed, so the same seed gives
byte-identical registry files and the same command stream and kernel plan.
The program under test only ever sees the files and argv built here.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

REGISTRY_RECORDS = 2_000
MALFORMED_SHARE = 0.01
MALFORMED_KINDS = (
    "negative_cost",
    "age_above_life",
    "bad_rate",
    "fractional_life",
    "duplicate_id",
    "empty_id",
)
CLI_COMMANDS = 1_200
CLI_FORMATS = ("table", "csv", "json")
METHODS = ("intrinsic", "sl", "ddb", "syd")
DAILY_LIFETIMES = (10_000, 30_000, 100_000)


@dataclass
class Record:
    """One registry record: the raw fields written to the file, plus what
    the benchmark expects the program to make of them."""

    id: str
    cost: str
    lifetime: str
    rate: str
    age: str | None  # None: no age given
    kind: str = "valid"  # "valid" or one of MALFORMED_KINDS


def _rate_token(rng: random.Random, rate: float) -> str:
    # About 30% of rates arrive as percent tokens, as spreadsheets export them.
    if rng.random() < 0.30:
        return f"{rate * 100:.10g}%"
    return f"{rate:.10g}"


def registry_records(seed: int, n: int = REGISTRY_RECORDS) -> list[Record]:
    """The batch workloads' registry.

    Half the assets are yearly with 1-40 year lives; the rest are 1-10
    years of quarterly or monthly periods. The per-period rate is an
    annual 1-30% divided by periods per year, so rate * lifetime stays
    below about 12, as in real registries.
    """
    rng = random.Random(f"registry-{seed}")
    records: list[Record] = []
    for i in range(n):
        periodicity = rng.choices((1, 4, 12), weights=(2, 1, 1))[0]
        years = rng.randint(1, 40) if periodicity == 1 else rng.randint(1, 10)
        lifetime = years * periodicity
        if rng.random() < 0.02:
            rate = 0.0
        else:
            rate = round(rng.uniform(0.01, 0.30), 4) / periodicity
        cost = round(10 ** rng.uniform(1.7, 4.7), 2)
        if rng.random() < 0.30:
            age = None
        elif rng.random() < 0.5:
            age = str(rng.randint(0, lifetime))
        else:
            age = f"{rng.uniform(0, lifetime):.2f}"
        records.append(
            Record(f"A{i:05d}", f"{cost:.2f}", str(lifetime), _rate_token(rng, rate), age)
        )
    n_bad = max(len(MALFORMED_KINDS), round(n * MALFORMED_SHARE))
    for j, idx in enumerate(sorted(rng.sample(range(1, n), n_bad))):
        _corrupt(rng, records, idx, MALFORMED_KINDS[j % len(MALFORMED_KINDS)])
    return records


def _corrupt(rng: random.Random, records: list[Record], idx: int, kind: str) -> None:
    rec = records[idx]
    rec.kind = kind
    if kind == "negative_cost":
        rec.cost = "-" + rec.cost
    elif kind == "age_above_life":
        rec.age = str(int(rec.lifetime) + rng.randint(1, 5))
    elif kind == "bad_rate":
        rec.rate = rng.choice(("n/a", "abc", "1.2.3", "%"))
    elif kind == "fractional_life":
        rec.lifetime = f"{int(rec.lifetime) + 0.5}"
        rec.age = None
    elif kind == "duplicate_id":
        earlier = [r for r in records[:idx] if r.kind == "valid"]
        rec.id = rng.choice(earlier).id
    elif kind == "empty_id":
        rec.id = rng.choice(("", "  "))


def write_registry_csv(records: list[Record], path: Path) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("id", "cost", "lifetime", "rate", "age"))
        for r in records:
            writer.writerow((r.id, r.cost, r.lifetime, r.rate, "" if r.age is None else r.age))


def write_registry_json(records: list[Record], path: Path) -> None:
    """JSON registry: numbers as JSON numbers where they parse, rates and
    malformed fields as strings, and no "age" key when the age is absent."""

    def num(token: str):
        try:
            value = float(token)
        except ValueError:
            return token
        return int(value) if value == int(value) and "." not in token else value

    out = []
    for r in records:
        obj = {"id": r.id, "cost": num(r.cost), "lifetime": num(r.lifetime), "rate": r.rate}
        if r.age is not None:
            obj["age"] = num(r.age)
        out.append(obj)
    path.write_text(json.dumps(out, indent=1) + "\n")


@dataclass
class Command:
    """One CLI invocation of the cli-short stream and its parsed inputs."""

    argv: list[str]
    name: str
    fmt: str
    cost: float
    life: float
    params: dict = field(default_factory=dict)


def _cli_rate(rng: random.Random) -> tuple[str, float]:
    rate = 0.0 if rng.random() < 0.05 else round(rng.uniform(0.005, 0.30), 4)
    return _rate_token(rng, rate), rate


def cli_commands(seed: int, n: int = CLI_COMMANDS) -> list[Command]:
    """Single-asset commands in all formats, yearly lifetimes up to 40.

    Every command, format and lifetime 1-40 appears equally often, and so
    does every sweep's rate count and comparison's method count, in an
    order shuffled by the seed, so the mix and its cost do not change with
    the seed; costs, rates, ages and which methods do. Classical-method
    lifetimes start at 2: a declining balance over one period is not a
    schedule anyone asks for (ROADMAP item 3a).
    """
    rng = random.Random(f"cli-{seed}")
    names = ("value", "surplus", "sweep", "compare", "schedule")
    # size: a sweep's rate count (1-5) or a comparison's method count (1-4)
    mix = [(names[i % 5], CLI_FORMATS[i // 5 % 3], 1 + i // 15 % 40, i // 5) for i in range(n)]
    rng.shuffle(mix)
    cmds = []
    for name, fmt, life, size in mix:
        cost = round(10 ** rng.uniform(1.7, 4.7), 2)
        params: dict = {}
        argv = [name, "--cost", f"{cost:.2f}"]
        if name == "value":
            if rng.random() < 0.2:
                life = life + 0.5
            token, rate = _cli_rate(rng)
            age = round(rng.uniform(0, life), 2)
            params.update(rate=rate, age=age, detail=rate > 0 and rng.random() < 0.25)
            argv += ["--life", f"{life:g}", "--rate", token, "--age", f"{age:.2f}"]
            if params["detail"]:
                argv.append("--detail")
        elif name == "surplus":
            seller_token, seller = _cli_rate(rng)
            buyer_token, buyer = _cli_rate(rng)
            age = round(rng.uniform(0, life), 2)
            params.update(seller=seller, buyer=buyer, age=age)
            argv += ["--life", str(life), "--age", f"{age:.2f}",
                     "--seller-rate", seller_token, "--buyer-rate", buyer_token]
        elif name == "sweep":
            pairs = [_cli_rate(rng) for _ in range(1 + size % 5)]
            params.update(tokens=[t for t, _ in pairs], rates=[r for _, r in pairs])
            argv += ["--life", str(life), "--rates", ",".join(params["tokens"])]
        elif name == "compare":
            life = max(life, 2)
            methods = rng.sample(METHODS, 1 + size % 4)
            token, rate = _cli_rate(rng)
            params.update(methods=methods, rate=rate)
            argv += ["--life", str(life), "--methods", ",".join(methods), "--rate", token]
        else:
            method = rng.choice(METHODS)
            if method != "intrinsic":
                life = max(life, 2)
            argv += ["--life", str(life), "--method", method]
            params.update(methods=[method], rate=None)
            if method == "intrinsic":
                token, rate = _cli_rate(rng)
                params["rate"] = rate
                argv += ["--rate", token]
        argv += ["--format", fmt]
        if fmt == "json" and rng.random() < 0.5:
            argv.append("--deterministic")
        cmds.append(Command(argv, name, fmt, cost, float(life), params))
    return cmds


@dataclass
class KernelPlan:
    """Library calls of one library-kernel pass."""

    daily: list[tuple[float, int, float]]  # (cost, lifetime in days, daily rate)
    compare: list[tuple[float, int, float]]  # (cost, lifetime in months, monthly rate)
    sweeps: list[tuple[float, int, list[float]]]  # (cost, lifetime, five rates)
    grid: list[tuple[float, int, float, float]]  # (cost, lifetime, rate, age)
    surplus: list[tuple[float, int, float, float, float]]  # (cost, life, age, seller, buyer)


def kernel_plan(seed: int) -> KernelPlan:
    """A few long daily schedules, method comparisons over monthly lives up
    to 480, five-rate sweeps, and a grid of point valuations and surpluses.

    The lifetimes of schedules, comparisons and sweeps are fixed, in a fixed
    order, so the work, its cost and peak memory do not change with the
    seed; costs, rates and ages do. Daily rates are annual 1-5% over 365, so rate * lifetime
    stays below 14 even at lifetime 1e5.
    """
    rng = random.Random(f"kernel-{seed}")

    def cost() -> float:
        return round(10 ** rng.uniform(1.7, 4.7), 2)

    def rate() -> float:
        return round(rng.uniform(0.01, 0.30), 4)

    daily = [(cost(), life, round(rng.uniform(0.01, 0.05), 4) / 365)
             for life in DAILY_LIFETIMES]
    compare = [(cost(), 12 * years, rate() / 12) for years in range(1, 41)]
    sweeps = [(cost(), 1 + i % 40, [0.0] + sorted(rate() for _ in range(4))) for i in range(200)]
    grid = []
    for _ in range(40_000):
        life = rng.randint(1, 40)
        grid.append((cost(), life, rate(), round(rng.uniform(0, life), 2)))
    surplus = []
    for _ in range(10_000):
        life = rng.randint(1, 40)
        surplus.append((cost(), life, round(rng.uniform(0, life), 2), rate(), rate()))
    return KernelPlan(daily, compare, sweeps, grid, surplus)


def quantiles(values: list[float]) -> dict[str, float]:
    s = sorted(values)
    pick = lambda q: s[min(len(s) - 1, int(q * len(s)))]  # noqa: E731
    return {"min": s[0], "p50": pick(0.5), "p90": pick(0.9), "p99": pick(0.99), "max": s[-1]}
