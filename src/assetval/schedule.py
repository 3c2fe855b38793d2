"""Per-period schedules, method comparisons, rate sweeps, trade surplus."""

from __future__ import annotations

import gc
from collections.abc import Sequence
from itertools import chain, repeat
from operator import sub
from typing import NamedTuple

from .classic import (
    Method,
    _as_period,
    _book_curve,
    double_declining_book_value,
    straight_line_book_value,
    sum_of_years_book_value,
)
from .core import (
    AssetSpec,
    DiscountRate,
    InvalidInput,
    MissingRate,
    _chord_gap,
    _value_curve,
    intrinsic_depreciation,
    intrinsic_value,  # not called here; the benchmark's tracer patches it by name
    trade_surplus,  # not called here; the benchmark's tracer patches it by name
)


class ScheduleRow(NamedTuple):
    """One period of a schedule (rows[i] is period i + 1); a NamedTuple, which
    build_schedule makes through tuple.__new__, with no Python frame per row."""

    expense: float  # <= 0
    book_value: float  # >= 0


class Schedule(NamedTuple):
    rows: tuple[ScheduleRow, ...]


class ComparisonReport(NamedTuple):
    schedules: tuple[Schedule, ...]  # in the order of the methods asked for


class SweepReport(NamedTuple):
    values: tuple[tuple[float, ...], ...]  # values[rate_index][age]


# The most periods a schedule, comparison or sweep may have: every row is
# built in memory before any is written, so a longer lifetime would not finish.
MAX_PERIODS = 1_000_000


def _periods(asset: AssetSpec) -> int:
    """The asset's lifetime as a whole number of periods, at most MAX_PERIODS."""
    life = _as_period(asset.lifetime, "lifetime")
    if life > MAX_PERIODS:
        raise InvalidInput(f"lifetime must be at most {MAX_PERIODS} periods for a schedule, "
                           f"comparison or sweep, got {asset.lifetime!r}", field="lifetime")
    return life


def _checked_periods(
    asset: AssetSpec, methods: Sequence[Method], rate: DiscountRate | None
) -> range:
    """Periods 1..lifetime of the methods' schedules, or their first fault: no
    methods, then the lifetime (see _periods), then an intrinsic method with no rate."""
    if not methods:
        raise InvalidInput("at least one method is required", field="methods")
    periods = range(1, _periods(asset) + 1)
    if rate is None and Method.INTRINSIC in methods:
        raise MissingRate("intrinsic schedules require a discount rate", field="rate")
    return periods


_CLASSIC_BOOK = {
    Method.STRAIGHT_LINE: straight_line_book_value,
    Method.DOUBLE_DECLINING: double_declining_book_value,
    Method.SUM_OF_YEARS: sum_of_years_book_value,
}


def build_schedule(
    asset: AssetSpec, method: Method, rate: DiscountRate | None = None
) -> Schedule:
    """One row per period 1..lifetime with end-of-period expense and book value.

    Intrinsic schedules need a rate (rate 0 degenerates to straight-line);
    classical methods ignore it. Rows are zipped with no Python loop: intrinsic
    ones from one intrinsic_depreciation(n - 1, n) call per period n and the
    value curve's books, classical ones from one book call per period and each
    book's drop. Each intrinsic call has the same asset, rate and span 1, so after
    the first row intrinsic_depreciation takes -cost, g, E and expm1(-g) from its memo
    of the last call, with the same bits: log1p(r) and those expm1 calls run once per
    schedule, not once per row. Each classical call has the same asset, so the DDB
    and SYD book functions take log1p(-q), or int(lifetime) and the digit sum, from
    theirs (a build in another thread can at most cost misses).
    The benchmark's tracer counts those calls, so their functions
    are looked up at call time. Each row is tuple.__new__(ScheduleRow,
    (expense, book)), as _make makes it, built with the cyclic collector
    paused (and restored as found, also on error). At most MAX_PERIODS periods.
    """
    periods = _checked_periods(asset, (method,), rate)
    if method is not Method.INTRINSIC:
        books = list(map(_CLASSIC_BOOK[method], repeat(asset), periods))
        expenses = map(sub, books, chain((asset.cost,), books))
    else:
        books = _value_curve(asset, rate, periods)
        expenses = map(intrinsic_depreciation, repeat(asset), repeat(rate), range(len(periods)), periods)
    # A ScheduleRow is a tuple subclass, which the cyclic collector never
    # untracks, so each collection started during the build would walk every
    # row built so far. Pause the collector until the schedule is made; the
    # collections it defers start after the return.
    paused = gc.isenabled()
    gc.disable()
    try:
        return Schedule(tuple(map(tuple.__new__, repeat(ScheduleRow), zip(expenses, books))))
    finally:
        if paused:
            gc.enable()


def compare_methods(
    asset: AssetSpec, methods: list[Method], rate: DiscountRate | None = None
) -> ComparisonReport:
    """Aligned schedules for several methods over the same asset."""
    _checked_periods(asset, methods, rate)
    return ComparisonReport(tuple(build_schedule(asset, m, rate) for m in methods))


def _book_columns(
    asset: AssetSpec, methods: list[Method], rate: DiscountRate | None
) -> list[list[float]]:
    """The book values of compare_methods' schedules, one list per method, or its
    fault; no expense, row or book call: each list is one value or book curve."""
    periods = _checked_periods(asset, methods, rate)
    return [_value_curve(asset, rate, periods) if m is Method.INTRINSIC
            else _book_curve(asset, m, periods) for m in methods]


def rate_sweep(asset: AssetSpec, rates: list[DiscountRate]) -> SweepReport:
    """Intrinsic value at every integer age 0..lifetime, one row per rate."""
    if not rates:
        raise InvalidInput("at least one rate is required", field="rates")
    ages = range(_periods(asset) + 1)
    values = tuple(tuple(_value_curve(asset, r, ages)) for r in rates)
    return SweepReport(values)


def chord_gap(asset: AssetSpec, rate: DiscountRate) -> float:
    """Max gap between the intrinsic value curve and its straight-line chord.

    The max over the integer age grid, found by a scan of the ages around the
    peak that gives the full grid's max bit for bit; non-negative, and grows
    with the rate (the curve bows further above the chord).
    """
    return _chord_gap(asset, rate, _periods(asset))
