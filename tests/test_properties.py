"""Properties checked with Hypothesis: the closed forms and schedules over
wide input ranges, point valuations and classical book values bit for bit
(or fault for fault) against the helper calls they were composed of,
interleaved intrinsic_depreciation calls against its body without the memo
and interleaved DDB and SYD calls against their composed forms,
schedule rows bit for bit against a per-period loop, the value curve,
rate_sweep and chord_gap bit for bit against the point path, the classical
book curves against the book functions, compare's columns against the
books of compare_methods' schedules (or its fault), the CLI's JSON writer
(schedule rows and money lists included) against the json module over
the shapes that payloads hold, table and CSV rows from
templates against per-cell rendering, each command's table against its
CSV cells, money rounded once for CSV as for JSON, batch CSV rows against
the csv module, bad command-line and registry tokens against exit code 1
and against NaN or Infinity in JSON, CSV cells against the JSON payload
(batch included), and sweep's chord gaps and surplus against chord_gap and
trade_surplus.

Ranges: cost in [1e-6, 1e12], lifetime in [1e-3, 1e6], rate in [0, 1e3],
rate 0 and subnormal rates included. Each range is drawn both uniformly
and log-uniformly, so that small magnitudes are reached as often as large
ones. Runs are derandomized, so the suite is deterministic.
"""

import csv
import io
import json
import math
import sys
import tempfile
import unicodedata
from contextlib import redirect_stderr
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from assetval import (
    AgeOrderViolation,
    AgeOutOfRange,
    AssetSpec,
    DiscountRate,
    InvalidInput,
    Method,
    ScheduleRow,
    Valuation,
    build_schedule,
    chord_gap,
    compare_methods,
    delayed_present_cost,
    double_declining_book_value,
    intrinsic_depreciation,
    intrinsic_value,
    present_cost,
    rate_sweep,
    straight_line_book_value,
    sum_of_years_book_value,
    trade_surplus,
    __version__,
)
from assetval.cli import (
    COMMANDS,
    METHOD_TOKENS,
    _CSV_ROW,
    _ROW,
    _batch_json,
    _batch_record,
    _json_rows,
    _money,
    _period_text,
    _render,
    _row_cells,
    _schedule_csv,
    _widest,
    _write_json,
    main,
)
from assetval.classic import _as_period, _book_curve
from assetval.core import _STRAIGHT_LINE_BELOW, _chain_cost, _chord_gap, _value_curve, check_age
from assetval.schedule import MAX_PERIODS, _book_columns

CLASSIC_BOOK = {
    Method.STRAIGHT_LINE: straight_line_book_value,
    Method.DOUBLE_DECLINING: double_declining_book_value,
    Method.SUM_OF_YEARS: sum_of_years_book_value,
}
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def fmt_money(x):
    """x as a money cell, one value at a time: the reference for the CLI's templates."""
    s = f"{x:.4f}"
    return "0.0000" if s == "-0.0000" else s


def pow10(x):
    """10**x, or inf where it overflows (log10 of the largest double rounds up)."""
    try:
        return 10.0**x
    except OverflowError:
        return math.inf


def spread(lo, hi, log_lo=None):
    """Floats in [lo, hi], drawn uniformly or log-uniformly from log_lo (default lo) up."""
    log_lo = lo if log_lo is None else log_lo
    log_uniform = st.floats(math.log10(log_lo), math.log10(hi)).map(
        lambda x: min(max(pow10(x), lo), hi)
    )
    return st.floats(lo, hi) | log_uniform


costs = spread(1e-6, 1e12)
lifetimes = spread(1e-3, 1e6)
rates = spread(0.0, 1e3, log_lo=5e-324)
fractions = st.floats(0.0, 1.0)


def age_at(asset, fraction):
    return min(fraction * asset.lifetime, asset.lifetime)


@SETTINGS
@given(costs, lifetimes, rates, fractions)
@example(100.0, 1.0, 5e-324, 0.5)
@example(100.0, 1.0, 0.0, 0.5)
@example(2.0, 142.0, 147.0, 0.5)
def test_value_bounds_and_endpoints(cost, lifetime, rate, fraction):
    asset, r = AssetSpec(cost, lifetime), DiscountRate(rate)
    v = intrinsic_value(asset, r, age_at(asset, fraction)).amount
    assert 0.0 <= v <= cost
    assert intrinsic_value(asset, r, 0.0).amount == cost
    end = intrinsic_value(asset, r, lifetime).amount
    assert end == 0.0 and math.copysign(1.0, end) == 1.0


@SETTINGS
@given(costs, lifetimes, rates, rates, fractions, fractions)
@example(100.0, 1.0, 0.0, 5e-324, 0.25, 0.75)
def test_value_monotone_in_age_and_rate(cost, lifetime, rate_a, rate_b, frac_a, frac_b):
    asset = AssetSpec(cost, lifetime)
    low, high = sorted((DiscountRate(rate_a), DiscountRate(rate_b)), key=lambda r: r.rate)
    young, old = sorted((age_at(asset, frac_a), age_at(asset, frac_b)))
    slack = 1e-12 * cost
    assert intrinsic_value(asset, low, old).amount <= intrinsic_value(asset, low, young).amount + slack
    assert intrinsic_value(asset, low, young).amount <= intrinsic_value(asset, high, young).amount + slack


@SETTINGS
@given(costs, st.integers(1, 3000), rates)
@example(100.0, 1, 5e-324)
@example(2.0, 142, 147.0)
@example(100.0, 2000, 0.5)
def test_intrinsic_schedule(cost, lifetime, rate):
    asset, r = AssetSpec(cost, lifetime), DiscountRate(rate)
    rows = build_schedule(asset, Method.INTRINSIC, r).rows
    assert len(rows) == lifetime
    assert all(row.expense <= 0.0 for row in rows)
    assert all(row.book_value >= 0.0 for row in rows)
    assert math.fsum(row.expense for row in rows) == pytest.approx(-cost, rel=1e-9)
    for period, row in enumerate(rows, 1):
        want = intrinsic_value(asset, r, period).amount
        assert abs(row.book_value - want) <= 1e-12 * cost
    last = rows[-1].book_value
    assert last == 0.0 and math.copysign(1.0, last) == 1.0


@SETTINGS
@given(costs, lifetimes, rates, rates, fractions)
@example(100.0, 10.0, 0.05, 0.2, 0.5)
@example(100.0, 1.0, 0.0, 5e-324, 0.5)
@example(2.0, 142.0, 147.0, 0.5, 0.5)
@example(10849791.899191914, 0.5441594255139138, 0.02124053242275997, 0.021240532422759972,
         0.285597595784823)
def test_trade_surplus_sign_and_endpoints(cost, lifetime, seller_rate, buyer_rate, fraction):
    """The sign holds up to rounding: at rates an ulp apart the two values
    can cross by an ulp of cost (the last example: -9.3e-10 at cost 1.1e7)."""
    asset, seller, buyer = AssetSpec(cost, lifetime), DiscountRate(seller_rate), DiscountRate(buyer_rate)
    age = age_at(asset, fraction)
    surplus = trade_surplus(asset, age, seller, buyer)
    assert surplus == intrinsic_value(asset, buyer, age).amount - intrinsic_value(asset, seller, age).amount
    slack = 1e-12 * cost
    if buyer_rate > seller_rate:
        assert surplus >= -slack
    elif buyer_rate < seller_rate:
        assert surplus <= slack
    else:
        assert surplus == 0.0
    assert trade_surplus(asset, 0.0, seller, buyer) == 0.0
    assert trade_surplus(asset, lifetime, seller, buyer) == 0.0


@SETTINGS
@given(costs, st.integers(1, 3000),
       st.sampled_from([Method.STRAIGHT_LINE, Method.DOUBLE_DECLINING, Method.SUM_OF_YEARS]))
@example(100.0, 1, Method.DOUBLE_DECLINING)
@example(100.0, 2, Method.DOUBLE_DECLINING)
@example(1e12, 3000, Method.SUM_OF_YEARS)
def test_classical_schedule_book_never_negative_or_rising(cost, lifetime, method):
    books = [cost] + [row.book_value for row in build_schedule(AssetSpec(cost, lifetime), method).rows]
    assert len(books) == lifetime + 1
    assert all(book >= 0.0 for book in books)
    assert all(later <= earlier for earlier, later in zip(books, books[1:]))


@SETTINGS
@given(spread(1e-6, sys.float_info.max), st.integers(1, 3000), st.sampled_from(list(Method)), rates)
@example(1.7e308, 3, Method.SUM_OF_YEARS, 0.0)
@example(1.7e308, 3, Method.INTRINSIC, 0.0)
def test_schedule_finite_at_extreme_costs(cost, lifetime, method, rate):
    """Costs up to the largest double: formulas that multiply before they
    divide overflow there although every book and expense fits."""
    rows = build_schedule(AssetSpec(cost, lifetime), method, DiscountRate(rate)).rows
    assert all(math.isfinite(row.book_value) and 0.0 <= row.book_value <= cost for row in rows)
    assert all(math.isfinite(row.expense) and row.expense <= 0.0 for row in rows)


def loop_rows(asset, method, rate):
    """(expense, book) per period from a Python loop over the periods, as
    build_schedule made them before it zipped its rows: the reference that
    its rows must equal bit for bit."""
    if method is Method.INTRINSIC:
        def book_at(n):
            return intrinsic_value(asset, rate, n).amount
        drop = partial(intrinsic_depreciation, asset, rate)
    else:
        book_at, drop = partial(CLASSIC_BOOK[method], asset), None
    rows, prev = [], asset.cost
    for n in range(1, int(asset.lifetime) + 1):
        book = book_at(n)
        rows.append((drop(n - 1, n) if drop else book - prev, book))
        prev = book
    return rows


@st.composite
def schedule_inputs(draw):
    """Int or float cost up to 1.7e308 and whole lifetime up to 2,000; rate 0,
    rates whose l*log1p(r) falls below 2^-53, and the usual range."""
    life = draw(st.integers(1, 12) | st.integers(1, 2000))
    cost = draw(st.integers(1, 10**308) | spread(1e-6, 1.7e308))
    tiny = st.floats(0.0, 2.0**-53, exclude_max=True).map(lambda x: x / life)
    rate = draw(st.just(0.0) | tiny | rates)
    return AssetSpec(cost, draw(st.sampled_from([life, float(life)]))), DiscountRate(rate)


@SETTINGS
@given(schedule_inputs())
@example((AssetSpec(100, 10), DiscountRate(0.2)))
@example((AssetSpec(1.7e308, 3), DiscountRate(0.0)))
@example((AssetSpec(1, 2000.0), DiscountRate(2.0**-53 / 2000 / 2)))
def test_schedule_rows_equal_the_loop_bit_for_bit(inputs):
    asset, rate = inputs
    for method in Method:
        rows = build_schedule(asset, method, rate).rows
        assert all(type(row) is ScheduleRow for row in rows)
        want = [(float.hex(e), float.hex(b)) for e, b in loop_rows(asset, method, rate)]
        assert [(float.hex(e), float.hex(b)) for e, b in rows] == want


@SETTINGS
@given(schedule_inputs(), st.lists(st.floats(0.0, 1.0), max_size=5))
@example((AssetSpec(100, 10), DiscountRate(0.2)), [0.5])
@example((AssetSpec(3, 7.0), DiscountRate(0.0)), [1.0, 0.25])
@example((AssetSpec(1, 2000.0), DiscountRate(2.0**-53 / 2000 / 2)), [])
def test_value_curve_equals_the_point_path_bit_for_bit(inputs, fractions):
    """The value curve is intrinsic_value age by age, at whole and fractional
    ages, and rate_sweep and chord_gap, which read it, equal their per-point forms."""
    asset, rate = inputs
    life = int(asset.lifetime)
    ages = [*range(life + 1), *(f * asset.lifetime for f in fractions)]
    assert list(map(float.hex, _value_curve(asset, rate, ages))) == [
        float.hex(intrinsic_value(asset, rate, a).amount) for a in ages]
    values = [intrinsic_value(asset, rate, a).amount for a in range(life + 1)]
    assert list(map(float.hex, rate_sweep(asset, [rate, rate]).values[1])) == list(
        map(float.hex, values))
    gap = max(v - asset.cost * ((life - a) / life) for a, v in enumerate(values))
    assert float.hex(chord_gap(asset, rate)) == float.hex(gap)


def full_grid_gap(asset, rate, periods):
    """_chord_gap's per-age gap at every age 0..periods, and their max."""
    cost, life = asset.cost, asset.lifetime
    g = math.log1p(rate.rate)
    e = math.expm1(-(life * g))
    return max([cost * (math.expm1(-((life - age) * g)) / e) - cost * ((life - age) / life)
                for age in range(periods + 1)])


@st.composite
def chord_inputs(draw):
    """Lifetime 1 to 1e5 (int or whole float, uniform or log-uniform), rate
    log-uniform from just above l*log1p(r) = 2^-53 (the straight-line switch)
    to 30, and int or float cost from 1e-6 to 1.7e308."""
    life = draw(st.integers(1, 10**5) | st.floats(0, 5).map(lambda x: round(10**x)))
    exponent = draw(st.floats(math.log10(_STRAIGHT_LINE_BELOW / life) + 1e-12, math.log10(30)))
    rate = min(10**exponent, 30.0)
    assume(life * math.log1p(rate) >= _STRAIGHT_LINE_BELOW)
    cost = draw(st.integers(1, 10**308) | spread(1e-6, 1.7e308))
    return AssetSpec(cost, draw(st.sampled_from([life, float(life)]))), DiscountRate(rate)


@SETTINGS
@given(chord_inputs())
@example((AssetSpec(100, 1), DiscountRate(0.2)))
@example((AssetSpec(100, 2), DiscountRate(0.2)))
@example((AssetSpec(100, 10), DiscountRate(30)))  # the peak at age 9, l - 1
@example((AssetSpec(7, 10), DiscountRate(2.2745080215936715e-17)))  # the peak rounds to age 0
@example((AssetSpec(1.7e308, 2), DiscountRate(1e300)))  # the peak rounds to age l
@example((AssetSpec(100, 10**5), DiscountRate(1e-20)))  # flat: every age within the slack
@example((AssetSpec(10**308, 10**5), DiscountRate(1.2e-21)))  # flat, the peak at l
@example((AssetSpec(1e-6, 4000.0), DiscountRate(2.0**-53 / 4000 * 1.001)))  # just above the switch
def test_chord_gap_scan_equals_the_full_grid_max(inputs):
    """_chord_gap, which evaluates only the ages around the peak, is the max of
    the same per-age gap over every age, bit for bit."""
    asset, rate = inputs
    periods = int(asset.lifetime)
    assert float.hex(_chord_gap(asset, rate, periods)) == float.hex(full_grid_gap(asset, rate, periods))


@st.composite
def classical_assets(draw):
    """Int cost up to 1e308 or float cost from 1e-300 to 1.7e308, and lifetime
    1, 2, 3 or up to 3,000, int or whole float."""
    life = draw(st.sampled_from([1, 2, 3]) | st.integers(1, 3000))
    cost = draw(st.integers(1, 10**308) | spread(1e-300, 1.7e308))
    return AssetSpec(cost, draw(st.sampled_from([life, float(life)])))


@SETTINGS
@given(classical_assets())
@example(AssetSpec(100, 10))
@example(AssetSpec(1.7e308, 3))
@example(AssetSpec(1e-300, 2.0))
@example(AssetSpec(10**308, 1))
def test_book_curve_equals_the_book_functions_bit_for_bit(asset):
    """Each classical book curve is its book function age by age, 0 and the lifetime included."""
    ages = range(int(asset.lifetime) + 1)
    for method, book in CLASSIC_BOOK.items():
        assert list(map(float.hex, _book_curve(asset, method, ages))) == [
            float.hex(book(asset, n)) for n in ages]


@st.composite
def comparison_inputs(draw):
    """An asset, a list of methods (empty, repeated or mixed) and a rate or None.
    The lifetime is whole (int or float, up to 300), fractional, or above
    MAX_PERIODS (whole or not), so that every fault of a comparison is reached."""
    cost = draw(st.integers(1, 10**6) | spread(1e-6, 1.7e308))
    whole = st.integers(1, 300).flatmap(lambda n: st.sampled_from([n, float(n)]))
    fractional = st.floats(1e-3, 3000.0).filter(lambda x: x % 1 != 0)
    beyond = st.sampled_from([MAX_PERIODS + 1, float(MAX_PERIODS + 1), MAX_PERIODS + 0.5, 1e300])
    asset = AssetSpec(cost, draw(whole | whole | fractional | beyond))
    methods = draw(st.lists(st.sampled_from(list(Method)), max_size=5))
    return asset, methods, draw(st.none() | rates.map(DiscountRate))


def columns_or_fault(columns, *args):
    """float.hex of each column's books, or the fault's class, field and message."""
    try:
        return [list(map(float.hex, books)) for books in columns(*args)]
    except InvalidInput as exc:
        return type(exc), exc.field, str(exc)


def composed_books(asset, methods, rate):
    """Each method's books from its own schedule, after the empty-list fault:
    compare_methods' composition, with no shared check."""
    if not methods:
        raise InvalidInput("at least one method is required", field="methods")
    return [[row.book_value for row in build_schedule(asset, m, rate).rows] for m in methods]


@SETTINGS
@given(comparison_inputs())
@example((AssetSpec(100, 10), list(Method), DiscountRate(0.2)))
@example((AssetSpec(100, 10), [], None))
@example((AssetSpec(100, 10.5), [], None))
@example((AssetSpec(100, 10.5), [Method.STRAIGHT_LINE, Method.INTRINSIC], None))
@example((AssetSpec(100, MAX_PERIODS + 1), [Method.INTRINSIC], None))
@example((AssetSpec(100, 10), [Method.STRAIGHT_LINE, Method.INTRINSIC], None))
@example((AssetSpec(100, 10), [Method.SUM_OF_YEARS, Method.DOUBLE_DECLINING], None))
def test_book_columns_equal_compare_methods_books_bit_for_bit(inputs):
    """compare's columns are the books of compare_methods' schedules, or its fault."""
    asset, methods, rate = inputs
    want = columns_or_fault(composed_books, asset, methods, rate)
    assert columns_or_fault(_book_columns, asset, methods, rate) == want
    assert columns_or_fault(lambda *args: [[row.book_value for row in s.rows] for s in
                                           compare_methods(*args).schedules],
                            asset, methods, rate) == want


def _discount(asset, rate):
    """g = log1p(r) and E = expm1(-l*g), with E = 0.0 where V is the straight line."""
    g = math.log1p(rate.rate)
    lg = asset.lifetime * g
    return g, math.expm1(-lg) if lg >= _STRAIGHT_LINE_BELOW else 0.0


def _value_at(cost, life, g, e, age):
    """V(age) on precomputed g and E; the age is unchecked."""
    if not e:
        return cost * ((life - age) / life)
    return cost * (math.expm1(-((life - age) * g)) / e)


def composed_intrinsic_value(asset, rate, age):
    """intrinsic_value as it was once composed, of four calls: the age check,
    g and E, the V formula and the NamedTuple's own constructor. The one-frame
    function must equal it."""
    check_age(asset, age)
    g, e = _discount(asset, rate)
    return Valuation(_value_at(asset.cost, asset.lifetime, g, e, age))


def composed_delayed_present_cost(asset, rate, age):
    check_age(asset, age)
    return Valuation(_chain_cost(asset, rate, asset.lifetime - age, "delayed cost"))


@st.composite
def point_inputs(draw):
    """schedule_inputs with an age: a fraction of the lifetime, a whole age, 0,
    -0.0, the lifetime itself, or a faulty one (NaN, +-inf, negative, above
    the lifetime)."""
    asset, rate = draw(schedule_inputs())
    life = asset.lifetime
    age = draw(st.floats(0.0, 1.0).map(lambda f: min(f * life, life))
               | st.integers(0, int(life))
               | st.sampled_from([0, 0.0, -0.0, life, float(life)])
               | st.sampled_from([math.nan, math.inf, -math.inf, -5e-324, -1.0,
                                  math.nextafter(life, math.inf), 2.0 * life])
               | st.floats(-2.0 * life, 2.0 * life))
    return asset, rate, age


def outcome(point, *args):
    """float.hex of the amount, or the fault's class, field and message."""
    try:
        v = point(*args)
    except InvalidInput as exc:
        return type(exc), exc.field, str(exc)
    assert type(v) is Valuation and v == (v.amount,)
    return float.hex(v.amount)


@SETTINGS
@given(point_inputs())
@example((AssetSpec(100, 10), DiscountRate(0.2), 5))
@example((AssetSpec(100.0, 10), DiscountRate(0.2), 1))  # cost * (x / E) != (cost * x) / E here
@example((AssetSpec(100.0, 40), DiscountRate(0.05), 2.0))
@example((AssetSpec(100, 10), DiscountRate(0.0), -0.0))
@example((AssetSpec(1, 2000.0), DiscountRate(2.0**-53 / 2000 / 2), 2000.0))
@example((AssetSpec(1.7e308, 3), DiscountRate(0.2), math.nan))
@example((AssetSpec(3, 7.0), DiscountRate(0.5), 7.000000000000001))
def test_point_valuations_equal_their_composed_forms(inputs):
    """intrinsic_value in one frame equals the composition it replaced, by
    float.hex or by fault; every point function returns a Valuation."""
    asset, rate, age = inputs
    assert outcome(intrinsic_value, asset, rate, age) == outcome(
        composed_intrinsic_value, asset, rate, age)
    assert outcome(delayed_present_cost, asset, rate, age) == outcome(
        composed_delayed_present_cost, asset, rate, age)
    assert outcome(present_cost, asset, rate) == outcome(
        lambda a, r: Valuation(_chain_cost(a, r, 0.0, "present cost")), asset, rate)


def memo_free_depreciation(asset, rate, age_start, age_end):
    """intrinsic_depreciation as it was before its memo, with g, E and the span's
    factor computed on every call: the reference that each call must equal."""
    life = asset.lifetime
    if not 0 <= age_start <= age_end <= life:
        check_age(asset, age_start, name="age_start")
        check_age(asset, age_end, name="age_end")
        raise AgeOrderViolation(f"age_end ({age_end}) precedes age_start ({age_start})")
    g = math.log1p(rate.rate)
    lg = life * g
    span = age_end - age_start
    if lg >= _STRAIGHT_LINE_BELOW:
        return -asset.cost * math.exp(-(life - age_end) * g) * math.expm1(-span * g) / math.expm1(-lg)
    return -asset.cost * (span / life)


@st.composite
def depreciation_calls(draw):
    """A sequence of intrinsic_depreciation calls, (asset, rate, age_start, age_end).

    Two or three assets of different lifetimes share one to three rates: 0, the
    usual range, and the 2^-53 straight-line switch of each lifetime with a
    neighbour on each side. Each call takes its asset and rate as the drawn object
    or as a new one with equal fields. Its ages are int or float: a whole period
    (span 1), a span of 0.5 or 0.25 from a whole age, fractions of the lifetime, a
    zero span (+0.0, or -0.0 from 0.0 to -0.0), an earlier call's ages again, or a
    fault (NaN, infinite, negative, reversed or above the lifetime)."""
    lives = draw(st.lists(st.integers(1, 600) | st.integers(1, 600).map(float) | lifetimes,
                          min_size=2, max_size=3, unique=True))
    assets = [AssetSpec(draw(costs | st.sampled_from([100, 1.7e308])), life) for life in lives]
    switches = [math.expm1(2.0**-53 / life) * (1 + k * 2.0**-52) for life in lives for k in (-1, 0, 1)]
    shared = [DiscountRate(r) for r in draw(st.lists(
        st.just(0.0) | rates | st.sampled_from(switches), min_size=1, max_size=3))]
    calls = []
    for _ in range(draw(st.integers(1, 16))):
        asset, rate = draw(st.sampled_from(assets)), draw(st.sampled_from(shared))
        if draw(st.integers(0, 3)) == 0:
            asset = AssetSpec(asset.cost, asset.lifetime)
        if draw(st.integers(0, 3)) == 0:
            rate = DiscountRate(rate.rate)
        life = asset.lifetime
        whole = draw(st.integers(0, max(int(life) - 1, 0)))
        start = draw(fractions) * life
        end = min(start + draw(fractions) * (life - start), life)
        ages = draw(st.just((whole, whole + 1))
                    | st.sampled_from([(whole, whole + 0.5), (whole, whole + 0.25), (start, end)])
                    | st.sampled_from([(start, start), (whole, whole), (0.0, -0.0), (-0.0, 0.0),
                                       (life, life)])
                    | st.sampled_from([(math.nan, life), (0, math.inf), (-1.0, 0), (1, 0.5),
                                       (0, 2.0 * life)])
                    | st.sampled_from([c[2:] for c in calls] or [(0, 1)]))
        if draw(st.booleans()):
            ages = tuple(map(float, ages))
        calls.append((asset, rate, *ages))
    return calls


def depreciation_outcome(depreciation, *args):
    """float.hex of the expense, or the fault's class, field and message."""
    try:
        return float.hex(depreciation(*args))
    except InvalidInput as exc:
        return type(exc), exc.field, str(exc)


_MEMO_ASSET, _MEMO_RATE = AssetSpec(100, 10), DiscountRate(0.2)


@SETTINGS
@given(depreciation_calls())
@example([(_MEMO_ASSET, _MEMO_RATE, 0, 1), (AssetSpec(100, 20), _MEMO_RATE, 0, 1)])
@example([(_MEMO_ASSET, _MEMO_RATE, 0.0, -0.0), (_MEMO_ASSET, _MEMO_RATE, 3.0, 3.0)])
@example([(_MEMO_ASSET, _MEMO_RATE, 1, 2), (_MEMO_ASSET, _MEMO_RATE, 5, 4),
          (_MEMO_ASSET, DiscountRate(0.05), 1, 2), (_MEMO_ASSET, _MEMO_RATE, 2, 3)])
@example([(_MEMO_ASSET, _MEMO_RATE, 8.0, 9.0), (_MEMO_ASSET, _MEMO_RATE, 9.0, 10.0)])
def test_depreciation_calls_equal_the_memo_free_body(calls):
    """However calls interleave assets, rates, spans and faults, each equals the
    memo-free body by float.hex or by fault."""
    for call in calls:
        assert depreciation_outcome(intrinsic_depreciation, *call) == depreciation_outcome(
            memo_free_depreciation, *call)


def composed_straight_line(asset, age):
    check_age(asset, age)
    return asset.cost * ((asset.lifetime - age) / asset.lifetime)


def composed_double_declining(asset, age):
    life = _as_period(asset.lifetime, "lifetime")
    a = _as_period(age, "age")
    check_age(asset, a)
    q = min(2.0 / life, 1.0)
    return asset.cost * (math.exp(a * math.log1p(-q)) if q < 1.0 else 0.0**a)


def composed_sum_of_years(asset, age):
    life = _as_period(asset.lifetime, "lifetime")
    a = _as_period(age, "age")
    check_age(asset, a)
    digits = life * (life + 1) // 2
    used = a * life - a * (a - 1) // 2
    return asset.cost * ((digits - used) / digits)


# The classical book functions as they were once composed, of a lifetime
# check, an age check and a range check (one call each); the one-frame
# functions must equal them.
COMPOSED_BOOK = {
    Method.STRAIGHT_LINE: composed_straight_line,
    Method.DOUBLE_DECLINING: composed_double_declining,
    Method.SUM_OF_YEARS: composed_sum_of_years,
}


@st.composite
def book_inputs(draw):
    """A classical method, an asset and an age. Lifetimes: whole (int or
    float), fractional, and 1 and 2, where DDB's factor 2/l meets its cap.
    Ages: int and float, whole and fractional, -0.0, below 0, 0, the
    lifetime, above it, NaN and +-inf."""
    life = draw(st.integers(1, 10**6) | st.integers(1, 12).map(float)
                | st.sampled_from([1, 2, 1.0, 2.0]) | lifetimes)
    whole = st.integers(-3, int(life) + 3)
    age = draw(whole | whole.map(float) | st.floats(-2.0 * life, 2.0 * life)
               | st.sampled_from([0, 0.0, -0.0, life, float(life), -1, -5e-324, 0.5,
                                  math.nextafter(life, math.inf), life + 1, 2.0 * life,
                                  math.nan, math.inf, -math.inf]))
    asset = AssetSpec(draw(costs | st.sampled_from([100, 1.7e308])), life)
    return draw(st.sampled_from(list(COMPOSED_BOOK))), asset, age


def book_outcome(book, asset, age):
    """float.hex of the book value, or the fault's class, field and message."""
    try:
        v = book(asset, age)
    except (ValueError, OverflowError) as exc:  # InvalidInput is a ValueError
        return type(exc), getattr(exc, "field", None), str(exc)
    assert type(v) is float
    return float.hex(v)


def composed_book_outcome(method, asset, age):
    """book_outcome of the composed book function, where int(age) raised a bare
    ValueError (NaN) or OverflowError (+-inf) before the range check replaced by
    the range check's AgeOutOfRange, which the one-frame function raises."""
    want = book_outcome(COMPOSED_BOOK[method], asset, age)
    if want[0] in (ValueError, OverflowError):
        assert not math.isfinite(age)
        want = AgeOutOfRange, "age", f"age must lie in [0, {asset.lifetime}], got {age!r}"
    return want


@SETTINGS
@given(book_inputs())
@example((Method.DOUBLE_DECLINING, AssetSpec(100, 1), 1))
@example((Method.DOUBLE_DECLINING, AssetSpec(100.0, 2.0), -0.0))
@example((Method.DOUBLE_DECLINING, AssetSpec(100, 10), 5.0))
@example((Method.SUM_OF_YEARS, AssetSpec(1.7e308, 3), 1.0))
@example((Method.SUM_OF_YEARS, AssetSpec(100, 10), 11.0))
@example((Method.SUM_OF_YEARS, AssetSpec(100, 7.5), math.nan))
@example((Method.DOUBLE_DECLINING, AssetSpec(100, 10), -math.inf))
@example((Method.STRAIGHT_LINE, AssetSpec(100, 10), math.nan))
def test_book_values_equal_their_composed_forms(inputs):
    """Each classical book function in one frame equals the composition it
    replaced, by float.hex or by fault. The one difference: where int(age)
    raised a bare ValueError (NaN) or OverflowError (+-inf) before the range
    check, the one-frame function raises the range check's AgeOutOfRange."""
    method, asset, age = inputs
    assert book_outcome(CLASSIC_BOOK[method], asset, age) == composed_book_outcome(
        method, asset, age)


@st.composite
def book_calls(draw):
    """A sequence of DDB and SYD calls, (method, asset, age), for their memos of
    the last call's asset.

    Two or three assets have whole lifetimes, int or float, with 1, 2 and 3
    among them (DDB's factor q = 2/l at its cap of 1, or 2/3); their costs are
    often equal, so only the lifetime tells them apart. Each call takes its
    asset as the drawn object, as a new one with equal fields, or with a
    fractional lifetime. Its age is whole (int or float), 0, -0.0, the
    lifetime, or a fault: fractional, NaN, +-inf, negative or above the lifetime."""
    lives = draw(st.lists(st.sampled_from([1, 2, 3, 1.0, 2.0, 3.0]) | st.integers(1, 600)
                          | st.integers(1, 600).map(float), min_size=2, max_size=3))
    assets = [AssetSpec(draw(st.sampled_from([100, 100.0, 1.7e308]) | costs), life) for life in lives]
    calls = []
    for _ in range(draw(st.integers(1, 16))):
        asset = draw(st.sampled_from(assets))
        pick = draw(st.integers(0, 5))
        if pick == 0:
            asset = AssetSpec(asset.cost, asset.lifetime)
        elif pick == 1:
            asset = AssetSpec(asset.cost, asset.lifetime + 0.5)
        life = asset.lifetime
        whole = st.integers(0, int(life))
        age = draw(whole | whole.map(float)
                   | st.sampled_from([0, 0.0, -0.0, life, float(life)])
                   | st.sampled_from([0.5, life - 0.5, math.nan, math.inf, -math.inf, -1,
                                      -5e-324, math.nextafter(life, math.inf), life + 1]))
        calls.append((draw(st.sampled_from([Method.DOUBLE_DECLINING, Method.SUM_OF_YEARS])),
                      asset, age))
    return calls


@SETTINGS
@given(book_calls())
@example([(Method.DOUBLE_DECLINING, AssetSpec(100, 10), 1),
          (Method.DOUBLE_DECLINING, AssetSpec(100, 5), 1)])
@example([(Method.SUM_OF_YEARS, AssetSpec(100, 3), 1), (Method.SUM_OF_YEARS, AssetSpec(100, 3.5), 1),
          (Method.SUM_OF_YEARS, AssetSpec(100, 2.0), 1)])
@example([(Method.DOUBLE_DECLINING, AssetSpec(100, 2), 1), (Method.DOUBLE_DECLINING, AssetSpec(100, 3), 1),
          (Method.DOUBLE_DECLINING, AssetSpec(100, 1), math.nan),
          (Method.DOUBLE_DECLINING, AssetSpec(100, 1), 1)])
def test_book_calls_equal_their_composed_forms(calls):
    """However DDB and SYD calls interleave assets, lifetimes and faults, each
    equals its composed form as test_book_values_equal_their_composed_forms
    checks one call: the memos change no value and no fault."""
    for method, asset, age in calls:
        assert book_outcome(CLASSIC_BOOK[method], asset, age) == composed_book_outcome(
            method, asset, age)


@SETTINGS
@given(costs, lifetimes, rates)
@example(100.0, 1.0, 5e-324)
@example(1e12, 1e-3, 5e-324)
@example(1.0, 1e6, 10.0)
def test_present_cost_finite_or_rejected(cost, lifetime, rate):
    try:
        amount = present_cost(AssetSpec(cost, lifetime), DiscountRate(rate)).amount
    except InvalidInput:
        return
    assert math.isfinite(amount) and amount < 0


# The shapes that payloads hold: str, int and finite float scalars, lists of
# ints and floats, str-keyed dicts, and iterators of dicts, nested to any
# depth. An iterator is drawn as a tuple, which json.dumps writes as a list.
json_numbers = (
    st.integers()
    | st.integers(-(10**60), 10**60)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e-7, 1e16, 1e22, sys.float_info.max])
)
json_scalars = (
    json_numbers
    | st.text(max_size=8)
    | st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600 a'), max_size=8)
)
json_values = st.recursive(
    json_scalars | st.lists(json_numbers, max_size=4),
    lambda inner: (st.dictionaries(st.text(max_size=4), inner, max_size=4)
                   | st.lists(st.dictionaries(st.text(max_size=4), inner, max_size=3),
                              max_size=3).map(tuple)),
    max_leaves=12,
)


def as_iterators(obj):
    """obj with every tuple turned into a generator."""
    if isinstance(obj, dict):
        return {k: as_iterators(v) for k, v in obj.items()}
    if isinstance(obj, tuple):
        return (as_iterators(v) for v in obj)
    return obj


def written(obj):
    buf = io.StringIO()
    _write_json(buf.write, obj)
    return buf.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(json_values)
@example({"a": [], "b": {}, "c": (), "d": {"e": ({}, {"f": [], "g": ()})}})
@example(())
def test_json_writer_matches_json_module(obj):
    assert written(as_iterators(obj)) == json.dumps(obj, indent=2)


# Every finite double: subnormals, -0.0 and magnitudes from 1e16 up (where
# repr switches to exponent form) included, and values next to the ties of
# 4-decimal rounding, where rounding twice could differ from rounding once.
finite_doubles = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(-1e20, 1e20)
    | st.integers(-(10**16), 10**16).map(lambda k: (k + 0.5) / 10_000)
    | st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.00005, -0.00005,
                       0.00015, 0.03125, 1e16, -1e16, 9999999999999998.0, sys.float_info.max])
)


# Doubles on both sides of 1e11 and of 5e10, below which (as the cost) the JSON
# money writer prints "%.4f" text in place of repr(round(x, 4)), and ties of
# 4-decimal rounding up to 1e15.
near_cut = st.floats(-2e11, 2e11) | st.integers(-(10**19), 10**19).map(lambda k: (k + 0.5) / 10_000)
money_doubles = finite_doubles | near_cut


@SETTINGS
@given(st.lists(st.tuples(money_doubles, money_doubles), min_size=1, max_size=6),
       st.lists(st.booleans(), max_size=4))
@example([(-0.0, 5e-324)], [])
@example([(1e16, -1e16), (-1.5e300, 0.00005)], [True, False])
@example([(99999999999.99995, -0.00004), (0.00005, -99999999999.99995)], [True])
@example([(1e11, 0.5)], [])
@example([(math.nextafter(1e11, 0), -0.00004), (0.00005, math.nextafter(1e11, math.inf))], [])
@example([(5e10, 0.5)], [True])
@example([(math.nextafter(5e10, 0), -0.00004)], [])
@example([(0.00005, -math.nextafter(5e10, math.inf))], [False])
# one cell above the cut, where "%.4f" would print 703275009772.6639
@example([(-0.00004, 0.00005), (703275009772.664, 1.25)], [])
def test_schedule_rows_written_as_json_module_writes_their_dicts(rows, nesting):
    """A schedule's rows as cmd_schedule hands them to _write_json are, at any
    pad, json.dumps(indent=2) of the rows' dict form; nesting puts them under
    dicts (True) and iterators (False). The largest cell stands for the cost
    that bounds them (shape only: the bound holds for real costs below)."""
    cells = tuple(_row_cells(rows))
    obj = _json_rows(cells, max(map(abs, cells)), _ROW)
    want = [{"period": n, "expense": _money(e), "book_value": _money(b)}
            for n, (e, b) in enumerate(rows, 1)]
    for in_dict in nesting:
        obj, want = ({"rows": obj}, {"rows": want}) if in_dict else (iter([obj]), [want])
    assert written(obj) == json.dumps(want, indent=2)


@SETTINGS
@given(st.lists(money_doubles, min_size=1, max_size=8), st.lists(st.booleans(), max_size=4))
@example([1e11], [])
@example([math.nextafter(1e11, 0), -math.nextafter(1e11, math.inf)], [])
@example([99999999999.99995, -0.00004], [True])
@example([-0.00004, 0.00005, -99999999999.99995], [False, True])
@example([5e10, 0.00005], [])
@example([-0.00004, math.nextafter(5e10, 0)], [True])
@example([math.nextafter(5e10, math.inf)], [False])
@example([-0.00004, 703275009772.664], [])  # "%.4f" would print 703275009772.6639
def test_money_lists_written_as_json_module_writes_them(values, nesting):
    """A money list (compare's book values, sweep's values) at any pad is
    json.dumps(indent=2) of its _money values, under dicts (True) and
    iterators (False). The largest value stands for the cost that bounds them
    (shape only: the bound holds for real costs below)."""
    obj, want = _json_rows(tuple(values), max(map(abs, values))), [_money(v) for v in values]
    for in_dict in nesting:
        obj, want = ({"values": obj}, {"values": want}) if in_dict else (iter([obj]), [want])
    assert written(obj) == json.dumps(want, indent=2)


# Money cells, those that round to -0.0000 included.
cell_doubles = money_doubles | st.floats(-5e-5, 0.0, exclude_min=True)


@st.composite
def table_shapes(draw):
    """(header, rows, lead): the rows of a command's table, each a period or age
    (lead) and then money, with at least one of them above sweep's last row,
    "chord_gap", where there is one; or one row of money only (value, surplus),
    under labels without "%", as commands' fixed names are."""
    width, lead = draw(st.integers(1, 5)), draw(st.booleans())
    chars = st.characters(blacklist_categories=("Cs",), blacklist_characters="" if lead else "%")
    header = draw(st.lists(st.text(chars, max_size=6), min_size=width + lead, max_size=width + lead))
    money = draw(st.lists(st.lists(cell_doubles, min_size=width, max_size=width),
                          min_size=1, max_size=6 if lead else 1))
    rows = [[n, *cells] if lead else cells for n, cells in enumerate(money, 1)]
    if len(rows) > 1 and draw(st.booleans()):
        rows[-1][0] = "chord_gap"
    return header, rows, lead


def one_line(text):
    """text with each C0 control, DEL, NEL, U+2028 and U+2029 written as repr writes it."""
    return "".join(repr(c)[1:-1] if c < " " or c in "\x7f\x85\u2028\u2029" else c for c in text)


def terminal_cells(text):
    """The terminal cells that text takes: two for each East Asian wide or fullwidth character."""
    return len(text) + sum(unicodedata.east_asian_width(c) in ("W", "F") for c in text)


@SETTINGS
@given(table_shapes(), st.sampled_from(["csv", "table"]))
@example((["age", "0%"], [[1, -0.00004], [2, 1e16], ["chord_gap", -0.0]], True), "table")
@example((["", "b"], [[-4e-5, -0.00005]], False), "table")
@example((["a,b", "c\nd"], [[-4e-5, 0.00005]], False), "csv")
@example((["age", "5\r%", "e\r\nf"], [[1, 0.5, -0.0], ["chord_gap", 1e16, 4e-5]], True), "csv")
@example((["period", "m"], [[1, 3.25], [2, -10.5], [3, 0.0]], True), "table")  # widest: the min
@example((["n", ""], [[1, -0.0], [2, -4e-5]], True), "table")  # only negative zeros
@example((["age", "r"], [[1, 1.5], [2, 0.5], ["chord_gap", 0.25]], True), "table")
@example((["age", "\uff15%", "0.1"], [[1, 100.0, 100.0], [2, 0.0, 0.0], ["chord_gap", 1.2, 2.4]], True),
         "table")  # a fullwidth digit: two cells
# CJK wider than its cells; a combining accent counts one cell
@example((["n", "\u6f22\u5b57\u6f22\u5b57\u6f22", "\u0301"], [[1, 1.5, -2.0]], True), "table")
# controls, DEL and the other line ends of str.splitlines, escaped: the header stays one line
@example((["age", "5\t\r\n%", "\x00\x1f\x7f"], [[1, 1.5, -2.0], ["chord_gap", 0.5, 0.25]], True), "table")
@example((["age", "5\u2028%", "\x0b\x0c\x1c\x85\u2029"], [[1, 1.5, -2.0]], True), "table")
def test_template_rows_match_per_cell_rendering(shape, fmt):
    """_render's table and CSV from one "%.4f" template per row shape are the
    per-cell rendering: fmt_money cells that csv.reader reads back, written as
    a "\n"-terminated csv.writer writes them where no header cell holds CR
    (which that writer quotes only on some Python versions), or the ljust/rjust
    table, each header's C0 controls, DEL, NEL, U+2028 and U+2029 escaped as
    repr escapes each one (so str.splitlines() reads one header line) and
    padded to its column's width in terminal cells, or for money only one
    labelled line per cell. The table's widths come from the
    cells that commands pass: _widest's two lines and the chord_gap row's. The
    JSON payload is never built."""
    header, rows, lead = shape
    line = ("%d," if lead else "") + ",".join(["%.4f"] * (len(rows[0]) - lead)) + "\n"
    tail = "chord_gap" + line[2:] if rows[-1][0] == "chord_gap" else ""
    body, gaps = (rows[:-1], rows[-1][1:]) if tail else (rows, [])
    flat = [c for row in rows for c in row if c != "chord_gap"]
    buf = io.StringIO()
    _render(buf, SimpleNamespace(format=fmt), "cmd", header, line, flat, pytest.fail,
            n=len(body), tail=tail, widest=lambda: (*_widest(body[-1][0], *list(zip(*body))[1:]), *gaps),
            labels=None if lead else header)
    cells = [[c if isinstance(c, str) else str(c) if isinstance(c, int) else fmt_money(c)
              for c in row] for row in rows]
    want = io.StringIO()
    if fmt == "csv":
        assert list(csv.reader(io.StringIO(buf.getvalue(), newline=""))) == [header, *cells]
        if any("\r" in h for h in header):
            return
        csv.writer(want, lineterminator="\n").writerows([header, *cells])
    elif not lead:
        width = max(map(len, header))
        for label, cell in zip(header, cells[0]):
            want.write(f"{label.ljust(width)}  {cell}\n" if label else f"{cell}\n")
    else:
        header = list(map(one_line, header))
        widths = [max(terminal_cells(h), *map(len, column)) for h, *column in zip(header, *cells)]
        want.write("  ".join(h.ljust(w - terminal_cells(h) + len(h)) for h, w in zip(header, widths)).rstrip()
                   + "\n")
        for row in cells:
            want.write("  ".join(c.rjust(w) for c, w in zip(row, widths)) + "\n")
    assert buf.getvalue() == want.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(finite_doubles)
@example(0.03125)
@example(-0.00004)
@example(sys.float_info.max)
def test_csv_money_rounds_once_as_json_money(x):
    assert fmt_money(x) == fmt_money(_money(x))


# Ids of any text, CR and LF included; cells that the writer must leave alone.
csv_ids = st.text(st.characters(blacklist_categories=("Cs",))) | st.lists(
    st.sampled_from([",", '"', "%", "\r", "\n", "-0.0000", ",-0.0000", "\u00e9", "\U0001f600", "a", " "]),
    max_size=6).map("".join)
csv_doubles = finite_doubles | st.floats(-5e-5, 0.0, exclude_min=True)


@SETTINGS
@given(csv_ids, csv_doubles, st.lists(st.tuples(csv_doubles, csv_doubles), min_size=1, max_size=8))
@example('a,"%-0.0000\n\u00e9', -0.0, [(-0.0, -4e-5), (5e-324, sys.float_info.max), (-1e16, 1e17)])
@example("a\rb,-0.0000\r\n", -4e-5, [(1e16, -0.0), (-5e-5, 4e-5)])
def test_batch_csv_rows_written_as_csv_module_writes_them(rec_id, value, rows):
    """Each record's rows read back by csv.reader as its cells, and written as a
    "\n"-terminated csv.writer writes them where the id holds no CR (which that
    writer quotes only on some Python versions)."""
    assert_csv_record(_schedule_csv(_period_text(_CSV_ROW, _CSV_ROW), rec_id, value, rows), rec_id, value, rows)


def assert_csv_record(text, rec_id, value, rows):
    """text is the record's rows, as csv.reader reads them back and csv.writer writes them."""
    cells = [[rec_id, fmt_money(value), str(n), fmt_money(e), fmt_money(b)] for n, (e, b) in enumerate(rows, 1)]
    assert list(csv.reader(io.StringIO(text, newline=""))) == cells
    if "\r" not in rec_id:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(cells)
        assert text == buf.getvalue()


def invoke(argv):
    """(exit code, stdout) of assetval in process; argparse's exits included."""
    out = io.StringIO()
    with redirect_stderr(io.StringIO()):
        try:
            code = main(argv, out=out)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def parses_above(token, limit):
    try:
        return abs(float(token)) > limit
    except (TypeError, ValueError, OverflowError):
        return False


# A valid token for every flag of COMMANDS that takes one; "{dir}" is a
# scratch directory holding a valid registry.
GOOD_TOKENS = {
    "--cost": "100", "--life": "10", "--rate": "0.2", "--age": "5", "--method": "intrinsic",
    "--methods": "intrinsic,sl", "--rates": "0.05,20%", "--seller-rate": "0.05",
    "--buyer-rate": "0.2", "--input": "{dir}/good.csv", "--output": "{dir}/report.json",
}
GOOD_REGISTRY = "id,cost,lifetime,rate,age\nforklift,100,10,0.2,5\n"
FLAGS = [(name, flag) for name, (_, flags) in COMMANDS.items()
         for flag, options in flags.items() if options.get("action") != "store_true"]
bad_tokens = (
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=12)
    | st.floats().map(repr)
    | st.floats().map(lambda x: f"{x}%")
    | st.integers(-(10**6), 10**30).map(str)
    | st.sampled_from(["", " ", "%", "-0", "1e309", "-1e-320", "nan%", "0x10", "1_0", "\u0663",
                       ",", "sl,,", "intrinsic, sl", "{}", "[1]", "null", "true"])
)


def test_every_flag_has_a_good_token():
    assert {flag for _, flag in FLAGS} == set(GOOD_TOKENS)


# --life stays at most 1e4 (tokens that parse above it are skipped): a
# schedule holds all its rows in memory, so a long one would only measure
# memory, not exit codes.
@SETTINGS
@given(st.sampled_from(FLAGS), bad_tokens, st.sampled_from(["table", "csv", "json"]))
@example(("schedule", "--rate"), "abc", "table")
@example(("batch", "--output"), "missing/report.json", "json")
@example(("batch", "--output"), "\x80", "json")  # not in an ASCII file system encoding
def test_bad_flag_token_never_exits_1(case, token, fmt):
    command, bad_flag = case
    assume(bad_flag != "--life" or not parses_above(token, 1e4))
    if bad_flag in ("--input", "--output"):  # a path inside the scratch directory
        assume(".." not in token)
        token = "{dir}/" + token
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "good.csv").write_text(GOOD_REGISTRY)
        tokens = {flag: GOOD_TOKENS[flag] for flag in COMMANDS[command][1] if flag in GOOD_TOKENS}
        tokens[bad_flag] = token
        argv = [f"{flag}={value.replace('{dir}', tmp)}" for flag, value in tokens.items()]
        code, out = invoke([command, *argv, "--format", fmt])
    assert code in (0, 2, 3)
    if out and (fmt == "json" or command == "batch" and fmt == "table"):  # batch's table is JSON
        json.loads(out, parse_constant=pytest.fail)  # the writer writes no NaN or Infinity


# A registry of one record whose field holds the token: a CSV cell, or a
# JSON value (the token's own JSON value where it is one, else a string).
@SETTINGS
@given(st.sampled_from(["id", "cost", "lifetime", "rate", "age"]), bad_tokens,
       st.sampled_from([".csv", ".json"]))
@example("cost", "x" * 200_000, ".csv")
@example("lifetime", "[1]", ".json")
def test_bad_registry_token_never_exits_1(field, token, suffix):
    record = {"id": "a", "cost": "100", "lifetime": "10", "rate": "0.2", "age": "5"}
    if suffix == ".json":
        try:
            token = json.loads(token)
        except ValueError:
            pass
    record[field] = token
    assume(field != "lifetime" or not parses_above(token, 1e4))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "registry" + suffix)
        if suffix == ".csv":
            with path.open("w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([record, record.values()])
        else:
            path.write_text(json.dumps([record]), encoding="utf-8")
        code, out = invoke(["batch", "--input", str(path)])
    assert code in (0, 2, 3)
    if out:  # batch's table is JSON, which holds no NaN or Infinity
        json.loads(out, parse_constant=pytest.fail)


def same_cell(cell, value):
    """The CSV cell holds the JSON value: the same float, sign of zero included."""
    if isinstance(value, float):
        x = float(cell)
        return x == value and math.copysign(1.0, x) == math.copysign(1.0, value)
    return cell == str(value)


# Each command's JSON payload as the rows of its CSV output, given the CSV
# header: a method or rate token listed twice heads two equal CSV columns
# but is one key of the payload.
PAYLOAD_ROWS = {
    "value": lambda p, header: [[p["amount"], *(p[k] for k in header[1:])]],
    "schedule": lambda p, header: [[r[k] for k in header] for r in p["rows"]],
    "compare": lambda p, header: [[n, *(p["book_values"][t][i] for t in header[1:])]
                                  for i, n in enumerate(p["periods"])],
    "sweep": lambda p, header: [[a, *(p["values"][t][a] for t in header[1:])] for a in p["ages"]]
    + [["chord_gap", *(p["chord_gap"][t] for t in header[1:])]],
    "surplus": lambda p, header: [[p[k] for k in header]],
}


@SETTINGS
@given(st.sampled_from(sorted(PAYLOAD_ROWS)), st.sampled_from(sorted(METHOD_TOKENS)), costs,
       st.integers(1, 60), rates, rates, fractions)
@example("schedule", "intrinsic", 100.0, 40, 30.0, 0.0, 0.0)
@example("value", "intrinsic", 1e-6, 10, 0.2, 0.0, 0.5)
def test_csv_cells_match_json_payload(command, method, cost, life, rate, other, fraction):
    asset = ["--cost", repr(cost), "--life", str(life)]
    age = repr(fraction * life)
    argv = {
        "value": [*asset, "--rate", repr(rate), "--age", age, "--detail"],
        "schedule": [*asset, "--rate", repr(rate), "--method", method],
        "compare": [*asset, "--rate", repr(rate), "--methods", ",".join(METHOD_TOKENS)],
        "sweep": [*asset, "--rates", f"{rate!r},{other!r}"],
        "surplus": [*asset, "--age", age, "--seller-rate", repr(rate), "--buyer-rate", repr(other)],
    }[command]
    code, text = invoke([command, *argv, "--format", "csv"])
    assume(code == 0)  # value --detail rejects rate 0 and present costs beyond a double
    header, *cells = csv.reader(io.StringIO(text))
    code, text = invoke([command, *argv, "--format", "json", "--deterministic"])
    assert code == 0
    values = PAYLOAD_ROWS[command](json.loads(text)["payload"], header)
    assert [len(row) for row in cells] == [len(row) for row in values]
    assert all(same_cell(c, v) for row, want in zip(cells, values) for c, v in zip(row, want))


@SETTINGS
@given(st.sampled_from(["schedule", "compare", "sweep"]),
       st.lists(st.sampled_from(sorted(METHOD_TOKENS)), min_size=1, max_size=4), costs,
       st.integers(1, 60), st.lists(rates, min_size=1, max_size=4))
@example("compare", ["sl", "ddb"], 1.0, 3, [0.05])  # money columns six characters wide
@example("schedule", ["sl"], 100.0, 3, [0.05])  # negative expenses, widest at the min
@example("sweep", ["sl"], 1e-6, 2, [5e-324, 1e3])  # chord_gap wider than every age
def test_command_tables_are_their_csv_cells_right_justified(command, methods, cost, life, rate_list):
    """schedule's, compare's and sweep's tables, whose column widths come from
    each column's last period or age and money maximum and minimum, are their
    CSV cells right-justified under the header, each column as wide as its widest cell."""
    tokens = [repr(r) for r in rate_list]
    argv = [command, "--cost", repr(cost), "--life", str(life), *{
        "schedule": ["--method", methods[0], "--rate", tokens[0]],
        "compare": ["--methods", ",".join(methods), "--rate", tokens[0]],
        "sweep": ["--rates", ",".join(tokens)],
    }[command]]
    code, text = invoke([*argv, "--format", "csv"])
    assume(code == 0)  # a value beyond a double at a high rate
    header, *rows = csv.reader(io.StringIO(text))
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    want = "".join(["  ".join(map(str.ljust, header, widths)).rstrip() + "\n"]
                   + ["  ".join(map(str.rjust, row, widths)) + "\n" for row in rows])
    assert invoke([*argv, "--format", "table"]) == (0, want)


@SETTINGS
@given(spread(5e-324, sys.float_info.max), st.integers(1, 400), st.lists(rates, min_size=1, max_size=4),
       fractions)
@example(100.0, 10, [0.05, 0.2], 0.5)
@example(5e-324, 1, [0.0, 5e-324], 0.5)
@example(sys.float_info.max, 400, [1e3, 0.0, 5e-324, 1e-20], 0.25)
# the largest rate on the straight line (l*log1p(r) < 2**-53) and the smallest above it,
# where _chord_gap scans every age
@example(100.0, 400, [2.775557561562891e-19, 2.7755575615628914e-19], 0.5)
@example(sys.float_info.max, 7, [1.586032892321652e-17, 1.5860328923216518e-17], 0.75)
def test_sweep_gaps_and_surplus_match_the_library(cost, life, rate_list, fraction):
    """sweep's chord gaps and surplus's surplus are the library's chord_gap and
    trade_surplus of the same inputs, as JSON and CSV write them."""
    asset = AssetSpec(cost, float(life))
    tokens = [repr(r) for r in rate_list]
    gaps = [chord_gap(asset, DiscountRate(r)) for r in rate_list]
    argv = ["sweep", "--cost", repr(cost), "--life", str(life), "--rates", ",".join(tokens)]
    code, text = invoke([*argv, "--format", "json", "--deterministic"])
    assert code == 0
    payload = json.loads(text)["payload"]
    assert [payload["chord_gap"][t] for t in tokens] == [_money(g) for g in gaps]
    code, text = invoke([*argv, "--format", "csv"])
    assert code == 0
    assert list(csv.reader(io.StringIO(text)))[-1] == ["chord_gap", *map(fmt_money, gaps)]
    age, seller, buyer = fraction * life, rate_list[0], rate_list[-1]
    code, text = invoke(["surplus", "--cost", repr(cost), "--life", str(life), "--age", repr(age),
                         "--seller-rate", repr(seller), "--buyer-rate", repr(buyer),
                         "--format", "json", "--deterministic"])
    assert code == 0
    surplus = trade_surplus(asset, age, DiscountRate(seller), DiscountRate(buyer))
    assert json.loads(text)["payload"]["surplus"] == _money(surplus)


@SETTINGS
@given(st.lists(st.tuples(st.text(), spread(1e-6, sys.float_info.max), st.integers(1, 30), rates),
                max_size=5))
@example([("a\rb", 100.0, 3, 0.0), ("c\nd", sys.float_info.max, 2, 0.2), (" a\rb ", 1e-6, 1, 0.1)])
@example([(i, 100.0, 2, 0.1) for i in ("a\u2028b", "c\x0bd", "e\x85f", "g\th")] * 2)  # four duplicates
def test_batch_csv_cells_match_json_payload(records):
    """batch --format csv reads back as the JSON payload's entries, and
    prints one stderr line per error, which str.splitlines() reads as one:
    the id with its line ends and C0 controls escaped, then the reason."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "registry.json")
        path.write_text(json.dumps([{"id": i, "cost": c, "lifetime": l, "rate": r}
                                    for i, c, l, r in records]))
        csv_out, stderr = io.StringIO(), io.StringIO()
        with redirect_stderr(stderr):
            csv_code = main(["batch", "--input", str(path), "--format", "csv"], out=csv_out)
        json_code, text = invoke(["batch", "--input", str(path), "--format", "json", "--deterministic"])
    assert csv_code == json_code
    payload = json.loads(text)["payload"]
    header, *cells = csv.reader(io.StringIO(csv_out.getvalue()))
    values = [[e["id"], e["value"], r["period"], r["expense"], r["book_value"]]
              for e in payload["entries"] for r in e["schedule"]]
    assert header == ["id", "value", "period", "expense", "book_value"]
    assert [len(row) for row in cells] == [len(row) for row in values]
    assert all(same_cell(c, v) for row, want in zip(cells, values) for c, v in zip(row, want))
    assert stderr.getvalue().splitlines() == [f"{one_line(e['id'])}: {e['reason']}"
                                              for e in payload["errors"]]


@SETTINGS
@given(schedule_inputs(), st.lists(fractions, max_size=5))
@example((AssetSpec(100, 10), DiscountRate(0.2)), [0.5])
@example((AssetSpec(1.7e308, 1), DiscountRate(0.0)), [0.0, 0.3])
@example((AssetSpec(2e11, 1), DiscountRate(0.1)), [0.25])  # its expense is cost plus an ulp
@example((AssetSpec(1, 2000.0), DiscountRate(2.0**-53 / 2000 / 2)), [1.0])
@example((AssetSpec(6e10, 3), DiscountRate(1000.0)), [0.5])
def test_intrinsic_money_within_cost(inputs, fractions):
    """Every intrinsic value, every expense and book value of each method's
    schedule and every value of a rate sweep lies within cost * (1 + 2^-40) in
    magnitude, on the closed form and on the straight line. The JSON money
    writer relies on it: below a cost of 5e10, no money cell that schedule,
    compare, sweep or batch writes reaches 1e11."""
    asset, rate = inputs
    life = asset.lifetime
    values = [intrinsic_value(asset, rate, min(f * life, life)).amount for f in fractions]
    rows = [x for method in Method for row in build_schedule(asset, method, rate).rows for x in row]
    cells = [*values, *rows, *rate_sweep(asset, [rate]).values[0]]
    assert all(abs(x) <= asset.cost * (1 + 2**-40) for x in cells)


def batch_reference(records):
    """batch's JSON payload in the dict form it was once written from: each
    entry's id, age, value and schedule rows, money as _money rounds it."""
    entries, errors, seen = [], [], set()
    for idx, record in enumerate(records, 1):
        rec_id = "" if record.get("id") is None else str(record["id"]).strip()
        if not rec_id:
            errors.append({"id": f"<row {idx}>", "reason": "missing or empty id"})
            continue
        if rec_id in seen:
            errors.append({"id": rec_id, "reason": "duplicate id"})
            continue
        seen.add(rec_id)
        try:
            _, age, value, rows = _batch_record({**record, "id": rec_id})
        except InvalidInput as exc:
            errors.append({"id": rec_id, "reason": str(exc)})
            continue
        entries.append({"id": rec_id, "age": age, "value": _money(value), "schedule": [
            {"period": n, "expense": _money(e), "book_value": _money(b)}
            for n, (e, b) in enumerate(rows, 1)]})
    return {"entries": entries, "errors": errors}


# Ids that JSON must escape or that look like money text, which the zero cut
# must not reach.
batch_ids = st.text(max_size=6) | st.lists(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", " ", "é", "\U0001f600", "1.5000,x",
                     "0.0000\n", " -0.0000,", "%r%d", "a"]), max_size=4).map("".join)
# Costs on both sides of 5e10, the writer's guard, and of 1e11, and up to 1e15.
batch_costs = spread(1e-6, 1e15) | st.floats(4e10, 1.2e11) | st.sampled_from(
    [5e10, math.nextafter(5e10, 0), 1e11, math.nextafter(1e11, 0), 99999999999.99995,
     703275009772.664, 1e15])


@st.composite
def batch_records(draw):
    """A registry record: lifetime 1, 2 or longer, age absent, whole or
    fractional, rate 0, a fraction or a percentage; or one field made bad."""
    life = draw(st.sampled_from([1, 2]) | st.integers(1, 40))
    record = {"id": draw(batch_ids), "cost": draw(batch_costs), "lifetime": life,
              "rate": draw(st.just(0) | rates | st.floats(0.0, 30.0).map(lambda x: f"{x!r}%"))}
    age = draw(st.none() | st.integers(0, life) | fractions.map(lambda f: f * life))
    if age is not None:
        record["age"] = age
    bad = draw(st.sampled_from([None] * 6 + [("cost", -1.0), ("rate", "x"), ("lifetime", 2.5),
                                             ("age", life + 1), ("id", " ")]))
    if bad:
        record[bad[0]] = bad[1]
    return record


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.lists(batch_records(), max_size=6))
@example([{"id": "1.5000,x", "cost": 703275009772.664, "lifetime": 1, "rate": 0.1},
          {"id": "0.0000\n", "cost": 5e10, "lifetime": 2, "rate": "20%", "age": 0.5},
          {"id": "0.0000\n", "cost": 1.0, "lifetime": 1, "rate": 0}])
def test_batch_json_report_is_json_dumps_of_its_dict_form(records):
    """batch --format json --deterministic writes json.dumps(indent=2) of the
    report's dict form, and exits 3 if it holds any error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "registry.json")
        path.write_text(json.dumps(records))
        code, text = invoke(["batch", "--input", str(path), "--format", "json", "--deterministic"])
    payload = batch_reference(records)
    assert code == (3 if payload["errors"] else 0)
    envelope = {"tool_version": __version__, "command": "batch", "payload": payload}
    assert text == json.dumps(envelope, indent=2) + "\n"


# Row counts on both sides of 9/10, 99/100 and 999/1,000, where a period gains a digit.
row_counts = st.sampled_from([1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001]) | st.integers(1, 1100)


@st.composite
def batch_entries(draw):
    """A record's id, cost, age, value and a few rows, its money within the cost."""
    cost = draw(batch_costs)
    money = st.floats(-1.0, 1.0).map(lambda f: f * cost) | st.integers(-(10**7), 10**7).map(
        lambda k: max(-cost, min(cost, (k + 0.5) / 10_000)))
    return (draw(batch_ids), cost, draw(st.just(0.0) | st.floats(0.0, 1e6)), draw(money),
            draw(st.lists(st.tuples(money, money), min_size=1, max_size=3)))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.lists(row_counts, min_size=1, max_size=8), st.lists(batch_entries(), min_size=1, max_size=4),
       st.sampled_from(["\n", "\n      "]))
@example([1, 10, 9, 1000, 999, 1001, 1001, 100, 99, 101],
         [("a", 100.0, 0.0, 100.0, [(-4e-5, 5e-5)]), ("1.5000,x", 5e10, 2.5, 5e10, [(-0.00015, 4e10)]),
          ("0.0000\n", math.nextafter(5e10, 0), 1.0, 0.00005, [(-1.5, 0.00025), (703275009.7726639, -0.0)])],
         "\n      ")
@example([1001, 1, 12], [("b", 703275009772.664, 0.0, 703275009772.664, [(-0.00005, 1e11)])], "\n")
def test_batch_records_share_one_period_text(counts, entries, pad):
    """Records fed in turn through one batch's period texts, with row counts that
    grow, shrink and repeat, write each JSON entry as json.dumps(indent=2) writes
    its dict at pad and each CSV record as the csv module writes its rows."""
    texts, csv_text = {}, _period_text(_CSV_ROW, _CSV_ROW)
    for i, n in enumerate(counts):
        rec_id, cost, age, value, pairs = entries[i % len(entries)]
        rows = [pairs[k % len(pairs)] for k in range(n)]
        entry = {"id": rec_id, "age": age, "value": _money(value), "schedule": [
            {"period": k, "expense": _money(e), "book_value": _money(b)} for k, (e, b) in enumerate(rows, 1)]}
        assert _batch_json(texts, rec_id, cost, age, value, rows, pad) == json.dumps(entry, indent=2).replace(
            "\n", pad)
        assert_csv_record(_schedule_csv(csv_text, rec_id, value, rows), rec_id, value, rows)
