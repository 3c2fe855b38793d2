"""Properties checked with Hypothesis: the closed forms and schedules over
wide input ranges, and the CLI's JSON writer against the json module.

Ranges: cost in [1e-6, 1e12], lifetime in [1e-3, 1e6], rate in [0, 1e3],
rate 0 and subnormal rates included. Each range is drawn both uniformly
and log-uniformly, so that small magnitudes are reached as often as large
ones. Runs are derandomized, so the suite is deterministic.
"""

import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from assetval import (
    AssetSpec,
    DiscountRate,
    InvalidInput,
    Method,
    build_schedule,
    intrinsic_value,
    present_cost,
    trade_surplus,
)
from assetval.cli import _write_json

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def spread(lo, hi, log_lo=None):
    """Floats in [lo, hi], drawn uniformly or log-uniformly from log_lo (default lo) up."""
    log_lo = lo if log_lo is None else log_lo
    log_uniform = st.floats(math.log10(log_lo), math.log10(hi)).map(
        lambda x: min(max(10.0**x, lo), hi)
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
    assert [row.period for row in rows] == list(range(1, lifetime + 1))
    assert all(row.expense <= 0.0 for row in rows)
    assert all(row.book_value >= 0.0 for row in rows)
    assert math.fsum(row.expense for row in rows) == pytest.approx(-cost, rel=1e-9)
    for row in rows:
        want = intrinsic_value(asset, r, row.period).amount
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


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**60), 10**60)
    | st.floats()
    | st.sampled_from([-0.0, 1e-7, 1e16, 1e22, math.nan, math.inf, -math.inf])
    | st.text(max_size=8)
    | st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600 a'), max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12,
)


def as_generators(obj):
    """obj with every list and tuple turned into a generator."""
    if isinstance(obj, dict):
        return {k: as_generators(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return (as_generators(v) for v in obj)
    return obj


def written(obj):
    buf = io.StringIO()
    _write_json(buf.write, obj)
    return buf.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(json_values)
@example({"a": [], "b": {}, "c": [[], {}, [[{}]]], "d": {"e": {"f": []}}})
@example([[], ()])
def test_json_writer_matches_json_module(obj):
    want = json.dumps(obj, indent=2)
    assert written(obj) == want
    assert written(as_generators(obj)) == want
