"""Closed-form valuation checked against an independent brute-force sum.

Expected constants below were frozen from the local `truncated_sum`
oracle (and direct arithmetic for the trivial cases) before the closed
forms were trusted.
"""

import copy
import math
import pickle
from decimal import Decimal, localcontext
from functools import partial
from itertools import product

import pytest

from assetval import (
    AgeOrderViolation,
    AgeOutOfRange,
    AssetSpec,
    DiscountRate,
    InvalidInput,
    Method,
    Valuation,
    ZeroRateDivergence,
    build_schedule,
    compare_methods,
    delayed_present_cost,
    intrinsic_depreciation,
    intrinsic_value,
    perpetuity_oracle,
    present_cost,
    rate_sweep,
)
from assetval.core import check_age

REF_ASSET = AssetSpec(cost=100, lifetime=10)
R20 = DiscountRate(0.2)

GRID_COSTS = (1.0, 100.0, 1e6)
GRID_LIVES = (1.0, 5.0, 10.0, 40.0)
GRID_RATES = (0.01, 0.05, 0.2, 0.5)
# valid ages of REF_ASSET and faulty ones: NaN, +-inf, negative, above the lifetime
AGES = (0, 3, 10, -0.0, 5e-324, math.nan, math.inf, -math.inf, -1e-300, -2, 10.000000000000002, 11)


def truncated_sum(cost, lifetime, rate, terms):
    """Independent oracle: purchase now plus `terms` discounted repurchases."""
    per_cycle = math.log1p(rate) * lifetime
    total = -cost
    for k in range(1, terms + 1):
        total -= cost * math.exp(-per_cycle * k)
    return total


class TestPresentCost:
    def test_reference_asset(self):
        v = present_cost(REF_ASSET, R20)
        assert v.amount == pytest.approx(-119.26137844142957, rel=1e-12)

    def test_matches_truncated_sum(self):
        v = present_cost(REF_ASSET, R20)
        assert v.amount == pytest.approx(truncated_sum(100, 10, 0.2, 500), rel=1e-9)

    def test_huge_rate_approaches_bare_cost(self):
        v = present_cost(REF_ASSET, DiscountRate(1000))
        assert v.amount == pytest.approx(-100, rel=1e-12)

    def test_zero_rate_diverges(self):
        with pytest.raises(ZeroRateDivergence):
            present_cost(REF_ASSET, DiscountRate(0))

    def test_compound_factor_beyond_double(self):
        # 11^1e6 does not fit a double; the present cost is the bare cost
        assert present_cost(AssetSpec(cost=1, lifetime=1e6), DiscountRate(10)).amount == -1.0

    def test_result_beyond_double_rejected(self):
        # P and D are about -cost / (lifetime * rate): -inf at a subnormal rate
        asset, rate = AssetSpec(cost=100, lifetime=1), DiscountRate(5e-324)
        for cost_of in (present_cost, lambda a, r: delayed_present_cost(a, r, 0.5)):
            with pytest.raises(InvalidInput) as exc:
                cost_of(asset, rate)
            assert exc.value.field == "rate"


class TestDelayedPresentCost:
    def test_new_asset(self):
        d = delayed_present_cost(REF_ASSET, R20, 0)
        assert d.amount == pytest.approx(-19.26137844142957, rel=1e-12)

    def test_fully_aged_equals_present_cost(self):
        d = delayed_present_cost(REF_ASSET, R20, 10)
        p = present_cost(REF_ASSET, R20)
        assert d.amount == pytest.approx(p.amount, rel=1e-12)

    def test_midlife(self):
        # cross-checked against truncated_sum(..., 500) / 1.2**5
        d = delayed_present_cost(REF_ASSET, R20, 5)
        assert d.amount == pytest.approx(-47.92847320337802, rel=1e-12)
        assert d.amount == pytest.approx(truncated_sum(100, 10, 0.2, 500) / 1.2**5, rel=1e-9)

    def test_age_out_of_range(self):
        with pytest.raises(AgeOutOfRange):
            delayed_present_cost(REF_ASSET, R20, 10.5)
        with pytest.raises(AgeOutOfRange):
            delayed_present_cost(REF_ASSET, R20, -0.1)

    def test_zero_rate_diverges(self):
        with pytest.raises(ZeroRateDivergence):
            delayed_present_cost(REF_ASSET, DiscountRate(0), 5)


class TestIntrinsicValue:
    def test_new_asset_worth_cost(self):
        assert intrinsic_value(REF_ASSET, R20, 0).amount == pytest.approx(100, rel=1e-12)

    def test_fully_aged_worthless(self):
        assert intrinsic_value(REF_ASSET, R20, 10).amount == pytest.approx(0, abs=1e-10)

    def test_midlife(self):
        assert intrinsic_value(REF_ASSET, R20, 5).amount == pytest.approx(
            71.33290523805154, rel=1e-12
        )

    def test_near_zero_rate_is_straight_line(self):
        v = intrinsic_value(REF_ASSET, DiscountRate(1e-9), 5).amount
        assert v == pytest.approx(50.0, rel=1e-6)

    def test_zero_rate_exact_limit(self):
        for age in (0, 2.5, 5, 7.5, 10):
            v = intrinsic_value(REF_ASSET, DiscountRate(0), age).amount
            assert v == pytest.approx(100 * (1 - age / 10), abs=1e-12)

    def test_age_out_of_range(self):
        with pytest.raises(AgeOutOfRange):
            intrinsic_value(REF_ASSET, R20, 11)

    def test_huge_rate_and_lifetime(self):
        # 148^142 does not fit a double
        asset, rate = AssetSpec(cost=2, lifetime=142), DiscountRate(147)
        assert intrinsic_value(asset, rate, 0).amount == 2.0
        rows = build_schedule(asset, Method.INTRINSIC, rate).rows
        assert all(math.isfinite(row.book_value) for row in rows)

    def test_subnormal_rate_is_straight_line(self):
        v = intrinsic_value(AssetSpec(cost=100, lifetime=1), DiscountRate(5e-324), 0.5)
        assert v.amount == 50

    def test_returns_valuation(self):
        v = intrinsic_value(REF_ASSET, R20, 3)
        assert isinstance(v, Valuation)
        assert Valuation._fields == ("amount",)

    def test_valuation_is_an_immutable_named_tuple(self):
        v = intrinsic_value(REF_ASSET, R20, 5)
        (amount,) = v
        assert amount == v.amount
        assert v == (v.amount,)
        with pytest.raises(AttributeError):
            v.amount = 0.0
        for point in (present_cost(REF_ASSET, R20), delayed_present_cost(REF_ASSET, R20, 5)):
            assert isinstance(point, Valuation)
            assert tuple(point) == (point.amount,)

    @pytest.mark.parametrize("rate", [R20, DiscountRate(0)])
    @pytest.mark.parametrize("age", [0, -0.0, 2.5, 10])
    def test_valid_age_runs_in_one_frame(self, entered, rate, age):
        # Each helper call (the age check, g and E, V, the NamedTuple's
        # __new__) costs more than the formula; none may come back.
        assert entered(intrinsic_value, REF_ASSET, rate, age) == [intrinsic_value.__code__]

    @pytest.mark.parametrize("age", [math.nan, math.inf, -math.inf, -1e-300, 11])
    def test_bad_age_enters_the_age_check(self, entered, age):
        codes = entered(intrinsic_value, REF_ASSET, R20, age)
        assert codes[:2] == [intrinsic_value.__code__, check_age.__code__]


class TestLongLifetimes:
    """(1+r)^lifetime does not fit a double at these points; V, D and P do."""

    @pytest.mark.parametrize("lifetime, rate", [(2000, 0.5), (1e5, 0.01)])
    def test_finite_and_telescoping(self, lifetime, rate):
        asset, rate = AssetSpec(cost=100, lifetime=lifetime), DiscountRate(rate)
        for age in (0, lifetime / 2, lifetime):
            assert math.isfinite(intrinsic_value(asset, rate, age).amount)
            assert math.isfinite(delayed_present_cost(asset, rate, age).amount)
        assert math.isfinite(present_cost(asset, rate).amount)
        rows = build_schedule(asset, Method.INTRINSIC, rate).rows
        assert math.fsum(row.expense for row in rows) == pytest.approx(-100, rel=1e-12)


class TestIntrinsicDepreciation:
    def test_first_year(self):
        dv = intrinsic_depreciation(REF_ASSET, R20, 0, 1)
        assert dv == pytest.approx(-100 * 0.2 / (1.2**10 - 1), rel=1e-12)

    def test_zero_length_period(self):
        assert intrinsic_depreciation(REF_ASSET, R20, 3, 3) == 0

    def test_full_life_writes_off_cost(self):
        assert intrinsic_depreciation(REF_ASSET, R20, 0, 10) == pytest.approx(-100, rel=1e-12)

    def test_matches_value_difference(self):
        dv = intrinsic_depreciation(REF_ASSET, R20, 2, 7)
        diff = (
            intrinsic_value(REF_ASSET, R20, 7).amount
            - intrinsic_value(REF_ASSET, R20, 2).amount
        )
        assert dv == pytest.approx(diff, rel=1e-10)

    def test_order_violation(self):
        with pytest.raises(AgeOrderViolation):
            intrinsic_depreciation(REF_ASSET, R20, 5, 4)

    def test_same_fault_as_three_step_check(self):
        # One chained comparison guards the checks. Whatever pair of ages
        # fails it, the exception must be the one the three checks raise.
        def three_step_check(age_start, age_end):
            check_age(REF_ASSET, age_start, name="age_start")
            check_age(REF_ASSET, age_end, name="age_end")
            if age_end < age_start:
                raise AgeOrderViolation(f"age_end ({age_end}) precedes age_start ({age_start})")

        def fault(call, *ages):
            try:
                call(*ages)
            except InvalidInput as exc:
                return type(exc), exc.field, str(exc)
            return None

        pairs = list(product(AGES, repeat=2))
        faults = [fault(three_step_check, *ages) for ages in pairs]
        assert faults.count(None) == 16  # the ordered pairs of valid ages
        depreciation = partial(intrinsic_depreciation, REF_ASSET, R20)
        assert [fault(depreciation, *ages) for ages in pairs] == faults

    @pytest.mark.parametrize("rate", [R20, DiscountRate(0)])
    @pytest.mark.parametrize("ages", [(0, 1), (-0.0, 0), (3, 3), (2.5, 10.0), (9, 10)])
    def test_valid_ages_run_in_one_frame(self, entered, rate, ages):
        # one call per intrinsic schedule row: no helper call may come back
        codes = entered(intrinsic_depreciation, REF_ASSET, rate, *ages)
        assert codes == [intrinsic_depreciation.__code__]

    @pytest.mark.parametrize("ages", [(math.nan, 1), (0, math.inf), (-1, 1), (0, 11), (5, 4)])
    def test_bad_ages_enter_the_age_check(self, entered, ages):
        codes = entered(intrinsic_depreciation, REF_ASSET, R20, *ages)
        assert codes[:2] == [intrinsic_depreciation.__code__, check_age.__code__]

    def test_zero_rate_is_straight_line_expense(self):
        dv = intrinsic_depreciation(REF_ASSET, DiscountRate(0), 2, 4)
        assert dv == pytest.approx(-20, rel=1e-12)

    def test_rate_zero_at_largest_cost_stays_finite(self):
        # cost * span overflowed here, before the division by the lifetime
        assert intrinsic_depreciation(AssetSpec(1.7e308, 3), DiscountRate(0), 0, 3) == -1.7e308

    def test_tiny_span_at_rate_zero_is_exact(self):
        # V(1e-10) - V(0) would keep only about 5 significant digits here
        assert intrinsic_depreciation(REF_ASSET, DiscountRate(0), 0, 1e-10) == -100 * 1e-10 / 10

    def test_small_first_period_keeps_relative_precision(self):
        # The first-period drop at (l=100, r=0.2) is about 2.4e-9 * cost;
        # exact: -cost * r / ((1+r)^100 - 1), evaluated in 50-digit decimals.
        asset = AssetSpec(100, 100)
        with localcontext() as ctx:
            ctx.prec = 50
            r = Decimal(R20.rate)
            exact = float(-100 * r / ((1 + r) ** 100 - 1))
        dv = intrinsic_depreciation(asset, R20, 0, 1)
        assert dv == pytest.approx(exact, rel=1e-14, abs=0)
        assert build_schedule(asset, Method.INTRINSIC, R20).rows[0].expense == dv


class TestPerpetuityOracle:
    def test_single_term(self):
        got = perpetuity_oracle(REF_ASSET, R20, 1)
        assert got == pytest.approx(-100 - 100 / 1.2**10, rel=1e-12)

    def test_matches_independent_sum(self):
        got = perpetuity_oracle(REF_ASSET, R20, 500)
        assert got == pytest.approx(truncated_sum(100, 10, 0.2, 500), rel=1e-13)

    def test_converges_to_present_cost(self):
        p = present_cost(REF_ASSET, R20).amount
        got = perpetuity_oracle(REF_ASSET, R20, 500)
        assert abs(got - p) / abs(p) < 1e-9

    def test_monotone_decreasing_in_terms(self):
        sums = [perpetuity_oracle(REF_ASSET, R20, t) for t in range(1, 8)]
        assert all(b < a for a, b in zip(sums, sums[1:]))

    def test_terms_validated(self):
        with pytest.raises(InvalidInput):
            perpetuity_oracle(REF_ASSET, R20, 0)

    def test_zero_rate_diverges(self):
        with pytest.raises(ZeroRateDivergence):
            perpetuity_oracle(REF_ASSET, DiscountRate(0), 10)


class TestTypeInvariants:
    @pytest.mark.parametrize("cost", [0, -1, math.nan, math.inf])
    def test_bad_cost(self, cost):
        with pytest.raises(InvalidInput):
            AssetSpec(cost=cost, lifetime=10)

    @pytest.mark.parametrize("lifetime", [0, -3, math.nan])
    def test_bad_lifetime(self, lifetime):
        with pytest.raises(InvalidInput):
            AssetSpec(cost=100, lifetime=lifetime)

    @pytest.mark.parametrize("rate", [-0.01, math.nan, math.inf])
    def test_bad_rate(self, rate):
        with pytest.raises(InvalidInput):
            DiscountRate(rate)


class TestValueSemantics:
    """AssetSpec and DiscountRate are immutable values: built by keyword or by
    position, equal and hashed by their fields, rebuilt by copy and pickle."""

    def test_keyword_and_positional_construction_keep_the_given_numbers(self):
        asset = AssetSpec(cost=100, lifetime=10)
        assert asset == AssetSpec(100, 10) == AssetSpec(100, lifetime=10)
        assert (asset.cost, asset.lifetime) == (100, 10)
        assert type(asset.cost) is int and type(asset.lifetime) is int
        assert DiscountRate(rate=0).rate == 0 and type(DiscountRate(0).rate) is int
        assert DiscountRate(0.2) == DiscountRate(rate=0.2)

    @pytest.mark.parametrize("make, field, message", [
        (lambda: AssetSpec(0, 10), "cost", "cost must be a positive finite number, got 0"),
        (lambda: AssetSpec(-1.5, math.nan), "cost", "cost must be a positive finite number, got -1.5"),
        (lambda: AssetSpec(cost=math.inf, lifetime=-1), "cost",
         "cost must be a positive finite number, got inf"),
        (lambda: AssetSpec(100, 0), "lifetime", "lifetime must be a positive finite number, got 0"),
        (lambda: AssetSpec(100, lifetime=math.nan), "lifetime",
         "lifetime must be a positive finite number, got nan"),
        (lambda: DiscountRate(-0.01), "rate", "rate must be a non-negative finite number, got -0.01"),
        (lambda: DiscountRate(rate=math.inf), "rate", "rate must be a non-negative finite number, got inf"),
    ])
    def test_bad_input_names_its_field_first_cost_then_lifetime(self, make, field, message):
        with pytest.raises(InvalidInput) as caught:
            make()
        assert type(caught.value) is InvalidInput
        assert (caught.value.field, str(caught.value)) == (field, message)

    def test_a_non_number_or_a_missing_field_is_a_type_error(self):
        for make in (lambda: AssetSpec("100", 10), lambda: AssetSpec(100),
                     lambda: DiscountRate(None), lambda: DiscountRate(rate=0.2, cost=1)):
            with pytest.raises(TypeError):
                make()

    def test_equal_and_hashed_by_fields_within_the_class_only(self):
        asset, rate = AssetSpec(100, 10), DiscountRate(0.2)
        assert asset == AssetSpec(100.0, 10.0) and not asset != AssetSpec(100.0, 10.0)
        assert hash(asset) == hash(AssetSpec(100.0, 10.0)) == hash((100, 10))
        assert hash(rate) == hash(DiscountRate(0.2)) == hash((0.2,))
        assert asset != AssetSpec(100, 11) and rate != DiscountRate(0.3)
        assert asset != (100, 10) and (100, 10) != asset and rate != (0.2,)
        assert asset.__eq__((100, 10)) is NotImplemented
        assert AssetSpec(1, 1) != DiscountRate(1) and DiscountRate(1) != AssetSpec(1, 1)
        assert len({asset, AssetSpec(100.0, 10.0), rate, DiscountRate(0.2)}) == 2

    def test_repr(self):
        assert repr(AssetSpec(cost=100, lifetime=10.5)) == "AssetSpec(cost=100, lifetime=10.5)"
        assert repr(DiscountRate(0.2)) == "DiscountRate(rate=0.2)"

    def test_match_args(self):
        match AssetSpec(100, 10), DiscountRate(0.2):
            case AssetSpec(cost, life), DiscountRate(rate):
                assert (cost, life, rate) == (100, 10, 0.2)
            case _:
                pytest.fail("positional patterns did not match")

    def test_fields_cannot_be_assigned_or_deleted(self):
        asset, rate = AssetSpec(100, 10), DiscountRate(0.2)
        with pytest.raises(AttributeError, match="cannot assign to field 'cost'"):
            asset.cost = 1
        with pytest.raises(AttributeError, match="cannot delete field 'lifetime'"):
            del asset.lifetime
        with pytest.raises(AttributeError, match="cannot assign to field 'rate'"):
            rate.rate = 1
        with pytest.raises(AttributeError):
            asset.other = 1
        assert (asset, rate) == (AssetSpec(100, 10), DiscountRate(0.2))

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copy_deepcopy_and_pickle_give_an_equal_value(self, clone):
        for value in (AssetSpec(100, 10.5), DiscountRate(0), DiscountRate(0.2)):
            twin = clone(value)
            assert twin == value and type(twin) is type(value) and repr(twin) == repr(value)

    def test_reports_keep_their_one_field_and_are_tuples(self):
        schedule = build_schedule(REF_ASSET, Method.STRAIGHT_LINE)
        assert schedule.rows[0] == (-10.0, 90.0) and schedule == (schedule.rows,)
        comparison = compare_methods(REF_ASSET, [Method.STRAIGHT_LINE, Method.SUM_OF_YEARS])
        assert comparison.schedules[0] == schedule
        (values,) = rate_sweep(REF_ASSET, [R20]).values
        assert values[0] == 100.0 and values[-1] == 0.0


def _grid():
    for cost in GRID_COSTS:
        for life in GRID_LIVES:
            for rate in GRID_RATES:
                yield AssetSpec(cost=cost, lifetime=life), DiscountRate(rate)


class TestCrossFormulaProperties:
    def test_boundary_identities_on_grid(self):
        for asset, rate in _grid():
            v0 = intrinsic_value(asset, rate, 0).amount
            vl = intrinsic_value(asset, rate, asset.lifetime).amount
            assert abs(v0 - asset.cost) <= 1e-12 * asset.cost
            assert abs(vl) <= 1e-12 * asset.cost

    def test_value_is_delayed_minus_present(self):
        for asset, rate in _grid():
            for frac in (0.0, 0.3, 0.5, 1.0):
                age = frac * asset.lifetime
                v = intrinsic_value(asset, rate, age).amount
                d = delayed_present_cost(asset, rate, age).amount
                p = present_cost(asset, rate).amount
                assert v == pytest.approx(d - p, rel=1e-10, abs=1e-10 * asset.cost)

    def test_delayed_compounds_back_to_present(self):
        for asset, rate in _grid():
            for frac in (0.0, 0.25, 0.75):
                age = frac * asset.lifetime
                d = delayed_present_cost(asset, rate, age).amount
                p = present_cost(asset, rate).amount
                compounded = d * (1 + rate.rate) ** (asset.lifetime - age)
                assert compounded == pytest.approx(p, rel=1e-10)

    def test_telescoping_partition(self):
        partition = [0, 0.5, 1, 2.25, 4, 7, 9.9, 10]
        total = sum(
            intrinsic_depreciation(REF_ASSET, R20, a, b)
            for a, b in zip(partition, partition[1:])
        )
        assert total == pytest.approx(-100, rel=1e-9)

    def test_strictly_decreasing_in_age(self):
        ages = [i * 0.5 for i in range(21)]
        values = [intrinsic_value(REF_ASSET, R20, a).amount for a in ages]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_strictly_increasing_in_rate(self):
        rates = [0.01, 0.05, 0.2, 0.5, 1.0]
        for age in (1, 2.5, 5, 9):
            values = [
                intrinsic_value(REF_ASSET, DiscountRate(r), age).amount for r in rates
            ]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_value_curve_dominates_chord(self):
        for asset, rate in _grid():
            for frac in (0.1, 0.5, 0.9):
                age = frac * asset.lifetime
                v = intrinsic_value(asset, rate, age).amount
                chord = asset.cost * (1 - age / asset.lifetime)
                assert v > chord

    def test_value_stays_within_cost_bounds(self):
        for asset, rate in _grid():
            for frac in (0.0, 0.2, 0.6, 1.0):
                v = intrinsic_value(asset, rate, frac * asset.lifetime).amount
                assert -1e-12 * asset.cost <= v <= asset.cost * (1 + 1e-12)
