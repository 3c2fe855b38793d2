import math

import pytest

from assetval import (
    AgeOutOfRange,
    AssetSpec,
    NonIntegerPeriod,
    double_declining_book_value,
    straight_line_book_value,
    sum_of_years_book_value,
)
from assetval.classic import _period_fault
from assetval.core import check_age

ASSET = AssetSpec(cost=100, lifetime=10)
BOOK_FNS = [straight_line_book_value, double_declining_book_value, sum_of_years_book_value]
WHOLE_PERIOD_FNS = BOOK_FNS[1:]


class TestStraightLine:
    @pytest.mark.parametrize("age,expected", [(0, 100), (5, 50), (10, 0)])
    def test_points(self, age, expected):
        assert straight_line_book_value(ASSET, age) == pytest.approx(expected, abs=1e-12)

    def test_fractional_age_allowed(self):
        assert straight_line_book_value(ASSET, 2.5) == pytest.approx(75)

    def test_age_out_of_range(self):
        with pytest.raises(AgeOutOfRange):
            straight_line_book_value(ASSET, 10.1)


class TestDoubleDeclining:
    @pytest.mark.parametrize(
        "age,expected", [(0, 100), (1, 80), (10, 10.737418240000006)]
    )
    def test_points(self, age, expected):
        assert double_declining_book_value(ASSET, age) == pytest.approx(expected, rel=1e-12)

    def test_residual_is_positive(self):
        assert double_declining_book_value(ASSET, 10) > 0

    def test_fractional_age_rejected(self):
        with pytest.raises(NonIntegerPeriod):
            double_declining_book_value(ASSET, 1.5)

    def test_fractional_lifetime_rejected(self):
        with pytest.raises(NonIntegerPeriod):
            double_declining_book_value(AssetSpec(cost=100, lifetime=7.5), 1)

    def test_lifetime_one_writes_off_to_zero(self):
        # the declining factor 2/l exceeds 1 here; capped, the book stays >= 0
        asset = AssetSpec(cost=100, lifetime=1)
        assert double_declining_book_value(asset, 0) == 100
        assert double_declining_book_value(asset, 1) == 0


class TestSumOfYears:
    @pytest.mark.parametrize(
        "age,expected", [(0, 100), (1, 100 * 45 / 55), (10, 0)]
    )
    def test_points(self, age, expected):
        assert sum_of_years_book_value(ASSET, age) == pytest.approx(expected, rel=1e-12)

    def test_fully_depreciates_exactly(self):
        assert sum_of_years_book_value(ASSET, 10) == 0

    def test_fractional_age_rejected(self):
        with pytest.raises(NonIntegerPeriod):
            sum_of_years_book_value(ASSET, 0.5)

    def test_largest_cost_stays_finite(self):
        # cost * (digits - used) overflowed here, before the division by digits
        asset = AssetSpec(cost=1.7e308, lifetime=3)
        assert [sum_of_years_book_value(asset, a) for a in range(4)] == [
            1.7e308, 1.7e308 * (3 / 6), 1.7e308 * (1 / 6), 0.0,
        ]


@pytest.mark.parametrize("book_fn", BOOK_FNS)
def test_all_methods_start_at_cost_and_never_increase(book_fn):
    values = [book_fn(ASSET, a) for a in range(11)]
    assert values[0] == 100
    assert all(b <= a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("book_fn", BOOK_FNS)
@pytest.mark.parametrize("age", [math.nan, math.inf, -math.inf])
def test_non_finite_age_is_out_of_range(book_fn, age):
    # DDB and SYD once raised a bare ValueError (NaN) or OverflowError (+-inf)
    # from int(age), which a caller catching InvalidInput missed
    with pytest.raises(AgeOutOfRange) as exc:
        book_fn(ASSET, age)
    assert exc.value.field == "age"
    assert str(exc.value) == f"age must lie in [0, 10], got {age!r}"


@pytest.mark.parametrize("book_fn", WHOLE_PERIOD_FNS)
@pytest.mark.parametrize("age", [math.nan, 1.5, 11])
def test_fractional_lifetime_is_the_first_fault(book_fn, age):
    with pytest.raises(NonIntegerPeriod) as exc:
        book_fn(AssetSpec(cost=100, lifetime=7.5), age)
    assert exc.value.field == "lifetime"


class TestOneFrame:
    """A schedule calls a book function once per row, and a call to each
    check costs more than the formula, so a valid call runs in one frame."""

    @pytest.mark.parametrize("book_fn", BOOK_FNS)
    @pytest.mark.parametrize("asset", [ASSET, AssetSpec(cost=100.0, lifetime=2.0), AssetSpec(1, 1)])
    def test_valid_age_runs_in_one_frame(self, entered, book_fn, asset):
        fractional = (0.5,) if book_fn is straight_line_book_value else ()
        for age in (0, -0.0, 1, 1.0, asset.lifetime, int(asset.lifetime), *fractional):
            assert entered(book_fn, asset, age) == [book_fn.__code__]

    @pytest.mark.parametrize("age", [math.nan, math.inf, -1, 11, 10.5])
    def test_bad_age_enters_the_fault_helper(self, entered, age):
        codes = entered(straight_line_book_value, ASSET, age)
        assert codes[:2] == [straight_line_book_value.__code__, check_age.__code__]
        for book_fn in WHOLE_PERIOD_FNS:
            codes = entered(book_fn, ASSET, age)
            assert codes[:2] == [book_fn.__code__, _period_fault.__code__]
