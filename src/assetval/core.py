"""Time-value-of-money valuation of a depreciable asset.

An asset needed indefinitely must be replaced forever at intervals of its
lifetime, so owning it commits the owner to a perpetuity of replacement
outlays. The present cost of that perpetuity is finite for any positive
discount rate, and the value of holding a partly-aged asset is the saving
from deferring the whole replacement chain by the remaining life.

Closed forms:

    present cost     P(r, l)    = -cost * (1+r)^l / ((1+r)^l - 1)
    delayed cost     D(r, l, a) = -cost * (1+r)^a / ((1+r)^l - 1)
    intrinsic value  V(r, l, a) = cost * ((1+r)^l - (1+r)^a) / ((1+r)^l - 1)
    depreciation     dV         = -cost * ((1+r)^b - (1+r)^a) / ((1+r)^l - 1)

Costs are stored as positive magnitudes; expense results (present and
delayed cost, depreciation) come back negative, values non-negative.
`perpetuity_oracle` is a brute-force truncated sum of the replacement
perpetuity, kept deliberately independent of the closed forms so the test
suite can check one against the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    AgeOrderViolation,
    AgeOutOfRange,
    InvalidInput,
    ZeroRateDivergence,
)


@dataclass(frozen=True)
class AssetSpec:
    """Replacement cost (positive magnitude) and lifetime in periods."""

    cost: float
    lifetime: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.cost) and self.cost > 0):
            raise InvalidInput(
                f"cost must be a positive finite number, got {self.cost!r}", field="cost"
            )
        if not (math.isfinite(self.lifetime) and self.lifetime > 0):
            raise InvalidInput(
                f"lifetime must be a positive finite number, got {self.lifetime!r}",
                field="lifetime",
            )


@dataclass(frozen=True)
class DiscountRate:
    """Per-period cost of capital as a dimensionless fraction (0.2 = 20%)."""

    rate: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.rate) or self.rate < 0:
            raise InvalidInput(
                f"rate must be a non-negative finite number, got {self.rate!r}", field="rate"
            )


class ValuationKind(Enum):
    PRESENT_COST = "present_cost"
    DELAYED_COST = "delayed_cost"
    INTRINSIC_VALUE = "intrinsic_value"


@dataclass(frozen=True)
class Valuation:
    """A money amount attached to an asset age.

    Present and delayed cost are expenses and carry a negative amount;
    intrinsic value lies in [0, cost].
    """

    amount: float
    age: float
    kind: ValuationKind


def check_age(asset: AssetSpec, age: float, *, name: str = "age") -> float:
    """Validate 0 <= age <= lifetime, returning the age."""
    if not math.isfinite(age) or age < 0 or age > asset.lifetime:
        raise AgeOutOfRange(
            f"{name} must lie in [0, {asset.lifetime}], got {age!r}", field=name
        )
    return age


def _require_positive_rate(rate: DiscountRate) -> float:
    if rate.rate == 0:
        raise ZeroRateDivergence(
            "replacement perpetuity diverges at rate 0 (geometric ratio 1)", field="rate"
        )
    return rate.rate


def _growth(rate: float, exponent: float) -> float:
    """(1 + rate)^exponent, rejecting inputs that overflow to infinity."""
    try:
        out = math.exp(exponent * math.log1p(rate))
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise InvalidInput(
            f"(1 + {rate})^{exponent} overflows double precision"
        )
    return out


def _growth_m1(rate: float, exponent: float) -> float:
    """(1 + rate)^exponent - 1, accurate for small rates."""
    try:
        out = math.expm1(exponent * math.log1p(rate))
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise InvalidInput(
            f"(1 + {rate})^{exponent} overflows double precision"
        )
    return out


def present_cost(asset: AssetSpec, rate: DiscountRate) -> Valuation:
    """Present cost of owning the asset and replacing it forever.

    Discounted sum of the purchase now plus one repurchase every lifetime,
    in perpetuity. Negative (an expense). Raises ZeroRateDivergence at
    rate 0, where the perpetuity does not converge.
    """
    r = _require_positive_rate(rate)
    amount = -asset.cost * _growth(r, asset.lifetime) / _growth_m1(r, asset.lifetime)
    return Valuation(amount=amount, age=0.0, kind=ValuationKind.PRESENT_COST)


def delayed_present_cost(asset: AssetSpec, rate: DiscountRate, age: float) -> Valuation:
    """Present cost of the same replacement chain deferred by the remaining life.

    Equals present_cost discounted by (1+r)^(lifetime - age). Negative.
    """
    check_age(asset, age)
    r = _require_positive_rate(rate)
    amount = -asset.cost * _growth(r, age) / _growth_m1(r, asset.lifetime)
    return Valuation(amount=amount, age=age, kind=ValuationKind.DELAYED_COST)


def intrinsic_value(asset: AssetSpec, rate: DiscountRate, age: float) -> Valuation:
    """Value of holding the aged asset: delayed cost minus present cost.

    Lies in [0, cost]; equals cost at age 0 and 0 at age = lifetime. At
    rate 0 the two expense terms diverge but their difference does not,
    and the analytic limit is the straight line cost * (1 - age/lifetime).
    """
    check_age(asset, age)
    if rate.rate == 0:
        amount = asset.cost * (1.0 - age / asset.lifetime)
    else:
        denom = _growth_m1(rate.rate, asset.lifetime)
        amount = asset.cost * (denom - _growth_m1(rate.rate, age)) / denom
    return Valuation(amount=amount, age=age, kind=ValuationKind.INTRINSIC_VALUE)


def intrinsic_depreciation(
    asset: AssetSpec, rate: DiscountRate, age_start: float, age_end: float
) -> float:
    """Drop in intrinsic value over [age_start, age_end], as a signed expense.

    Always <= 0; zero only for a zero-length period. The rate-0 limit is
    the straight-line expense for the same span.
    """
    check_age(asset, age_start, name="age_start")
    check_age(asset, age_end, name="age_end")
    if age_end < age_start:
        raise AgeOrderViolation(
            f"age_end ({age_end}) precedes age_start ({age_start})"
        )
    if rate.rate == 0:
        return -asset.cost * (age_end - age_start) / asset.lifetime
    denom = _growth_m1(rate.rate, asset.lifetime)
    return -asset.cost * (_growth_m1(rate.rate, age_end) - _growth_m1(rate.rate, age_start)) / denom


def perpetuity_oracle(asset: AssetSpec, rate: DiscountRate, terms: int) -> float:
    """Brute-force truncated sum of the replacement perpetuity.

    Returns -cost - sum_{k=1..terms} cost / (1+r)^(lifetime*k), summing the
    purchase now plus the first `terms` discounted repurchases term by
    term. Converges to present_cost from above as terms grows; used as an
    independent check on the closed form.
    """
    if terms != int(terms) or terms < 1:
        raise InvalidInput(f"terms must be a positive integer, got {terms!r}")
    r = _require_positive_rate(rate)
    step = asset.lifetime * math.log1p(r)
    # exp(-step*k) underflows harmlessly to 0 for large k
    tail = math.fsum(math.exp(-step * k) for k in range(1, int(terms) + 1))
    return -asset.cost * (1.0 + tail)
