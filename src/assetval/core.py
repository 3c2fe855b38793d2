"""Time-value-of-money valuation of a depreciable asset.

An asset needed indefinitely must be replaced forever at intervals of its
lifetime, so owning it commits the owner to a perpetuity of replacement
outlays. The present cost of that perpetuity is finite for any positive
discount rate, and the value of holding a partly-aged asset is the saving
from deferring the whole replacement chain by the remaining life.

Closed forms, with g = log1p(r) and E = expm1(-l*g) < 0: the compound-growth
forms divided through by (1+r)^l, so every exponent is <= 0 and nothing overflows.

    present cost     P(r, l)     = cost / E
    delayed cost     D(r, l, a)  = cost * exp(-(l-a)*g) / E
    intrinsic value  V(r, l, a)  = cost * (expm1(-(l-a)*g) / E)
    depreciation     V(b) - V(a) = -cost * exp(-(l-b)*g) * expm1(-(b-a)*g) / E

Below l*g = 2^-53 (rate 0 included) V is the straight line cost * ((l-a)/l),
which the closed form equals there to double precision.

Costs are stored as positive magnitudes; expense results (present and
delayed cost, depreciation) come back negative, values non-negative.
`perpetuity_oracle` is a brute-force truncated sum of the replacement
perpetuity, kept deliberately independent of the closed forms so the test
suite can check one against the other. It falls short of present_cost by
exactly the factor (1+r)^-(lifetime*(terms+1)), from which a caller sizes `terms`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from functools import partial
from math import exp, expm1, log, log1p, ulp
from typing import NamedTuple


class InvalidInput(ValueError):
    """An argument violates a documented precondition.

    `field` names the argument at fault (such as "cost" or "rate"), or is
    None when no single argument is.
    """

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


class ZeroRateDivergence(InvalidInput):
    """The replacement perpetuity does not converge at a zero discount rate."""


class AgeOutOfRange(InvalidInput):
    """Age is negative or exceeds the asset's lifetime."""


class AgeOrderViolation(InvalidInput):
    """A period's end age precedes its start age."""


class NonIntegerPeriod(InvalidInput):
    """A period-table method was given a fractional age or lifetime."""


class MissingRate(InvalidInput):
    """An intrinsic schedule was requested without a discount rate."""


class _Frozen:
    """Immutable value semantics over the fields named in __match_args__, for a
    slotted class whose __init__ validates and sets them through object.__setattr__.

    Equal only to an instance of the same class with equal fields, hashed as
    the tuple of its fields, shown as Name(field=value, ...). Assigning or
    deleting a field raises AttributeError. Copy, deepcopy and pickle rebuild
    it through the class, which validates again: the default protocol would
    set its slots through the __setattr__ that raises.
    """

    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self._astuple()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._astuple()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class AssetSpec(_Frozen):
    """Replacement cost (positive magnitude) and lifetime in periods."""

    __slots__ = __match_args__ = ("cost", "lifetime")
    cost: float
    lifetime: float

    def __init__(self, cost: float, lifetime: float) -> None:
        if not (math.isfinite(cost) and cost > 0):
            raise InvalidInput(f"cost must be a positive finite number, got {cost!r}", field="cost")
        if not (math.isfinite(lifetime) and lifetime > 0):
            raise InvalidInput(
                f"lifetime must be a positive finite number, got {lifetime!r}", field="lifetime"
            )
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "lifetime", lifetime)


class DiscountRate(_Frozen):
    """Per-period cost of capital as a dimensionless fraction (0.2 = 20%)."""

    __slots__ = __match_args__ = ("rate",)
    rate: float

    def __init__(self, rate: float) -> None:
        if not math.isfinite(rate) or rate < 0:
            raise InvalidInput(
                f"rate must be a non-negative finite number, got {rate!r}", field="rate"
            )
        object.__setattr__(self, "rate", rate)


class Valuation(NamedTuple):
    """The money amount of a point valuation.

    Present and delayed cost are expenses and carry a negative amount;
    intrinsic value lies in [0, cost]. A NamedTuple, because every point
    valuation builds one: a tuple is made in C, where a class that sets its
    fields (as AssetSpec does) runs a Python __init__, which costs about as
    much as the formula. The point functions build it through tuple.__new__
    (_VALUATION), since the NamedTuple's own __new__ is a Python function,
    one more frame per call.
    """

    amount: float


_VALUATION = partial(tuple.__new__, Valuation)  # (amount,) -> Valuation with no Python frame


def check_age(asset: AssetSpec, age: float, *, name: str = "age") -> None:
    """Validate 0 <= age <= lifetime."""
    if not 0 <= age <= asset.lifetime:  # NaN and +-inf fail here too
        raise AgeOutOfRange(
            f"{name} must lie in [0, {asset.lifetime}], got {age!r}", field=name
        )


def _require_positive_rate(rate: DiscountRate) -> float:
    if rate.rate == 0:
        raise ZeroRateDivergence(
            "replacement perpetuity diverges at rate 0 (geometric ratio 1)", field="rate"
        )
    return rate.rate


# Below this l*g the closed form equals the straight line to double precision,
# and its intermediates can be subnormal and lose the value.
_STRAIGHT_LINE_BELOW = 2.0**-53

# intrinsic_depreciation's last (asset, rate, span or NaN, -cost, g, E or 0.0, expm1(-span*g));
# double_declining_book_value and sum_of_years_book_value keep theirs the same way
_last_drop = (None, None, math.nan, 0.0, 0.0, 0.0, 0.0)


def _chain_cost(asset: AssetSpec, rate: DiscountRate, start: float, name: str) -> float:
    """cost * exp(-start*g) / E: the chain first bought `start` periods on, if it fits a double."""
    r = _require_positive_rate(rate)
    g = log1p(r)
    e = expm1(-asset.lifetime * g)
    amount = asset.cost * exp(-start * g) / e if e else -math.inf
    if not math.isfinite(amount):
        raise InvalidInput(f"{name} does not fit a double at rate {r!r} (its size is "
                           "cost / (1 - (1+rate)^-lifetime))", field="rate")
    return amount


def present_cost(asset: AssetSpec, rate: DiscountRate) -> Valuation:
    """Present cost of owning the asset and replacing it forever.

    Discounted sum of the purchase now plus one repurchase every lifetime,
    in perpetuity. Negative (an expense). Raises ZeroRateDivergence at
    rate 0, where the perpetuity does not converge, and InvalidInput where
    the amount does not fit a double.
    """
    return _VALUATION((_chain_cost(asset, rate, 0.0, "present cost"),))


def delayed_present_cost(asset: AssetSpec, rate: DiscountRate, age: float) -> Valuation:
    """Present cost of the same replacement chain deferred by the remaining life.

    Equals present_cost discounted by (1+r)^(lifetime - age). Negative.
    """
    check_age(asset, age)
    return _VALUATION((_chain_cost(asset, rate, asset.lifetime - age, "delayed cost"),))


def _value_curve(asset: AssetSpec, rate: DiscountRate, ages: Iterable[float]) -> list[float]:
    """V at each of ages, unchecked: intrinsic_value's operations, in one frame."""
    cost, life = asset.cost, asset.lifetime
    g = log1p(rate.rate)
    lg = life * g
    if lg >= _STRAIGHT_LINE_BELOW:
        e = expm1(-lg)
        return [cost * (expm1(-((life - age) * g)) / e) for age in ages]
    return [cost * ((life - age) / life) for age in ages]


def _chord_gap(asset: AssetSpec, rate: DiscountRate, periods: int) -> float:
    """Max over ages 0..periods (the lifetime, whole) of V less its straight-line
    chord cost * ((life - age) / life), unchecked: each age's gap is _value_curve's
    operations less the chord's. Below the switch V is the chord, so the gap is 0.0.

    Only the ages around the peak are evaluated, and the result is still the max
    over every age, bit for bit. Write C for the cost as a double, u = 2^-53 (so
    u*C < ulp(C)) and t = l - a. For the computed g and E < 0 the exact gap
    f(a) = C*expm1(-t*g)/E - C*t/l is strictly concave in a, with its peak at
    a* = l + log(-E/(l*g))/g. A computed gap is within D = 9*ulp(C) of f(a):

        V: t*g, rounded, moves expm1 by t*g*exp(-t*g)*u (the accuracy contract's
           conditioning term (l-a)*g); over |E| >= 1 - exp(-t*g) that is at most
           u*C in V. expm1 (1 ulp), the quotient and the product add 2u + u + u
           of V <= C: 5u*C in all.
        chord: its quotient and product, 2u*C.
        gap: the subtraction, u*C; the products of u's fit in the ninth ulp.

    The scan starts at a* rounded into 0..periods, walks left, then right, and
    stops on each side at the first gap below floor = best - S, where best is the
    largest gap so far and S = 64*ulp(C); floor's own rounding leaves S over 2D,
    with a factor of 3 to spare. At that age f is below f at best's age, so by
    concavity f is lower still at every age further out, and each gap there is
    below floor + 2D < best. The scan's order does not change max: no gap is -0.0,
    since V >= +0.0. Next to the switch S spans the whole curve, and every age is
    evaluated."""
    cost, life = asset.cost, asset.lifetime
    g = log1p(rate.rate)
    lg = life * g
    if lg < _STRAIGHT_LINE_BELOW:
        return 0.0
    e = expm1(-lg)
    peak = round(life + log(-e / lg) / g)
    if not 0 <= peak <= periods:  # on the grid whatever log rounds to (min(max()) costs 0.25 us)
        peak = 0 if peak < 0 else periods
    slack = 64 * ulp(cost)
    best = floor = -math.inf
    for ages in range(peak, -1, -1), range(peak + 1, periods + 1):
        for age in ages:
            gap = cost * (expm1(-((life - age) * g)) / e) - cost * ((life - age) / life)
            if gap > best:
                best = gap
                floor = best - slack
            elif gap < floor:
                break
    return best


def intrinsic_value(asset: AssetSpec, rate: DiscountRate, age: float) -> Valuation:
    """Value of holding the aged asset: delayed cost minus present cost.

    Lies in [0, cost]; cost at age 0 and +0.0 at age = lifetime. Near rate 0
    the two expense terms diverge but their difference does not: below
    l*log1p(r) = 2^-53 (rate 0 included) it is the straight line cost * ((l - age)/l),
    whose remaining fraction keeps its relative precision up to age = l.
    """
    life = asset.lifetime
    if not 0 <= age <= life:  # NaN and +-inf fail here too
        check_age(asset, age)
    g = log1p(rate.rate)
    lg = life * g
    if lg >= _STRAIGHT_LINE_BELOW:
        # ratio in [0, 1]: V(0) is exactly cost; -((life - age) * g) = -0.0 makes V(life) +0.0
        return _VALUATION((asset.cost * (expm1(-((life - age) * g)) / expm1(-lg)),))
    return _VALUATION((asset.cost * ((life - age) / life),))


def trade_surplus(
    asset: AssetSpec, age: float, seller_rate: DiscountRate, buyer_rate: DiscountRate
) -> float:
    """Buyer's intrinsic valuation minus the seller's at the same age.

    Non-negative whenever the buyer's cost of capital is the higher one, up
    to rounding (at rates an ulp apart the two values can cross by an ulp of
    cost); zero at age 0 and at end of life regardless of rates. Each value
    is intrinsic_value's amount, by its float operations in the same order,
    in this one frame.
    """
    life = asset.lifetime
    if not 0 <= age <= life:  # NaN and +-inf fail here too
        check_age(asset, age)
    cost, left = asset.cost, life - age
    g = log1p(buyer_rate.rate)
    lg = life * g
    if lg >= _STRAIGHT_LINE_BELOW:
        buyer = cost * (expm1(-(left * g)) / expm1(-lg))
    else:
        buyer = cost * (left / life)
    g = log1p(seller_rate.rate)
    lg = life * g
    if lg >= _STRAIGHT_LINE_BELOW:
        return buyer - cost * (expm1(-(left * g)) / expm1(-lg))
    return buyer - cost * (left / life)


def intrinsic_depreciation(
    asset: AssetSpec, rate: DiscountRate, age_start: float, age_end: float
) -> float:
    """Drop in intrinsic value over [age_start, age_end], as a signed expense.

    Always <= 0; zero for a zero-length period; the straight-line expense near
    rate 0. Computed as the drop itself, not as a difference of two values near
    cost, so short spans keep their relative precision.

    -cost, g, E and expm1(-span*g) come from a one-entry memo when the last call had the
    same asset and rate objects (immutable, so the values are the ones this call would
    make, bit for bit) and an equal span; a zero span is kept as NaN, so its sign is always
    recomputed. The memo is one tuple, replaced whole, so a thread reads one call's
    entry; it keeps the last asset and rate alive, and a new asset or rate pays one miss.
    """
    global _last_drop
    life = asset.lifetime
    if not 0 <= age_start <= age_end <= life:  # NaN and +-inf fail here too
        check_age(asset, age_start, name="age_start")
        check_age(asset, age_end, name="age_end")
        raise AgeOrderViolation(f"age_end ({age_end}) precedes age_start ({age_start})")
    span = age_end - age_start
    last_asset, last_rate, last_span, c, g, e, s = _last_drop
    if last_asset is not asset or last_rate is not rate or last_span != span:
        c = -asset.cost
        g = log1p(rate.rate)  # g and E as intrinsic_value computes them
        lg = life * g
        e = expm1(-lg) if lg >= _STRAIGHT_LINE_BELOW else 0.0
        s = expm1(-span * g)
        _last_drop = asset, rate, span or math.nan, c, g, e, s
    if e:
        # (age_end - life) is -(life - age_end) bit for bit, but for the sign of a
        # zero, which exp(+-0.0) = 1 drops
        return c * exp((age_end - life) * g) * s / e
    return c * (span / life)  # cost * span can overflow


def perpetuity_oracle(asset: AssetSpec, rate: DiscountRate, terms: int) -> float:
    """Brute-force truncated sum of the replacement perpetuity.

    Returns -cost - sum_{k=1..terms} cost / (1+r)^(lifetime*k), summing the
    purchase now plus the first `terms` discounted repurchases term by
    term. Converges to present_cost from above as terms grows; used as an
    independent check on the closed form.

    The truncation is exact: (oracle - P) / |P| = (1+r)^-(lifetime*(terms+1))
    for P = present_cost. A fixed term count therefore fails a fixed relative
    tolerance once lifetime*log1p(r) is small enough (500 terms leave 6.8e-3
    at lifetime 1, rate 0.01); the caller sizes `terms` from the tolerance it
    needs, e.g. terms >= ln(1/tol) / (lifetime*log1p(r)) - 1.
    """
    if terms != int(terms) or terms < 1:
        raise InvalidInput(f"terms must be a positive integer, got {terms!r}")
    r = _require_positive_rate(rate)
    step = asset.lifetime * math.log1p(r)
    # exp(-step*k) underflows harmlessly to 0 for large k
    tail = math.fsum(math.exp(-step * k) for k in range(1, int(terms) + 1))
    return -asset.cost * (1.0 + tail)
