"""Classical book-value baselines: straight-line, double-declining, SYD.

These are the standard accounting period-table methods the intrinsic
model is compared against. Double-declining balance is the plain variant
with no switch to straight-line and no final-period write-off, so it
leaves a residual of cost * (1 - 2/l)^l at end of life when l > 2. Its
factor 2/l is capped at 1, so at l = 1 it writes the asset off to 0.

A schedule calls a book function once per row, and a call per check costs
more than the formula, so one chained test guards each and only a fault calls a check.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from enum import Enum
from math import exp, log1p

from .core import AssetSpec, NonIntegerPeriod, check_age


class Method(Enum):
    INTRINSIC = "intrinsic"
    STRAIGHT_LINE = "straight_line"
    DOUBLE_DECLINING = "double_declining"
    SUM_OF_YEARS = "sum_of_years"


def _as_period(value: float, name: str) -> int:
    if value != int(value):
        raise NonIntegerPeriod(
            f"{name} must be a whole number of periods, got {value!r}", field=name
        )
    return int(value)


def _period_fault(asset: AssetSpec, age: float) -> None:
    """Raise a whole-period method's fault: a fractional lifetime, else a fractional
    finite age, else an age outside [0, lifetime] (NaN and +-inf included)."""
    _as_period(asset.lifetime, "lifetime")
    check_age(asset, _as_period(age, "age") if math.isfinite(age) else age)


def straight_line_book_value(asset: AssetSpec, age: float) -> float:
    """cost * ((lifetime - age)/lifetime); defined for fractional ages too.

    The remaining fraction, not 1 - age/lifetime, which cancels near the end of life.
    """
    life = asset.lifetime
    if not 0 <= age <= life:  # NaN and +-inf fail here too
        check_age(asset, age)
    return asset.cost * ((life - age) / life)


def double_declining_book_value(asset: AssetSpec, age: float) -> float:
    """cost * (1 - 2/lifetime)^age at integer ages; nonzero at end of life for lifetime > 2.

    The factor q = 2/lifetime is capped at 1, so a one- or two-period asset
    is written off to 0 after its first period rather than below it.
    Computed as cost * exp(age * log1p(-q)), which rounds the base once
    for all ages, where the power of the rounded base 1 - q carries that
    rounding age times (about age/2 ulps).
    """
    life = asset.lifetime
    if not (0 <= age <= life and age % 1 == 0 == life % 1):
        _period_fault(asset, age)
    q = min(2.0 / life, 1.0)
    if q < 1.0:
        return asset.cost * exp(age * log1p(-q))
    return asset.cost * 0.0**age  # cost at age 0, else 0.0: log1p(-1) has no value


def sum_of_years_book_value(asset: AssetSpec, age: float) -> float:
    """Sum-of-years-digits book value at integer ages; exactly 0 at end of life.

    Year j expenses cost * (l - j + 1) / S with S = l(l+1)/2.
    """
    life = asset.lifetime
    if not (0 <= age <= life and age % 1 == 0 == life % 1):
        _period_fault(asset, age)
    life, a = int(life), int(age)
    digits = life * (life + 1) // 2
    used = a * life - a * (a - 1) // 2
    return asset.cost * ((digits - used) / digits)  # cost * (digits - used) can overflow


def _book_curve(asset: AssetSpec, method: Method, ages: Iterable[int]) -> list[float]:
    """A classical method's book at each of the whole ages, unchecked: its book
    function's float operations in the same order, in one comprehension."""
    cost, life = asset.cost, asset.lifetime
    if method is Method.STRAIGHT_LINE:
        return [cost * ((life - n) / life) for n in ages]
    if method is Method.DOUBLE_DECLINING:
        q = min(2.0 / life, 1.0)
        if q < 1.0:
            c = log1p(-q)
            return [cost * exp(n * c) for n in ages]
        return [cost * 0.0**n for n in ages]
    life = int(life)
    digits = life * (life + 1) // 2
    return [cost * ((digits - (n * life - n * (n - 1) // 2)) / digits) for n in ages]
