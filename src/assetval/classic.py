"""Classical book-value baselines: straight-line, double-declining, SYD.

These are the standard accounting period-table methods the intrinsic
model is compared against. Double-declining balance is the plain variant
with no switch to straight-line and no final-period write-off, so it
leaves a residual of cost * (1 - 2/l)^l at end of life when l > 2. Its
factor 2/l is capped at 1, so at l = 1 it writes the asset off to 0.

A schedule calls a book function once per row, and a call per check costs
more than the formula, so one chained test guards each and only a fault calls a check.
What is fixed for a lifetime (DDB's log1p(-q), SYD's int(lifetime) and digit sum)
comes from a one-entry memo of the last call's asset, kept like core._last_drop:
one tuple, keyed on the asset object (immutable, so the values are the ones the
call would compute), read only after the guard passes and replaced whole on a miss.
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


# double_declining_book_value's last (asset, log1p(-q) or None where q is 1)
_last_decline = (None, None)
# sum_of_years_book_value's last (asset, int(lifetime), digit sum)
_last_digits = (None, 0, 0)


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
    global _last_decline
    life = asset.lifetime
    if not (0 <= age <= life and age % 1 == 0 == life % 1):
        _period_fault(asset, age)
    last_asset, c = _last_decline
    if last_asset is not asset:
        q = min(2.0 / life, 1.0)
        c = log1p(-q) if q < 1.0 else None
        _last_decline = asset, c
    if c is not None:
        return asset.cost * exp(age * c)
    return asset.cost * 0.0**age  # cost at age 0, else 0.0: log1p(-1) has no value


def sum_of_years_book_value(asset: AssetSpec, age: float) -> float:
    """Sum-of-years-digits book value at integer ages; exactly 0 at end of life.

    Year j expenses cost * (l - j + 1) / S with S = l(l+1)/2.
    """
    global _last_digits
    life = asset.lifetime
    if not (0 <= age <= life and age % 1 == 0 == life % 1):
        _period_fault(asset, age)
    last_asset, life, digits = _last_digits
    if last_asset is not asset:
        life = int(asset.lifetime)
        digits = life * (life + 1) // 2
        _last_digits = asset, life, digits
    a = int(age)
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
