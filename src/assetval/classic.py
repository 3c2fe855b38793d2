"""Classical book-value baselines: straight-line, double-declining, SYD.

These are the standard accounting period-table methods the intrinsic
model is compared against. Double-declining balance is the plain variant
with no switch to straight-line and no final-period write-off, so it
leaves a residual of cost * (1 - 2/l)^l at end of life when l > 2. Its
factor 2/l is capped at 1, so at l = 1 it writes the asset off to 0.
"""

from __future__ import annotations

from enum import Enum

from .core import AssetSpec, check_age
from .errors import NonIntegerPeriod


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


def straight_line_book_value(asset: AssetSpec, age: float) -> float:
    """cost * (1 - age/lifetime); defined for fractional ages too."""
    check_age(asset, age)
    return asset.cost * (1.0 - age / asset.lifetime)


def double_declining_book_value(asset: AssetSpec, age: float) -> float:
    """cost * (1 - 2/lifetime)^age at integer ages; nonzero at end of life for lifetime > 2.

    The factor 2/lifetime is capped at 1, so a one-period asset is written
    off to 0 rather than below it.
    """
    life = _as_period(asset.lifetime, "lifetime")
    a = _as_period(age, "age")
    check_age(asset, a)
    return asset.cost * (1.0 - min(2.0 / life, 1.0)) ** a


def sum_of_years_book_value(asset: AssetSpec, age: float) -> float:
    """Sum-of-years-digits book value at integer ages; exactly 0 at end of life.

    Year j expenses cost * (l - j + 1) / S with S = l(l+1)/2.
    """
    life = _as_period(asset.lifetime, "lifetime")
    a = _as_period(age, "age")
    check_age(asset, a)
    digits = life * (life + 1) // 2
    used = a * life - a * (a - 1) // 2
    return asset.cost * ((digits - used) / digits)  # cost * (digits - used) can overflow
