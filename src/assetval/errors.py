"""Exception types shared across the package."""

from __future__ import annotations


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
