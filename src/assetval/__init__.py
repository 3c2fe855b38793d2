"""Intrinsic (time-value-of-money) valuation and depreciation of assets."""

from .classic import (
    Method,
    double_declining_book_value,
    straight_line_book_value,
    sum_of_years_book_value,
)
from .core import (
    AgeOrderViolation,
    AgeOutOfRange,
    AssetSpec,
    DiscountRate,
    InvalidInput,
    MissingRate,
    NonIntegerPeriod,
    Valuation,
    ZeroRateDivergence,
    delayed_present_cost,
    intrinsic_depreciation,
    intrinsic_value,
    perpetuity_oracle,
    present_cost,
)
from .schedule import (
    ComparisonReport,
    Schedule,
    ScheduleRow,
    SweepReport,
    build_schedule,
    chord_gap,
    compare_methods,
    rate_sweep,
    trade_surplus,
)

__version__ = "0.1.0"

__all__ = [
    "AssetSpec",
    "DiscountRate",
    "Valuation",
    "Method",
    "Schedule",
    "ScheduleRow",
    "ComparisonReport",
    "SweepReport",
    "present_cost",
    "delayed_present_cost",
    "intrinsic_value",
    "intrinsic_depreciation",
    "perpetuity_oracle",
    "straight_line_book_value",
    "double_declining_book_value",
    "sum_of_years_book_value",
    "build_schedule",
    "compare_methods",
    "rate_sweep",
    "chord_gap",
    "trade_surplus",
    "InvalidInput",
    "ZeroRateDivergence",
    "AgeOutOfRange",
    "AgeOrderViolation",
    "NonIntegerPeriod",
    "MissingRate",
    "__version__",
]
