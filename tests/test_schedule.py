import gc
import math
import sys
import threading

import pytest

from assetval import (
    AssetSpec,
    DiscountRate,
    InvalidInput,
    Method,
    MissingRate,
    NonIntegerPeriod,
    ScheduleRow,
    build_schedule,
    chord_gap,
    compare_methods,
    core,
    intrinsic_value,
    rate_sweep,
    schedule,
    straight_line_book_value,
    trade_surplus,
)
from assetval.core import _chord_gap, check_age

ASSET = AssetSpec(cost=100, lifetime=10)
R20 = DiscountRate(0.2)
ALL_METHODS = [Method.INTRINSIC, Method.STRAIGHT_LINE, Method.DOUBLE_DECLINING, Method.SUM_OF_YEARS]


class TestBuildSchedule:
    def test_intrinsic_first_row(self):
        sched = build_schedule(ASSET, Method.INTRINSIC, R20)
        assert sched.rows[0].expense == pytest.approx(-3.852275688285914, rel=1e-12)
        assert sched.rows[0].book_value == pytest.approx(96.14772431171409, rel=1e-12)

    def test_intrinsic_final_book_is_zero(self):
        sched = build_schedule(ASSET, Method.INTRINSIC, R20)
        assert abs(sched.rows[-1].book_value) < 1e-9

    def test_straight_line_constant_expense(self):
        sched = build_schedule(ASSET, Method.STRAIGHT_LINE)
        assert all(r.expense == pytest.approx(-10, rel=1e-12) for r in sched.rows)

    def test_missing_rate(self):
        with pytest.raises(MissingRate):
            build_schedule(ASSET, Method.INTRINSIC)

    def test_fractional_lifetime_rejected(self):
        with pytest.raises(NonIntegerPeriod):
            build_schedule(AssetSpec(cost=100, lifetime=2.5), Method.STRAIGHT_LINE)

    def test_zero_rate_degenerates_to_straight_line(self):
        sched = build_schedule(ASSET, Method.INTRINSIC, DiscountRate(0))
        for row in sched.rows:
            assert row.expense == pytest.approx(-10, rel=1e-12)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_recurrence(self, method):
        rate = R20 if method is Method.INTRINSIC else None
        sched = build_schedule(ASSET, method, rate)
        book = ASSET.cost
        for row in sched.rows:
            book += row.expense
            assert row.book_value == pytest.approx(book, rel=1e-9, abs=1e-9 * ASSET.cost)

    def test_expense_shape_by_method(self):
        intrinsic = [r.expense for r in build_schedule(ASSET, Method.INTRINSIC, R20).rows]
        syd = [r.expense for r in build_schedule(ASSET, Method.SUM_OF_YEARS).rows]
        ddb = [r.expense for r in build_schedule(ASSET, Method.DOUBLE_DECLINING).rows]
        # intrinsic expense magnitude grows, accelerated methods shrink
        assert all(abs(b) > abs(a) for a, b in zip(intrinsic, intrinsic[1:]))
        assert all(abs(b) < abs(a) for a, b in zip(syd, syd[1:]))
        assert all(abs(b) < abs(a) for a, b in zip(ddb, ddb[1:]))

    def test_total_write_off(self):
        for method in (Method.INTRINSIC, Method.STRAIGHT_LINE, Method.SUM_OF_YEARS):
            rate = R20 if method is Method.INTRINSIC else None
            total = sum(r.expense for r in build_schedule(ASSET, method, rate).rows)
            assert total == pytest.approx(-100, rel=1e-9)
        ddb_total = sum(r.expense for r in build_schedule(ASSET, Method.DOUBLE_DECLINING).rows)
        assert ddb_total == pytest.approx(-100 * (1 - 0.8**10), rel=1e-12)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_one_patched_call_per_row(self, method, monkeypatch):
        # The benchmark's tracer patches these names and asserts that a
        # traced batch calls both, so schedules keep one call per row.
        calls = []

        def counted(fn):
            def call(asset, *args):
                calls.append(args)
                return fn(asset, *args)
            return call

        monkeypatch.setattr(schedule, "intrinsic_depreciation",
                            counted(schedule.intrinsic_depreciation))
        for m, book in list(schedule._CLASSIC_BOOK.items()):
            monkeypatch.setitem(schedule._CLASSIC_BOOK, m, counted(book))
        rows = build_schedule(AssetSpec(cost=100, lifetime=7), method, R20).rows
        if method is Method.INTRINSIC:
            assert calls == [(R20, n - 1, n) for n in range(1, 8)]
        else:
            assert calls == [(n,) for n in range(1, 8)]
        assert len(rows) == 7

    def test_invariants_computed_once_per_schedule(self):
        """log1p(r), E and the one-period factor are computed once per schedule, not
        once per row: intrinsic_depreciation keeps them from its last call, and
        double_declining_book_value keeps log1p(-q). At 1,000 periods the per-row
        calls made 1,001 log1p and 3,001 expm1 calls for an intrinsic schedule, and
        1,000 log1p calls for a DDB one."""
        periods = 1000

        def count(method, rate=None):
            calls = {math.log1p: 0, math.expm1: 0}

            def profile(frame, event, arg):
                if event == "c_call" and arg in calls:
                    calls[arg] += 1

            sys.setprofile(profile)
            try:
                build_schedule(AssetSpec(100, periods), method, rate)
            finally:
                sys.setprofile(None)
            return calls

        calls = count(Method.INTRINSIC, DiscountRate(0.05))
        # one log1p and one expm1 for the value curve's g and E, one expm1 per book;
        # one log1p and two expm1 for the first row's g, E and factor
        assert calls[math.log1p] <= 2
        assert calls[math.expm1] <= periods + 3
        # one log1p(-q) for the first row's book
        assert count(Method.DOUBLE_DECLINING)[math.log1p] <= 1

    @pytest.mark.parametrize("method", [Method.INTRINSIC, Method.DOUBLE_DECLINING,
                                        Method.SUM_OF_YEARS])
    def test_threads_sharing_a_rate_build_the_same_rows(self, method):
        """Two threads build schedules of different assets at one rate object, with a
        thread switch every microsecond, so their calls keep replacing each other's
        entry in the method's memo (intrinsic_depreciation's, or the DDB or SYD book
        function's); each still gets the rows of one thread."""
        rate = DiscountRate(0.07)
        assets = [AssetSpec(100, 20_000), AssetSpec(2.5e3, 15_000.0)]
        want = [build_schedule(asset, method, rate).rows for asset in assets]
        got = [[], []]

        def build(i):
            for _ in range(3):
                got[i].append(build_schedule(assets[i], method, rate).rows)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == [[want[0]] * 3, [want[1]] * 3]

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_rows_are_immutable_named_tuples(self, method):
        sched = build_schedule(ASSET, method, R20)
        assert all(type(row) is ScheduleRow for row in sched.rows)
        row = sched.rows[0]
        expense, book = row
        assert (expense, book) == (row.expense, row.book_value)
        assert ScheduleRow._fields == ("expense", "book_value")
        with pytest.raises(AttributeError):
            row.book_value = 0.0
        again = build_schedule(AssetSpec(cost=100, lifetime=10), method, DiscountRate(0.2))
        assert again.rows == sched.rows
        assert hash(again.rows) == hash(sched.rows)


class TestCollectorPause:
    # build_schedule pauses the cyclic collector while it makes its rows (a
    # tracked tuple subclass) and must leave it as it found it.
    BUILDS = {
        "intrinsic": lambda asset: build_schedule(asset, Method.INTRINSIC, R20),
        "straight-line": lambda asset: build_schedule(asset, Method.STRAIGHT_LINE),
        "compare": lambda asset: compare_methods(asset, ALL_METHODS, R20),
    }

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        was_enabled = gc.isenabled()
        yield
        (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("build", BUILDS.values(), ids=list(BUILDS))
    def test_collector_left_as_found(self, build, enabled):
        (gc.enable if enabled else gc.disable)()
        build(ASSET)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("method", [Method.INTRINSIC, Method.SUM_OF_YEARS])
    @pytest.mark.parametrize("compare", [False, True], ids=["build", "compare"])
    def test_collector_restored_when_a_row_raises(self, method, compare, enabled, monkeypatch):
        boom = RuntimeError("period 6")

        def raising(fn):
            def call(asset, *args):
                if args[-1] == 6:
                    raise boom
                return fn(asset, *args)
            return call

        if method is Method.INTRINSIC:
            monkeypatch.setattr(schedule, "intrinsic_depreciation",
                                raising(schedule.intrinsic_depreciation))
        else:
            monkeypatch.setitem(schedule._CLASSIC_BOOK, method,
                                raising(schedule._CLASSIC_BOOK[method]))
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError) as exc:
            if compare:
                compare_methods(ASSET, [Method.STRAIGHT_LINE, method], R20)
            else:
                build_schedule(ASSET, method, R20)
        assert exc.value is boom
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("method", [Method.INTRINSIC, Method.STRAIGHT_LINE])
    def test_no_collection_starts_during_a_long_build(self, method):
        starts = []

        def hook(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.enable()
        gc.collect()  # so that no young collection is due as the build starts
        gc.callbacks.append(hook)
        try:
            sched = build_schedule(AssetSpec(cost=100, lifetime=20_000), method, DiscountRate(1e-4))
            during = len(starts)
        finally:
            gc.callbacks.remove(hook)
        assert len(sched.rows) == 20_000
        assert during == 0


class TestPeriodLimit:
    def test_boundary(self):
        limit = schedule.MAX_PERIODS
        assert schedule._periods(AssetSpec(1, limit)) == limit
        assert schedule._periods(AssetSpec(1, float(limit))) == limit
        with pytest.raises(InvalidInput) as exc:
            schedule._periods(AssetSpec(1, limit + 1))
        assert exc.value.field == "lifetime"

    @pytest.mark.parametrize("lifetime", [1e20, 1_000_001])
    @pytest.mark.parametrize("build", [
        lambda asset: build_schedule(asset, Method.STRAIGHT_LINE),
        lambda asset: build_schedule(asset, Method.INTRINSIC, R20),
        lambda asset: compare_methods(asset, [Method.SUM_OF_YEARS]),
        lambda asset: rate_sweep(asset, [R20]),
        lambda asset: chord_gap(asset, R20),
    ])
    def test_every_builder_rejects_too_many_periods(self, build, lifetime):
        with pytest.raises(InvalidInput, match="at most 1000000 periods") as exc:
            build(AssetSpec(cost=100, lifetime=lifetime))
        assert exc.value.field == "lifetime"


class TestCompareMethods:
    def test_aligned_report(self):
        report = compare_methods(ASSET, ALL_METHODS, R20)
        assert len(report.schedules) == 4
        assert all(len(s.rows) == 10 for s in report.schedules)
        intrinsic, sl = report.schedules[0], report.schedules[1]
        assert intrinsic.rows[4].book_value == pytest.approx(71.33290523805154, rel=1e-10)
        assert sl.rows[4].book_value == pytest.approx(50, rel=1e-12)

    def test_singleton(self):
        report = compare_methods(ASSET, [Method.STRAIGHT_LINE], R20)
        direct = build_schedule(ASSET, Method.STRAIGHT_LINE)
        assert report.schedules[0].rows == direct.rows

    def test_ddb_footnote_residual(self):
        report = compare_methods(ASSET, [Method.DOUBLE_DECLINING], R20)
        assert report.schedules[0].rows[-1].book_value == pytest.approx(10.7374, abs=1e-4)

    def test_empty_methods_rejected(self):
        with pytest.raises(InvalidInput):
            compare_methods(ASSET, [], R20)

    @pytest.mark.parametrize("compare", [compare_methods, schedule._book_columns])
    def test_faults_in_order(self, compare):
        """No methods, then the lifetime, then a missing rate, however the methods
        are ordered; build_schedule checks its lifetime before its rate too."""
        half = AssetSpec(cost=100, lifetime=2.5)
        mixed = [Method.STRAIGHT_LINE, Method.INTRINSIC]
        with pytest.raises(InvalidInput) as exc:
            compare(half, [], None)
        assert (type(exc.value), exc.value.field) == (InvalidInput, "methods")
        for asset, fault in ((half, NonIntegerPeriod), (ASSET, MissingRate)):
            with pytest.raises(fault):
                compare(asset, mixed, None)
        with pytest.raises(NonIntegerPeriod):
            build_schedule(half, Method.INTRINSIC)


class TestRateSweep:
    def test_values_and_ordering(self):
        report = rate_sweep(ASSET, [DiscountRate(0.05), DiscountRate(0.2)])
        assert report.values[1][5] == pytest.approx(71.33290523805154, rel=1e-10)
        assert report.values[0][5] == pytest.approx(56.068703605290466, rel=1e-10)
        assert report.values[1][5] > report.values[0][5]

    def test_boundary_columns(self):
        report = rate_sweep(ASSET, [DiscountRate(0.2)])
        assert report.values[0][0] == pytest.approx(100, rel=1e-12)
        assert report.values[0][10] == pytest.approx(0, abs=1e-10)

    def test_tiny_rate_is_straight_line(self):
        report = rate_sweep(ASSET, [DiscountRate(1e-9)])
        for age in range(11):
            assert report.values[0][age] == pytest.approx(
                straight_line_book_value(ASSET, age), rel=1e-6, abs=1e-6
            )

    def test_monotone_across_rates_at_interior_ages(self):
        rates = [DiscountRate(r) for r in (0.01, 0.05, 0.1, 0.2, 0.5)]
        report = rate_sweep(ASSET, rates)
        for age in range(1, 10):
            column = [report.values[i][age] for i in range(len(rates))]
            assert all(b > a for a, b in zip(column, column[1:]))

    def test_empty_rates_rejected(self):
        with pytest.raises(InvalidInput):
            rate_sweep(ASSET, [])


class TestChordGap:
    def test_near_zero_rate_gap_vanishes(self):
        assert chord_gap(ASSET, DiscountRate(1e-9)) == pytest.approx(0, abs=1e-4)

    def test_paper_rate_gap(self):
        # the max over the integer ages is at age 6
        gap = chord_gap(ASSET, R20)
        assert gap == pytest.approx(21.747210597375947, rel=1e-10)

    def test_monotone_in_rate(self):
        gaps = [chord_gap(ASSET, DiscountRate(r)) for r in (0.01, 0.05, 0.1, 0.2, 0.5)]
        assert all(g >= 0 for g in gaps)
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    @pytest.mark.parametrize("rate", [R20, DiscountRate(0)])
    def test_frames_do_not_grow_with_the_lifetime(self, entered, rate):
        # one loop over the ages it scans, in _chord_gap's own frame: no frame per age
        codes = entered(chord_gap, AssetSpec(100, 1), rate)
        assert codes[0] is chord_gap.__code__ and _chord_gap.__code__ in codes
        for lifetime in (1000, 1e6):
            assert entered(chord_gap, AssetSpec(100, lifetime), rate) == codes

    def test_only_the_ages_around_the_peak_are_evaluated(self):
        """One expm1 for E and one per age scanned: a handful at 1,000,000 periods,
        where the full grid makes 1,000,001."""
        calls = []

        def profile(frame, event, arg):
            if event == "c_call" and arg is math.expm1:
                calls.append(arg)

        sys.setprofile(profile)
        try:
            chord_gap(AssetSpec(100, 1e6), DiscountRate(0.05))
        finally:
            sys.setprofile(None)
        assert 2 <= len(calls) <= 16


class TestTradeSurplus:
    def test_one_name_for_the_kernel(self):
        assert schedule.trade_surplus is core.trade_surplus is trade_surplus

    def test_midlife_gap(self):
        surplus = trade_surplus(ASSET, 5, DiscountRate(0.05), DiscountRate(0.2))
        assert surplus == pytest.approx(15.264201632761086, rel=1e-10)

    def test_new_asset_no_surplus(self):
        assert trade_surplus(ASSET, 0, DiscountRate(0.05), DiscountRate(0.2)) == pytest.approx(
            0, abs=1e-12
        )

    def test_equal_rates_no_surplus(self):
        assert trade_surplus(ASSET, 5, R20, R20) == 0

    def test_non_negative_when_buyer_rate_higher(self):
        for age in (0, 1, 3.7, 5, 9, 10):
            for low, high in ((0.01, 0.05), (0.05, 0.5), (0.2, 0.2)):
                s = trade_surplus(ASSET, age, DiscountRate(low), DiscountRate(high))
                assert s >= -1e-12

    @pytest.mark.parametrize("rates", [(R20, DiscountRate(0.05)), (DiscountRate(0), R20),
                                       (R20, DiscountRate(0))], ids=["closed", "line-seller", "line-buyer"])
    @pytest.mark.parametrize("age", [0, -0.0, 2.5, 10])
    def test_valid_age_runs_in_one_frame(self, entered, rates, age):
        # no intrinsic_value call, no Valuation: both values are computed in place
        assert entered(trade_surplus, ASSET, age, *rates) == [trade_surplus.__code__]

    @pytest.mark.parametrize("age", [math.nan, math.inf, -math.inf, -1e-300, 11])
    def test_bad_age_enters_the_age_check(self, entered, age):
        codes = entered(trade_surplus, ASSET, age, DiscountRate(0.05), R20)
        assert codes[:2] == [trade_surplus.__code__, check_age.__code__]

    @pytest.mark.parametrize("age", [math.nan, math.inf, -math.inf, -1e-300, -1, 11, 1e308,
                                     math.nextafter(10, math.inf)])
    def test_bad_age_raises_the_fault_of_two_valuations(self, age):
        def fault(call):
            with pytest.raises(InvalidInput) as exc:
                call()
            return type(exc.value), exc.value.field, str(exc.value)

        seller, buyer = DiscountRate(0.05), R20
        assert fault(lambda: trade_surplus(ASSET, age, seller, buyer)) == fault(
            lambda: intrinsic_value(ASSET, buyer, age).amount - intrinsic_value(ASSET, seller, age).amount)
