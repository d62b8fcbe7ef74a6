"""The measurement helpers: percentiles, the open-loop scheduler, self time."""

import asyncio
import gc
import random

import pytest

import measure
from measure import Span


# -- percentile ------------------------------------------------------------------


def test_percentile_keeps_ten_samples_beyond_it():
    for n in (20, 21, 57, 100, 999, 1000, 5000):
        samples = [random.random() for _ in range(n)]
        found = measure.percentile(samples, 99)
        assert found is not None and found.n == n
        beyond = sum(1 for s in samples if s > found.value)
        assert beyond >= measure.MIN_BEYOND


def test_percentile_reports_the_wanted_one_when_supported():
    samples = list(range(1, 1001))
    found = measure.percentile(samples, 99)
    assert found.q == 99 and found.value == 990


def test_percentile_falls_back_to_the_highest_supported():
    samples = list(range(1, 101))
    found = measure.percentile(samples, 99)
    assert found.q == pytest.approx(90.0)
    assert found.value == 90


def test_percentile_refuses_too_few_samples():
    assert measure.percentile(list(range(15)), 50) is None
    assert measure.percentile([], 50) is None
    assert measure.percentile(list(range(20)), 50).value == 9


# -- open loop -------------------------------------------------------------------


class FakeTime:
    def __init__(self):
        self.now = 0.0

    def clock(self):
        return self.now

    async def sleep(self, seconds):
        self.now += seconds


def test_open_loop_under_capacity_has_no_lag():
    fake = FakeTime()

    async def send(_i):
        fake.now += 0.002

    result = asyncio.run(
        measure.open_loop(0.01, 0.1, send, clock=fake.clock, sleep=fake.sleep)
    )
    assert result.sent == 10
    assert result.lags == pytest.approx([0.0] * 10)
    assert result.latencies == pytest.approx([0.002] * 10)


def test_open_loop_times_from_due_time_when_overloaded():
    fake = FakeTime()

    async def send(_i):
        fake.now += 0.02  # twice the period: every request falls further behind

    result = asyncio.run(
        measure.open_loop(0.01, 0.05, send, clock=fake.clock, sleep=fake.sleep)
    )
    assert result.sent == 5
    assert result.lags == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04])
    assert result.latencies == pytest.approx([0.02, 0.03, 0.04, 0.05, 0.06])


def test_open_loop_records_listed_errors_and_goes_on():
    fake = FakeTime()

    async def send(i):
        fake.now += 0.001
        if i == 1:
            raise ConnectionError("dropped")

    result = asyncio.run(
        measure.open_loop(
            0.01, 0.03, send, clock=fake.clock, sleep=fake.sleep,
            on_error=(ConnectionError,),
        )
    )
    assert result.indices == [0, 2]
    assert len(result.errors) == 1 and result.sent == 3


# -- self time -------------------------------------------------------------------


def test_covered_merges_overlaps_and_clips():
    assert measure.covered((0, 10), [(1, 4), (3, 6), (8, 12), (-5, -1)]) == 7


def test_sync_span_minus_its_children():
    spans = [
        Span("a", 0, 10, -1, True),
        Span("b", 2, 5, 0, True),
        Span("c", 4, 7, 0, True),
    ]
    assert measure.self_times(spans) == pytest.approx([5, 3, 3])


def test_coroutine_span_is_covered_by_sync_work_of_other_tasks():
    spans = [
        Span("submit", 0, 10, -1, False),  # awaits, e.g. for the apply
        Span("kernel", 3, 7, -1, True),  # ran meanwhile in the drain task
    ]
    assert measure.self_times(spans) == pytest.approx([6, 4])


def test_nested_coroutines_and_ancestors():
    spans = [
        Span("outer", 0, 10, -1, False),
        Span("inner", 2, 8, 0, False),
        Span("work", 3, 4, 1, True),
    ]
    # Ancestors never cover their descendants.
    assert measure.self_times(spans) == pytest.approx([4, 5, 1])


# -- gc fence --------------------------------------------------------------------


def test_timed_regions_run_with_the_collector_off():
    harness = pytest.importorskip("repro.bench.harness")
    assert gc.isenabled()
    with harness.gc_isolated():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_iqr_share():
    assert measure.iqr_share([10, 10, 10, 10]) == 0
    assert measure.iqr_share([8, 9, 10, 11, 12]) > 0


def test_window_rates_and_interquartile_mean():
    events = [(0.1, 5), (0.9, 5), (1.5, 20), (2.2, 1), (3.5, 100)]
    rates = measure.window_rates(events, 0.0, 1.0, 3)
    assert rates == [10.0, 20.0, 1.0]  # the event past the last window is ignored
    assert measure.interquartile_mean([1, 2, 3, 4, 100, 0, 5, 6]) == pytest.approx(3.5)
    assert measure.interquartile_mean([7, 9]) == 8


# -- window cost -----------------------------------------------------------------


def test_window_cost_drops_the_outer_quarters():
    # Four windows of 10 units; the trimmed ones cost 0.05 and 0.4 each.
    marks = [(0.0, 0), (0.5, 10), (1.5, 20), (5.5, 30), (6.7, 40)]
    assert measure.interquartile_window_cost(marks) == pytest.approx(2.2 / 20)


def test_window_cost_skips_idle_windows():
    marks = [(0.0, 0), (1.0, 10), (1.5, 10), (3.0, 20)]
    assert measure.interquartile_window_cost(marks) == pytest.approx(2.5 / 20)


def test_window_cost_needs_two_windows():
    assert measure.interquartile_window_cost([(0.0, 0), (1.0, 10)]) is None
    assert measure.interquartile_window_cost([]) is None
