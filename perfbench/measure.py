"""Measurement helpers: percentiles, the open-loop scheduler, self time.

Nothing here imports ``repro``: the helpers are tested on their own
(``python3 -m pytest perfbench/tests``) and shared by the load
generator and the trace analysis.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import statistics
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Optional, Sequence

#: A reported percentile must leave at least this many samples above it.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    """One reported percentile: which one, its value, and the sample count."""

    q: float
    value: float
    n: int


def percentile(samples: Sequence[float], want: float) -> Optional[Percentile]:
    """The ``want``-th percentile, or the highest lower one the data supports.

    A percentile is supported when at least :data:`MIN_BEYOND` samples lie
    above its nearest-rank position, so with ``n`` samples the highest
    supported percentile is ``100 * (n - 10) / n``.  Returns ``None`` when
    even that is below ``want`` and below the median, i.e. when there are
    fewer than 20 samples for a median.
    """
    n = len(samples)
    if n <= MIN_BEYOND:
        return None
    q = min(float(want), 100.0 * (n - MIN_BEYOND) / n)
    if q < min(float(want), 50.0):
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    return Percentile(q, ordered[rank - 1], n)


@dataclass
class OpenLoopResult:
    """Per-request timings of one open-loop schedule, in seconds.

    ``lags`` has one entry per request sent; ``indices`` and
    ``latencies`` (timed from the due time) one per request that
    succeeded, in order.
    """

    lags: list = field(default_factory=list)
    indices: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def sent(self) -> int:
        return len(self.lags)


async def open_loop(
    period: float,
    duration: float,
    send: Callable[[int], Awaitable[object]],
    *,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
    on_error: tuple = (),
) -> OpenLoopResult:
    """Issue ``send(i)`` at due times ``start + i * period`` for ``duration``.

    Requests on one connection go one at a time, so a request whose
    predecessor ran late is sent late.  Its latency is still timed from
    its *due* time, which charges a stall to every request it delayed;
    how late the generator sent is recorded separately as the lag.
    Exceptions listed in ``on_error`` are recorded and the schedule goes
    on; any other exception propagates.
    """
    result = OpenLoopResult()
    start = clock()
    index = 0
    while True:
        due = start + index * period
        if due >= start + duration:
            return result
        now = clock()
        if due > now:
            await sleep(due - now)
            now = clock()
        result.lags.append(max(0.0, now - due))
        try:
            await send(index)
        except on_error as exc:
            result.errors.append(exc)
        else:
            result.indices.append(index)
            result.latencies.append(clock() - due)
        index += 1


@contextlib.asynccontextmanager
async def busy_polling():
    """Keep the event loop polling instead of sleeping in ``epoll``.

    An idle virtual CPU halts, and waking it for a reply or a timer
    costs far more, and varies far more, than the request being timed
    (~0.8 ms late timers measured on a 2-vCPU VM).  While this context
    is open a task yields in a loop, so timers fire and replies are read
    within microseconds.  It costs the generator one core; use it only
    where the server leaves that core idle.
    """
    stop = False

    async def spin() -> None:
        while not stop:
            await asyncio.sleep(0)

    task = asyncio.get_running_loop().create_task(spin())
    try:
        yield
    finally:
        stop = True
        await task


def window_rates(events: Sequence[tuple[float, float]], start: float, width: float, count: int) -> list[float]:
    """Per-window rates of ``(time, amount)`` events: ``count`` windows of
    ``width`` seconds from ``start``; events outside them are ignored."""
    totals = [0.0] * count
    for at, amount in events:
        slot = int((at - start) // width)
        if 0 <= slot < count:
            totals[slot] += amount
    return [total / width for total in totals]


def interquartile_window_cost(marks: Sequence[tuple[float, float]]) -> Optional[float]:
    """Cost per unit of work over the middle half of the windows between
    consecutive ``(cost so far, work so far)`` marks.

    Windows are ranked by their own cost per unit of work; the quarter
    cheapest and the quarter dearest are dropped (none when fewer than
    four), and the rest give total cost / total work, which averages out
    a coarse cost clock better than the median window would.  Windows
    with no work are skipped.  ``None`` when fewer than two remain.
    """
    windows = sorted(
        ((c1 - c0) / (w1 - w0), c1 - c0, w1 - w0)
        for (c0, w0), (c1, w1) in zip(marks, marks[1:])
        if w1 > w0
    )
    if len(windows) < 2:
        return None
    quarter = len(windows) // 4
    middle = windows[quarter : len(windows) - quarter]
    return sum(cost for _, cost, _ in middle) / sum(work for _, _, work in middle)


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half of ``values`` (all of them when fewer
    than four)."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    middle = ordered[quarter : len(ordered) - quarter] if quarter else ordered
    return sum(middle) / len(middle)


def covered(interval: tuple[float, float], others: Sequence[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``others``."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in others if a < hi and b > lo
    )
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


@dataclass(frozen=True)
class Span:
    """One recorded call: ``parent`` is an index into the same process's
    span list (-1 for a root); ``sync`` spans ran without yielding."""

    layer: str
    start: float
    end: float
    parent: int
    sync: bool
    count: float = 0.0


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part other spans account for.

    Spans are from one process.  A synchronous span is covered only by
    its descendants.  A coroutine span is also covered by every
    synchronous span that ran while it was suspended, whatever task ran
    it: on one event loop that time was spent on other work, not on the
    awaiting call.  Ancestors never cover their descendants.
    """
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)

    def descendants(index: int) -> list[int]:
        found, stack = [], list(children[index])
        while stack:
            child = stack.pop()
            found.append(child)
            stack.extend(children[child])
        return found

    def ancestors(index: int) -> set[int]:
        seen = set()
        parent = spans[index].parent
        while parent >= 0 and parent not in seen:
            seen.add(parent)
            parent = spans[parent].parent
        return seen

    sync_order = sorted(
        (i for i, span in enumerate(spans) if span.sync), key=lambda i: spans[i].start
    )
    sync_starts = [spans[i].start for i in sync_order]
    result = []
    for index, span in enumerate(spans):
        cover = set(descendants(index))
        if not span.sync:
            lo = bisect_left(sync_starts, span.start)
            hi = bisect_left(sync_starts, span.end)
            cover.update(sync_order[lo:hi])
            cover -= ancestors(index)
        cover.discard(index)
        intervals = [(spans[i].start, spans[i].end) for i in cover]
        result.append(
            (span.end - span.start) - covered((span.start, span.end), intervals)
        )
    return result


def iqr_share(values: Sequence[float]) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")
