"""IngestPipeline: concurrency stress, backpressure, coalescing, queries.

The central correctness property is *no lost, no duplicated updates*:
whatever interleaving the event loop produces, the weight that reaches
the sketch must be exactly the weight the producers submitted.  In the
no-decrement regime (``k`` at least the number of distinct items) the
sketch is itself exact, so every per-item count can be checked against
an :class:`ExactCounter` oracle to the last bit.
"""

import asyncio
import random

import numpy as np
import pytest

from helpers import (
    assert_bounds_valid,
    await_applied_seq,
    exact_of,
    zipf_batch,
)
from repro import (
    ExactCounter,
    FrequentItemsSketch,
    IngestPipeline,
    InvalidParameterError,
    InvalidUpdateError,
    PipelineConfig,
    ServiceClosedError,
    ShardedFrequentItemsSketch,
)

pytestmark = pytest.mark.service


def run(coroutine):
    return asyncio.run(coroutine)


# -- configuration ------------------------------------------------------------


def test_config_validation():
    for bad in (
        dict(max_batch_items=0),
        dict(flush_interval=0.0),
        dict(flush_interval=-1.0),
        dict(max_pending_items=0),
        dict(snapshot_every_batches=0),
    ):
        with pytest.raises(InvalidParameterError):
            PipelineConfig(**bad)


# -- concurrency stress -------------------------------------------------------


def test_many_producers_lose_and_duplicate_nothing():
    """8 interleaved producers, random batch sizes, random yields: every
    submitted update must be applied exactly once."""
    num_producers = 8
    rng = random.Random(17)
    streams = []
    for producer in range(num_producers):
        updates = [
            (rng.randrange(500), float(rng.randint(1, 100)))
            for _ in range(rng.randint(300, 900))
        ]
        streams.append(updates)
    oracle = ExactCounter()
    for updates in streams:
        for item, weight in updates:
            oracle.update(item, weight)

    async def main():
        sketch = FrequentItemsSketch(1024, backend="probing", seed=3)
        config = PipelineConfig(max_batch_items=256, flush_interval=0.002,
                                max_pending_items=1024)
        pipeline = IngestPipeline(sketch, config=config)

        async def producer(updates, seed):
            prng = random.Random(seed)
            position = 0
            while position < len(updates):
                take = prng.randint(1, 64)
                chunk = updates[position : position + take]
                position += take
                items = np.array([i for i, _w in chunk], dtype=np.uint64)
                weights = np.array([w for _i, w in chunk], dtype=np.float64)
                await pipeline.submit(
                    items, weights, wait_applied=prng.random() < 0.2
                )
                if prng.random() < 0.5:
                    await asyncio.sleep(0)

        async with pipeline:
            await asyncio.gather(
                *(producer(stream, 100 + index)
                  for index, stream in enumerate(streams))
            )
            await pipeline.drain()
            assert pipeline.pending_items == 0
        return pipeline

    pipeline = run(main())
    sketch = pipeline.sketch
    # k=1024 > 500 distinct items: the sketch is exact, so any lost or
    # duplicated update would show up in some per-item count.
    assert sketch.maximum_error == 0.0
    assert sketch.stream_weight == oracle.total_weight
    assert sketch.num_active == oracle.num_items
    for item, frequency in oracle.items():
        assert sketch.estimate(item) == frequency
    stats = pipeline.stats
    assert stats.submitted_items == stats.applied_items == oracle.num_updates
    assert stats.applied_batches <= stats.submitted_batches  # coalescing


def test_concurrent_result_bit_identical_to_direct_feed():
    """Micro-batch boundaries are whatever timing produced, but integer
    weights make the engine boundary-invariant — the served probing
    sketch must serialize identically to a direct update_batch feed."""
    items, weights = zipf_batch(n=6_000, universe=400, seed=23)
    reference = FrequentItemsSketch(64, backend="probing", seed=9)
    reference.update_batch(items, weights)

    async def main():
        sketch = FrequentItemsSketch(64, backend="probing", seed=9)
        pipeline = IngestPipeline(
            sketch,
            config=PipelineConfig(max_batch_items=512, flush_interval=0.001),
        )
        async with pipeline:
            for start in range(0, len(items), 777):
                await pipeline.submit(
                    items[start : start + 777], weights[start : start + 777]
                )
            await pipeline.drain()
        return sketch

    served = run(main())
    assert served.stats.decrements > 0  # the interesting regime
    assert served.to_bytes() == reference.to_bytes()


def test_sharded_sketch_rides_the_pipeline():
    items, weights = zipf_batch(n=5_000, universe=600, seed=31)
    oracle = exact_of((items, weights))

    async def main():
        sketch = ShardedFrequentItemsSketch(64, num_shards=2, seed=5)
        pipeline = IngestPipeline(sketch)
        async with pipeline:
            await pipeline.submit(items, weights)
            await pipeline.drain()
        return sketch

    sketch = run(main())
    assert_bounds_valid(sketch, oracle)


# -- backpressure -------------------------------------------------------------


def test_backpressure_bounds_the_queue():
    async def main():
        sketch = FrequentItemsSketch(256, backend="probing", seed=1)
        config = PipelineConfig(
            max_batch_items=128, flush_interval=0.001, max_pending_items=256
        )
        pipeline = IngestPipeline(sketch, config=config)
        async with pipeline:
            async def producer():
                for _ in range(60):
                    await pipeline.submit(
                        np.arange(64, dtype=np.uint64),
                        np.ones(64, dtype=np.float64),
                    )
            await asyncio.gather(producer(), producer(), producer())
            await pipeline.drain()
        return pipeline

    pipeline = run(main())
    stats = pipeline.stats
    assert stats.applied_items == 3 * 60 * 64
    # Admission control: the buffered backlog never exceeded the bound
    # (every submission here is smaller than the bound).
    assert stats.peak_pending_items <= 256
    assert stats.backpressure_waits > 0


# -- coalescing triggers ------------------------------------------------------


def test_size_trigger_coalesces_small_submissions():
    async def main():
        pipeline = IngestPipeline(
            FrequentItemsSketch(128, backend="probing", seed=2),
            config=PipelineConfig(max_batch_items=512, flush_interval=5.0),
        )
        async with pipeline:
            for index in range(64):  # 64 x 16 = 2 x 512
                await pipeline.submit(
                    np.full(16, index, dtype=np.uint64),
                    np.ones(16, dtype=np.float64),
                )
            await pipeline.drain()
        return pipeline

    pipeline = run(main())
    stats = pipeline.stats
    assert stats.applied_items == 64 * 16
    assert stats.size_flushes >= 1
    assert stats.applied_batches < stats.submitted_batches


def test_time_trigger_flushes_without_reaching_size():
    async def main():
        pipeline = IngestPipeline(
            FrequentItemsSketch(128, seed=2),
            config=PipelineConfig(max_batch_items=1 << 20,
                                  flush_interval=0.005),
        )
        async with pipeline:
            await pipeline.submit(np.array([7, 7], dtype=np.uint64))
            # Deadline-polling, not a fixed sleep: a loaded CI box can
            # stall the 5ms flush timer well past any constant chosen.
            await await_applied_seq(pipeline, 1)
            applied_mid_flight = pipeline.applied_seq
            assert pipeline.estimate(7) == 2.0  # visible before any drain
        return applied_mid_flight

    assert run(main()) == 1


# -- the flush deadline: one timer per micro-batch window ---------------------


class StampedSketch(FrequentItemsSketch):
    """Records the loop time of every applied micro-batch."""

    __slots__ = ("applied_at",)

    def update_batch(self, items, weights=None):
        super().update_batch(items, weights)
        self.applied_at.append(asyncio.get_running_loop().time())


def stamped_sketch():
    sketch = StampedSketch(64, seed=3)
    sketch.applied_at = []
    return sketch


def test_lone_submit_applies_after_flush_interval():
    interval = 0.05

    async def main():
        sketch = stamped_sketch()
        pipeline = IngestPipeline(
            sketch,
            config=PipelineConfig(max_batch_items=1 << 20,
                                  flush_interval=interval),
        )
        async with pipeline:
            submitted = asyncio.get_running_loop().time()
            await pipeline.submit(np.array([4, 4, 9], dtype=np.uint64))
            await await_applied_seq(pipeline, 1)
        return pipeline, sketch.applied_at[0] - submitted

    pipeline, elapsed = run(main())
    assert interval * 0.9 <= elapsed < 5.0
    stats = pipeline.stats
    assert (stats.applied_batches, stats.time_flushes, stats.size_flushes) == (
        1, 1, 0
    )
    assert pipeline.estimate(4) == 2.0


@pytest.mark.parametrize("fire", ["soon", "inline"])
def test_early_deadline_timer_still_closes_the_window(fire):
    """asyncio may run a timer before its deadline; the window must close
    on the timer's own verdict, not on a loop.time() re-check that could
    leave it waiting with no timer armed.  The patched ``call_at`` fires
    every callback at once, a minute early."""

    async def main():
        loop = asyncio.get_running_loop()
        pipeline = IngestPipeline(
            FrequentItemsSketch(64, seed=3),
            config=PipelineConfig(max_batch_items=1 << 20, flush_interval=60.0),
        )
        armed = []

        def early(when, callback, *args, context=None):
            armed.append(when - loop.time())
            if fire == "inline":
                callback(*args)
                return loop.call_soon(lambda: None)
            return loop.call_soon(callback, *args)

        async with pipeline:
            loop.call_at = early
            try:
                await pipeline.submit(np.array([1, 2, 2], dtype=np.uint64))
                for _ in range(100):  # sleep(0) arms no timer
                    if pipeline.applied_seq:
                        break
                    await asyncio.sleep(0)
            finally:
                del loop.call_at
            applied = pipeline.applied_seq
        return pipeline, applied, armed

    pipeline, applied, armed = run(main())
    assert applied == 1
    assert len(armed) == 1 and armed[0] > 59.0
    assert pipeline.stats.time_flushes == 1
    assert pipeline.estimate(2) == 2.0


@pytest.mark.parametrize("first_close", ["time", "drain"])
def test_frame_after_a_flush_gets_its_own_full_window(first_close):
    """The first window closes on its deadline or on drain(); the next
    frame, submitted later, still waits a whole flush_interval — no
    timer left over from the first window cuts it short."""
    interval = 0.2

    async def main():
        loop = asyncio.get_running_loop()
        sketch = stamped_sketch()
        pipeline = IngestPipeline(
            sketch,
            config=PipelineConfig(max_batch_items=1 << 20,
                                  flush_interval=interval),
        )
        async with pipeline:
            await pipeline.submit(np.array([5], dtype=np.uint64))
            if first_close == "drain":
                await pipeline.drain()
                # Submit inside what was the first window's deadline.
                await asyncio.sleep(interval / 2)
            else:
                await await_applied_seq(pipeline, 1)
            submitted = loop.time()
            await pipeline.submit(np.array([6], dtype=np.uint64))
            await await_applied_seq(pipeline, 2)
        return pipeline, sketch.applied_at[1] - submitted

    pipeline, elapsed = run(main())
    assert interval * 0.9 <= elapsed < 5.0
    assert pipeline.stats.applied_batches == 2
    assert pipeline.stats.time_flushes == 2


def test_stop_inside_an_open_window_applies_collected_parts():
    async def main():
        loop = asyncio.get_running_loop()
        pipeline = IngestPipeline(
            FrequentItemsSketch(64, seed=4),
            config=PipelineConfig(max_batch_items=1 << 20, flush_interval=60.0),
        )
        await pipeline.start()
        await pipeline.submit(np.array([1, 1], dtype=np.uint64))
        await pipeline.submit(np.array([1, 3], dtype=np.uint64))
        for _ in range(3):
            await asyncio.sleep(0)
        # The drain task holds both parts in an open window.
        assert not pipeline._queue and pipeline.applied_seq == 0
        started = loop.time()
        await pipeline.stop()
        return pipeline, loop.time() - started

    pipeline, elapsed = run(main())
    assert elapsed < 5.0
    assert pipeline.estimate(1) == 3.0 and pipeline.estimate(3) == 1.0
    stats = pipeline.stats
    assert (stats.applied_batches, stats.time_flushes, stats.size_flushes) == (
        1, 1, 0
    )
    assert pipeline.pending_items == 0


# -- validation and lifecycle -------------------------------------------------


def test_rejected_batch_is_a_noop():
    async def main():
        pipeline = IngestPipeline(FrequentItemsSketch(16, seed=0))
        async with pipeline:
            with pytest.raises(InvalidUpdateError):
                await pipeline.submit(
                    np.array([1, 2], dtype=np.uint64), np.array([1.0, -1.0])
                )
            await pipeline.submit(np.array([], dtype=np.uint64))  # no-op
            await pipeline.drain()
            assert pipeline.sketch.is_empty()
            assert pipeline.stats.submitted_items == 0

    run(main())


def test_submit_after_stop_raises():
    async def main():
        pipeline = IngestPipeline(FrequentItemsSketch(16, seed=0))
        await pipeline.start()
        await pipeline.update(5, 2.0)
        await pipeline.stop()
        assert pipeline.estimate(5) == 2.0  # queries outlive the loop
        with pytest.raises(ServiceClosedError):
            await pipeline.submit(np.array([1], dtype=np.uint64))

    run(main())


def test_stop_applies_queued_work():
    async def main():
        pipeline = IngestPipeline(
            FrequentItemsSketch(64, seed=4),
            config=PipelineConfig(max_batch_items=1 << 20, flush_interval=60.0),
        )
        await pipeline.start()
        await pipeline.submit(np.array([1, 1, 2], dtype=np.uint64))
        # Stop before any trigger fires: the drain loop must still apply
        # everything before shutting down.
        await pipeline.stop()
        assert pipeline.estimate(1) == 2.0
        assert pipeline.pending_items == 0

    run(main())


def test_drain_never_started_raises_cleanly():
    async def main():
        pipeline = IngestPipeline(FrequentItemsSketch(16, seed=0))
        with pytest.raises(ServiceClosedError):
            await pipeline.drain()

    run(main())


def test_drain_task_fault_fails_fast_and_loud():
    """An exception inside apply (disk full, closed sharded executor...)
    must not wedge the pipeline: submits start failing, waiters wake
    with the fault, and stop() re-raises it."""

    class ExplodingSketch(FrequentItemsSketch):
        __slots__ = ("detonated",)

        def update_batch(self, items, weights=None):
            raise OSError("disk full")

    async def main():
        pipeline = IngestPipeline(
            ExplodingSketch(16, seed=0),
            config=PipelineConfig(flush_interval=0.001),
        )
        await pipeline.start()
        with pytest.raises(ServiceClosedError, match="disk full"):
            await pipeline.submit(
                np.array([1], dtype=np.uint64), wait_applied=True
            )
        assert not pipeline.is_running
        with pytest.raises(ServiceClosedError):
            await pipeline.submit(np.array([2], dtype=np.uint64))
        with pytest.raises(ServiceClosedError, match="disk full"):
            await pipeline.drain()
        assert pipeline.pending_items == 0
        with pytest.raises(OSError, match="disk full"):
            await pipeline.stop()

    run(main())


def test_queries_between_micro_batches_are_consistent():
    """A reader woken between submissions sees a sketch whose stream
    weight is always a whole number of applied micro-batches."""
    async def main():
        pipeline = IngestPipeline(
            FrequentItemsSketch(64, backend="probing", seed=8),
            config=PipelineConfig(max_batch_items=100, flush_interval=0.001),
        )
        observed = []

        async def reader():
            for _ in range(50):
                observed.append(pipeline.sketch.stream_weight)
                await asyncio.sleep(0)

        async with pipeline:
            writer = asyncio.gather(
                *(pipeline.submit(np.full(100, i, dtype=np.uint64))
                  for i in range(20))
            )
            await asyncio.gather(writer, reader())
            await pipeline.drain()
        return observed

    observed = run(main())
    assert all(weight % 100 == 0 for weight in observed)
