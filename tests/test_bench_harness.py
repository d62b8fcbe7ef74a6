"""Benchmark plumbing: scales, stream caching, timed feeding."""

import gc

import pytest

from repro.bench.harness import (
    SCALES,
    BenchConfig,
    feed_batches,
    feed_stream,
    gc_isolated,
    num_batched_updates,
    packet_batches,
    packet_exact,
    packet_stream,
    time_call,
    time_feed,
    zipf_weighted_batches,
    zipf_weighted_stream,
)
from repro.core.frequent_items import FrequentItemsSketch

TINY = BenchConfig(
    num_updates=2_000,
    unique_sources=400,
    k_values=(16, 32),
    merge_pairs=2,
    merge_updates_per_sketch_factor=4,
    quantiles=(0, 50),
    seed=7,
)


def test_scales_defined():
    assert {"quick", "medium", "paper"} <= set(SCALES)
    for config in SCALES.values():
        assert config.num_updates > 0
        assert len(config.k_values) >= 2
        assert all(0 <= quantile <= 100 for quantile in config.quantiles)


def test_packet_stream_cached_and_sized():
    first = packet_stream(TINY)
    second = packet_stream(TINY)
    assert first is second  # cache hit
    assert len(first) == TINY.num_updates


def test_packet_exact_consistent():
    exact = packet_exact(TINY)
    assert exact.num_updates == TINY.num_updates
    assert exact.total_weight == pytest.approx(
        sum(weight for _item, weight in packet_stream(TINY))
    )


def test_zipf_weighted_stream_cached():
    a = zipf_weighted_stream(500, 100, 1.05, seed=1)
    b = zipf_weighted_stream(500, 100, 1.05, seed=1)
    c = zipf_weighted_stream(500, 100, 1.05, seed=2)
    assert a is b
    assert a != c
    assert all(1.0 <= weight <= 10_000.0 for _item, weight in a)


def test_feed_and_time_feed():
    sketch = FrequentItemsSketch(32, backend="dict", seed=1)
    stream = packet_stream(TINY)
    seconds = time_feed(sketch, stream)
    assert seconds > 0
    assert sketch.stats.updates == len(stream)
    sketch2 = FrequentItemsSketch(32, backend="dict", seed=1)
    feed_stream(sketch2, stream)
    assert sketch2.stats.updates == len(stream)


def test_batch_and_scalar_caches_agree():
    batches = packet_batches(TINY)
    stream = packet_stream(TINY)
    assert num_batched_updates(batches) == len(stream) == TINY.num_updates
    flattened = [
        (int(item), float(weight))
        for items, weights in batches
        for item, weight in zip(items.tolist(), weights.tolist())
    ]
    assert flattened == [(item, weight) for item, weight in stream]
    zb = zipf_weighted_batches(600, 120, 1.05, seed=3)
    zs = zipf_weighted_stream(600, 120, 1.05, seed=3)
    assert num_batched_updates(zb) == len(zs)
    assert zb is zipf_weighted_batches(600, 120, 1.05, seed=3)  # cache hit


def test_feed_batches_equals_feed_stream():
    batches = packet_batches(TINY)
    stream = packet_stream(TINY)
    scalar = FrequentItemsSketch(32, backend="probing", seed=1)
    feed_stream(scalar, stream)
    batched = FrequentItemsSketch(32, backend="probing", seed=1)
    feed_batches(batched, batches)
    assert batched.stats.updates == len(stream)
    assert scalar.to_bytes() == batched.to_bytes()


def test_time_call():
    seconds, result = time_call(lambda: sum(range(1000)))
    assert seconds >= 0
    assert result == 499_500


def test_gc_isolated_disables_then_restores():
    assert gc.isenabled()
    with gc_isolated():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_gc_isolated_preserves_already_disabled_state():
    gc.disable()
    try:
        with gc_isolated():
            assert not gc.isenabled()
        assert not gc.isenabled()  # caller's setting honored, not clobbered
    finally:
        gc.enable()


def test_gc_isolated_nested():
    with gc_isolated():
        with gc_isolated():
            assert not gc.isenabled()
        assert not gc.isenabled()  # inner exit must not re-enable early
    assert gc.isenabled()


def test_gc_isolated_restores_on_exception():
    with pytest.raises(RuntimeError):
        with gc_isolated():
            raise RuntimeError("boom")
    assert gc.isenabled()


def test_timed_helpers_run_with_gc_disabled():
    states = []
    time_call(lambda: states.append(gc.isenabled()))
    assert states == [False]
    assert gc.isenabled()
