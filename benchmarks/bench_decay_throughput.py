"""Engine consumers: kernel-batched vs scalar ingest for windowed/decayed.

Per-consumer pytest-benchmark timings for the two ingestion paths of the
re-based extensions, plus a report benchmark that times both paths in
one process and writes the table to ``benchmarks/out/decay.txt``.

This is the acceptance gate of the engine extraction's "inherit batching
for free" claim: the sliding-window and time-fading sketches hand-roll
no update loop anymore — they compose a
:class:`~repro.engine.kernel.SketchKernel` — and on the probing backend
their ``update_batch`` must sustain at least 3x the updates/sec of their
own scalar loop (measured at quick scale on a 2-vCPU VM: 29-30x with the
compiled kernels, 5.0x on the NumPy fallback), with final kernel state
identical in both modes on both backends.
"""

from functools import partial

import numpy as np
import pytest

from repro.bench.harness import (
    num_batched_updates,
    time_call,
    zipf_weighted_batches,
)
from repro.bench.report import ResultTable
from repro.extensions.decayed import DecayedFrequentItemsSketch
from repro.extensions.windowed import SlidingWindowHeavyHitters

CONSUMERS = ("windowed", "decayed")
MODES = ("scalar", "batch")


def _make(consumer: str, k: int, seed: int, backend: str = "probing"):
    if consumer == "windowed":
        return SlidingWindowHeavyHitters(k, 4, backend=backend, seed=seed)
    # A whole half-life per tick keeps the ingest scale a power of two,
    # so scaled weights stay exactly representable and the scalar/batch
    # equality check is exact at any scale.
    return DecayedFrequentItemsSketch(k, half_life=1.0, backend=backend, seed=seed)


def _boundary(sketch) -> None:
    if isinstance(sketch, SlidingWindowHeavyHitters):
        sketch.advance()
    else:
        sketch.tick()


def _feed_scalar(sketch, scalar_slices) -> None:
    update = sketch.update
    for slice_updates in scalar_slices:
        for item, weight in slice_updates:
            update(item, weight)
        _boundary(sketch)


def _feed_batches(sketch, batches) -> None:
    for items, weights in batches:
        sketch.update_batch(items, weights)
        _boundary(sketch)


@pytest.mark.parametrize("consumer", CONSUMERS)
@pytest.mark.parametrize("mode", MODES)
def test_consumer_ingest_throughput(benchmark, config, consumer, mode):
    batches = zipf_weighted_batches(
        config.num_updates, config.unique_sources, 1.05, config.seed
    )
    # Pre-materialized Python pairs for the scalar loop, matching the
    # batch benchmark's feed_stream methodology.
    scalar_slices = [
        list(zip(items.tolist(), weights.tolist())) for items, weights in batches
    ]
    k = config.k_values[-1]
    benchmark.group = f"engine-consumer ingestion, k={k}"
    benchmark.extra_info["consumer"] = consumer
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["updates"] = num_batched_updates(batches)

    def run():
        sketch = _make(consumer, k, config.seed)
        if mode == "scalar":
            _feed_scalar(sketch, scalar_slices)
        else:
            _feed_batches(sketch, batches)
        return sketch

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    if consumer == "windowed":
        assert result.window_weight > 0.0
    else:
        assert result.kernel.stats.updates == num_batched_updates(batches)


def _final_kernel(sketch):
    if isinstance(sketch, SlidingWindowHeavyHitters):
        return sketch.window_kernel()
    return sketch.kernel


def decay_throughput(config) -> ResultTable:
    """Scalar loop vs kernel-batched ingest for both consumers, per backend."""
    source = zipf_weighted_batches(
        config.num_updates, config.unique_sources, 1.05, config.seed
    )
    # Re-chunk the workload into 8 time slices so the slice/tick
    # boundaries genuinely interleave with ingest at every scale.
    all_items = np.concatenate([items for items, _weights in source])
    all_weights = np.concatenate([weights for _items, weights in source])
    slice_len = max(1, len(all_items) // 8)
    batches = [
        (all_items[lo : lo + slice_len], all_weights[lo : lo + slice_len])
        for lo in range(0, len(all_items), slice_len)
    ]
    # The scalar loops consume pre-materialized Python pairs, so timings
    # measure sketch work, not NumPy scalar-boxing overhead.
    scalar_slices = [
        list(zip(items.tolist(), weights.tolist())) for items, weights in batches
    ]
    n = num_batched_updates(batches)
    k = config.k_values[-1]
    # Warm-up pulls NumPy's lazily imported submodules out of timed code.
    warmup = DecayedFrequentItemsSketch(max(2, k // 8), half_life=1.0, seed=0)
    warmup.update_batch(all_items[:256], all_weights[:256])
    table = ResultTable(
        f"Engine consumers: scalar vs kernel-batched updates/sec "
        f"(Zipf 1.05, k={k})",
        [
            "consumer", "backend", "k", "scalar_per_sec", "batch_per_sec",
            "batch_speedup",
        ],
    )
    for consumer in CONSUMERS:
        for backend in ("probing", "dict"):
            scalar = _make(consumer, k, config.seed, backend)
            scalar_seconds, _ = time_call(partial(_feed_scalar, scalar, scalar_slices))
            batched = _make(consumer, k, config.seed, backend)
            batch_seconds, _ = time_call(partial(_feed_batches, batched, batches))
            kernel_a, kernel_b = _final_kernel(scalar), _final_kernel(batched)
            assert kernel_a.offset == kernel_b.offset, (consumer, backend)
            assert kernel_a.stream_weight == kernel_b.stream_weight, (consumer, backend)
            assert list(kernel_a.store.items()) == list(kernel_b.store.items()), (
                f"scalar/batch divergence: {consumer} on backend {backend!r}"
            )
            table.add_row(
                consumer=consumer,
                backend=backend,
                k=k,
                scalar_per_sec=n / scalar_seconds,
                batch_per_sec=n / batch_seconds,
                batch_speedup=scalar_seconds / batch_seconds,
            )
    return table


def test_decay_report(benchmark, config, write_report):
    benchmark.group = "engine-consumer full table"
    table = benchmark.pedantic(
        lambda: decay_throughput(config), rounds=1, iterations=1
    )
    write_report("decay", table)

    # The acceptance bar of the engine extraction: both re-based
    # consumers ingest through the kernel's batch path at >= 3x their
    # own scalar loop on the probing backend (the dict-backend rows are
    # reported but not asserted — the inlined loop alone carries them,
    # at smaller margins).
    for consumer in CONSUMERS:
        speedup = table.cell(
            {"consumer": consumer, "backend": "probing"}, "batch_speedup"
        )
        assert speedup >= 3.0, (
            f"{consumer} update_batch only {speedup:.2f}x its scalar loop"
        )
