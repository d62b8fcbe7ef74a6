"""Engine consumers: kernel-batched vs scalar ingest for windowed/decayed.

Per-consumer pytest-benchmark timings for the two ingestion paths of the
re-based extensions, plus a report benchmark that regenerates the full
consumer table and writes it to ``benchmarks/out/decay.txt``.

This is the acceptance gate of the engine extraction's "inherit batching
for free" claim: the sliding-window and time-fading sketches hand-roll
no update loop anymore — they compose a
:class:`~repro.engine.kernel.SketchKernel` — and on the probing backend
their ``update_batch`` must sustain at least 3x the updates/sec of their
own scalar loop (measured at quick scale on a 2-vCPU VM: 29-30x with the
compiled kernels, 5.0x on the NumPy fallback), with final kernel state
identical in both modes (the table builder asserts it).
"""

import pytest

from repro.bench.figures import decay_throughput_table
from repro.bench.harness import num_batched_updates, zipf_weighted_batches
from repro.extensions.decayed import DecayedFrequentItemsSketch
from repro.extensions.windowed import SlidingWindowHeavyHitters

CONSUMERS = ("windowed", "decayed")
MODES = ("scalar", "batch")


def _make(consumer: str, k: int, seed: int):
    if consumer == "windowed":
        return SlidingWindowHeavyHitters(k, 4, backend="probing", seed=seed)
    return DecayedFrequentItemsSketch(k, half_life=1.0, backend="probing", seed=seed)


def _boundary(sketch) -> None:
    if isinstance(sketch, SlidingWindowHeavyHitters):
        sketch.advance()
    else:
        sketch.tick()


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
            for slice_updates in scalar_slices:
                update = sketch.update
                for item, weight in slice_updates:
                    update(item, weight)
                _boundary(sketch)
        else:
            for items, weights in batches:
                sketch.update_batch(items, weights)
                _boundary(sketch)
        return sketch

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    if consumer == "windowed":
        assert result.window_weight > 0.0
    else:
        assert result.kernel.stats.updates == num_batched_updates(batches)


def test_decay_report(benchmark, config, write_report):
    benchmark.group = "engine-consumer full table"

    def run():
        return decay_throughput_table(config)

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    write_report("decay", table)

    # The acceptance bar of the engine extraction: both re-based
    # consumers ingest through the kernel's batch path at >= 3x their
    # own scalar loop on the probing backend (the dict-backend rows are
    # reported but not asserted — the inlined loop alone carries them,
    # at smaller margins).
    for consumer in ("windowed", "decayed"):
        speedup = table.cell(
            {"consumer": consumer, "backend": "probing"}, "batch_speedup"
        )
        assert speedup >= 3.0, (
            f"{consumer} update_batch only {speedup:.2f}x its scalar loop"
        )
