"""Sharded ingestion engine: serial shard ingest vs flat probing.

Per-shard-count pytest-benchmark timings for the partition-and-ingest
path, and the quality gate of the sharded subsystem: the sharded
sketch's ``heavy_hitters`` must cover every true heavy hitter (recall
1.0) with every reported estimate inside the summed per-shard error
bound, on the same stream a flat sketch is held to.

No throughput bar is asserted.  Against the flat probing table's
compiled batch path, 4 shards measure 0.55-0.63x at quick scale on a
2-vCPU VM, so the timings are evidence for whether the in-process
sharded sketch earns its keep, not a gate.
"""

import pytest

from repro.bench.harness import (
    feed_batches,
    num_batched_updates,
    zipf_weighted_batches,
    zipf_weighted_stream,
)
from repro.core.frequent_items import FrequentItemsSketch
from repro.core.row import ErrorType
from repro.sharded.sketch import ShardedFrequentItemsSketch
from repro.streams.exact import ExactCounter

SHARD_COUNTS = (1, 2, 4, 8)
PHI = 0.01


def _k(config) -> int:
    # Deployment sizing: k within a small factor of the distinct-key
    # count.
    return 4 * config.k_values[-1]


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_sharded_ingest_throughput(benchmark, config, num_shards):
    batches = zipf_weighted_batches(
        config.num_updates, config.unique_sources, 1.05, config.seed
    )
    k = _k(config)
    benchmark.group = f"sharded ingestion, k={k}"
    benchmark.extra_info["num_shards"] = num_shards
    benchmark.extra_info["updates"] = num_batched_updates(batches)

    def run():
        sketch = ShardedFrequentItemsSketch(k, num_shards=num_shards, seed=config.seed)
        feed_batches(sketch, batches)
        return sketch

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.stats.updates == num_batched_updates(batches)


def test_sharded_heavy_hitters_match_flat_guarantees(config):
    """Sharded answers carry the flat sketch's guarantees on one stream."""
    batches = zipf_weighted_batches(
        config.num_updates, config.unique_sources, 1.05, config.seed
    )
    k = _k(config)
    exact = ExactCounter()
    exact.update_all(
        zipf_weighted_stream(
            config.num_updates, config.unique_sources, 1.05, config.seed
        )
    )
    sharded = ShardedFrequentItemsSketch(k, num_shards=4, seed=config.seed)
    feed_batches(sharded, batches)
    flat = FrequentItemsSketch(k, backend="probing", seed=config.seed)
    feed_batches(flat, batches)

    assert sharded.stream_weight == exact.total_weight == flat.stream_weight

    true_hh = exact.heavy_hitters(PHI)
    assert true_hh, "workload must produce at least one true heavy hitter"
    reported = sharded.heavy_hitters(PHI, ErrorType.NO_FALSE_NEGATIVES)
    reported_items = {row.item for row in reported}
    # Recall of true heavy hitters must be exactly 1.0.
    recall = len(reported_items & set(true_hh)) / len(true_hh)
    assert recall == 1.0, f"missed true heavy hitters: recall {recall:.3f}"

    # Every reported estimate obeys the summed per-shard error bound,
    # and the bounds bracket the true frequency.
    bound = sharded.maximum_error
    for row in reported:
        truth = exact.frequency(row.item)
        assert row.lower_bound <= truth <= row.upper_bound
        assert abs(row.estimate - truth) <= bound + 1e-9
