"""Merging sharded sketches: shard-wise, re-shard, and edge cases."""

import numpy as np
import pytest

from repro import (
    ExactCounter,
    FrequentItemsSketch,
    IncompatibleSketchError,
    ShardedFrequentItemsSketch,
)
from repro.streams.zipf import ZipfianStream

from helpers import assert_bounds_valid, exact_of
from helpers import zipf_batch as _shared_zipf_batch


def zipf_batch(n=12_000, universe=3_000, seed=5):
    return _shared_zipf_batch(n=n, universe=universe, seed=seed)


# -- shard-wise (equally sharded) ---------------------------------------------


def test_merge_empty_into_empty():
    a = ShardedFrequentItemsSketch(16, num_shards=2, seed=1)
    b = ShardedFrequentItemsSketch(16, num_shards=2, seed=1)
    assert a.merge(b) is a
    assert a.is_empty()
    assert a.maximum_error == 0.0


def test_merge_empty_shards_into_populated():
    batch = zipf_batch()
    a = ShardedFrequentItemsSketch(64, num_shards=4, seed=1)
    a.update_batch(*batch)
    before = a.to_bytes()
    a.merge(ShardedFrequentItemsSketch(64, num_shards=4, seed=1))
    assert a.to_bytes() == before  # absorbing emptiness changes nothing


def test_merge_populated_into_empty_preserves_everything():
    batch = zipf_batch()
    source = ShardedFrequentItemsSketch(64, num_shards=4, seed=1)
    source.update_batch(*batch)
    target = ShardedFrequentItemsSketch(64, num_shards=4, seed=1)
    target.merge(source)
    assert target.stream_weight == source.stream_weight
    assert target.maximum_error >= source.maximum_error
    assert_bounds_valid(target, exact_of(batch))


def test_shardwise_merge_bounds_and_weights_add():
    first, second = zipf_batch(seed=5), zipf_batch(seed=6)
    a = ShardedFrequentItemsSketch(64, num_shards=4, seed=1)
    a.update_batch(*first)
    b = ShardedFrequentItemsSketch(64, num_shards=4, seed=1)
    b.update_batch(*second)
    expected_error_floor = a.maximum_error + b.maximum_error
    a.merge(b)
    # Offsets add shard-wise (replay may add more on full shards).
    assert a.maximum_error >= expected_error_floor - 1e-9
    assert_bounds_valid(a, exact_of(first, second))


def test_merge_rejects_self_and_foreign_types():
    sketch = ShardedFrequentItemsSketch(16, num_shards=2, seed=1)
    with pytest.raises(IncompatibleSketchError):
        sketch.merge(sketch)
    with pytest.raises(IncompatibleSketchError):
        sketch.merge(FrequentItemsSketch(16))


# -- re-shard (mismatched shard counts) ---------------------------------------


@pytest.mark.parametrize("shards_a,shards_b", [(4, 2), (2, 4), (4, 3), (1, 4)])
def test_mismatched_shard_counts_reshard_correctly(shards_a, shards_b):
    first, second = zipf_batch(seed=7), zipf_batch(seed=8)
    a = ShardedFrequentItemsSketch(64, num_shards=shards_a, seed=1)
    a.update_batch(*first)
    b = ShardedFrequentItemsSketch(64, num_shards=shards_b, seed=1)
    b.update_batch(*second)
    a.merge(b)
    assert_bounds_valid(a, exact_of(first, second))


def test_negative_seed_round_trip_still_merges_shardwise():
    """Seed -1 and its 64-bit mask are the same partition, merge-wise."""
    batch = zipf_batch(seed=7)
    original = ShardedFrequentItemsSketch(64, num_shards=4, seed=-1)
    original.update_batch(*batch)
    clone = ShardedFrequentItemsSketch.from_bytes(original.to_bytes())
    assert clone.seed == (1 << 64) - 1  # stored masked
    merged = original.copy().merge(clone)
    # Shard-wise path: no re-shard error carry-over, offsets just add.
    assert merged._extra_offset == 0.0
    assert merged.maximum_error == pytest.approx(2 * original.maximum_error)
    assert merged.stream_weight == 2 * original.stream_weight


def test_mismatched_partition_seeds_also_reshard():
    batch = zipf_batch(seed=7)
    a = ShardedFrequentItemsSketch(64, num_shards=4, seed=1)
    b = ShardedFrequentItemsSketch(64, num_shards=4, seed=2)
    b.update_batch(*batch)
    a.merge(b)
    assert_bounds_valid(a, exact_of(batch))


def test_reshard_preserves_summary():
    batch = zipf_batch()
    sketch = ShardedFrequentItemsSketch(64, num_shards=4, seed=1)
    sketch.update_batch(*batch)
    for new_count in (1, 2, 8):
        wider = sketch.reshard(new_count)
        assert wider.num_shards == new_count
        assert wider.stream_weight == pytest.approx(sketch.stream_weight)
        assert wider.maximum_error >= sketch.maximum_error - 1e-9
        assert_bounds_valid(wider, exact_of(batch))


def test_reshard_to_same_count_is_shardwise_exact():
    batch = zipf_batch()
    sketch = ShardedFrequentItemsSketch(64, num_shards=4, seed=1)
    sketch.update_batch(*batch)
    clone = sketch.reshard(4)
    assert clone.stream_weight == sketch.stream_weight
    assert clone.num_active == sketch.num_active
    view, clone_view = sketch.merged_view(), clone.merged_view()
    for row in view.to_rows():
        assert clone_view.lower_bound(row.item) == row.lower_bound


def test_absorb_flat_sketch():
    batch = zipf_batch(seed=9)
    flat = FrequentItemsSketch(256, backend="probing", seed=3)
    flat.update_batch(*batch)
    sharded = ShardedFrequentItemsSketch(256, num_shards=4, seed=1)
    sharded.absorb_flat(flat)
    assert sharded.stream_weight == pytest.approx(flat.stream_weight)
    assert sharded.maximum_error >= flat.maximum_error
    # Every flat bound survives the re-partition, loosened at most by
    # the carried-over offset.
    exact = exact_of(batch)
    assert_bounds_valid(sharded, exact)


def test_merge_distributed_workers_equals_guarantees_of_single_sketch():
    """The FDCMSS shape: per-worker sharded sketches, one aggregate."""
    batches = [zipf_batch(seed=s) for s in (10, 11, 12, 13)]
    workers = []
    for index, batch in enumerate(batches):
        worker = ShardedFrequentItemsSketch(64, num_shards=4, seed=1)
        worker.update_batch(*batch)
        workers.append(worker)
    aggregate = workers[0]
    for other in workers[1:]:
        aggregate.merge(other)
    exact = exact_of(*batches)
    assert_bounds_valid(aggregate, exact)
    true_hh = set(exact.heavy_hitters(0.02))
    reported = {row.item for row in aggregate.heavy_hitters(0.02)}
    assert true_hh <= reported
