"""ShardedFrequentItemsSketch: partition, ingest paths, merge-on-query."""

import numpy as np
import pytest

from repro import (
    ExactCounter,
    FrequentItemsSketch,
    InvalidParameterError,
    ShardedFrequentItemsSketch,
)
from helpers import zipf_batch
from repro.core.row import ErrorType
from repro.sharded.partition import partition_salt, shard_ids, shard_of
from repro.streams.zipf import ZipfianStream


# -- partition ----------------------------------------------------------------


def test_partition_scalar_vector_agree():
    items = np.arange(1, 5_000, dtype=np.uint64) * np.uint64(2654435761)
    for num_shards in (1, 2, 3, 4, 7, 8):
        vector = shard_ids(items, num_shards, seed=11)
        scalar = [shard_of(int(item), num_shards, seed=11) for item in items]
        assert vector.tolist() == scalar
        assert 0 <= int(vector.min()) and int(vector.max()) < num_shards


def test_partition_depends_on_seed():
    items = np.arange(10_000, dtype=np.uint64)
    assert not np.array_equal(shard_ids(items, 8, seed=0), shard_ids(items, 8, seed=1))
    assert partition_salt(0) != partition_salt(1)


def test_partition_is_reasonably_balanced():
    items = np.arange(40_000, dtype=np.uint64)
    counts = np.bincount(shard_ids(items, 4, seed=3).astype(np.int64), minlength=4)
    assert counts.min() > 0.8 * len(items) / 4
    assert counts.max() < 1.2 * len(items) / 4


def test_partition_rejects_bad_shard_count():
    with pytest.raises(InvalidParameterError):
        shard_of(1, 0)
    with pytest.raises(InvalidParameterError):
        shard_ids(np.arange(4, dtype=np.uint64), -1)


# -- string keys: the cluster's substream -> worker map ------------------------


def test_string_keys_route_deterministically():
    names = [f"tenant-{i}" for i in range(500)]
    assert [shard_of(n, 4) for n in names] == [shard_of(n, 4) for n in names]
    # Pinned owners: cluster tests that need tenants on different
    # workers rest on these values, so a change to the map shows here.
    keys = ("alpha", "beta", "default", "tenant-0", "shardy#2")
    assert [shard_of(key, 4) for key in keys] == [0, 1, 1, 0, 1]
    assert [shard_of(key, 3) for key in keys] == [0, 2, 2, 2, 2]


def test_string_keys_seed_changes_placement():
    names = [f"tenant-{i}" for i in range(200)]
    assert any(shard_of(n, 4, seed=0) != shard_of(n, 4, seed=1) for n in names)


def test_string_keys_owner_in_range():
    for i in range(300):
        assert 0 <= shard_of(f"t{i}", 3) < 3


def test_string_keys_single_owner():
    assert all(shard_of(f"t{i}", 1) == 0 for i in range(50))


def test_string_keys_reject_degenerate_owner_count():
    for n in (0, -1):
        with pytest.raises(InvalidParameterError):
            shard_of("tenant", n)


def test_string_keys_balance_within_spread():
    counts = np.bincount([shard_of(f"tenant-{i}", 4) for i in range(4000)])
    assert len(counts) == 4
    for worker, count in enumerate(counts):
        assert 400 <= count <= 2000, (worker, counts)


# -- construction -------------------------------------------------------------


def test_constructor_validation():
    with pytest.raises(InvalidParameterError):
        ShardedFrequentItemsSketch(64, num_shards=0)
    with pytest.raises(InvalidParameterError):
        ShardedFrequentItemsSketch(1)  # per-shard k too small


def test_shards_have_distinct_seeds_and_shared_config():
    sketch = ShardedFrequentItemsSketch(32, num_shards=4, seed=9, backend="dict")
    seeds = {shard.seed for shard in sketch.shards}
    assert len(seeds) == 4
    assert all(shard.backend == "dict" for shard in sketch.shards)
    assert all(shard.max_counters == 32 for shard in sketch.shards)
    assert sketch.space_bytes() == 4 * sketch.shards[0].space_bytes()


# -- ingest paths -------------------------------------------------------------


def test_scalar_and_batch_ingest_are_bit_identical():
    items, weights = zipf_batch()
    batched = ShardedFrequentItemsSketch(64, num_shards=4, seed=9)
    batched.update_batch(items, weights)
    scalar = ShardedFrequentItemsSketch(64, num_shards=4, seed=9)
    for item, weight in zip(items.tolist(), weights.tolist()):
        scalar.update(item, weight)
    assert batched.to_bytes() == scalar.to_bytes()


@pytest.mark.parametrize("backend", ["dict", "probing"])
def test_all_backends_supported(backend):
    items, weights = zipf_batch(n=4_000)
    sketch = ShardedFrequentItemsSketch(64, num_shards=4, seed=2, backend=backend)
    sketch.update_batch(items, weights)
    assert sketch.stream_weight == float(weights.sum())
    assert sketch.num_active == sum(shard.num_active for shard in sketch.shards)


def test_each_item_lives_on_its_owner_shard_only():
    items, weights = zipf_batch(n=5_000)
    sketch = ShardedFrequentItemsSketch(2_000, num_shards=4, seed=1)
    sketch.update_batch(items, weights)
    owners = shard_ids(items, 4, seed=1)
    for item, owner in zip(items[:200].tolist(), owners[:200].tolist()):
        for index, shard in enumerate(sketch.shards):
            assert (item in shard) == (index == owner)
        assert item in sketch


def test_single_shard_matches_its_own_flat_shard():
    items, weights = zipf_batch(n=8_000)
    sketch = ShardedFrequentItemsSketch(64, num_shards=1, seed=3)
    sketch.update_batch(items, weights)
    flat = FrequentItemsSketch(64, backend="probing", seed=sketch.shards[0].seed)
    flat.update_batch(items, weights)
    assert sketch.shards[0].to_bytes() == flat.to_bytes()
    assert sketch.maximum_error == flat.maximum_error
    assert sketch.estimate(int(items[0])) == flat.estimate(int(items[0]))


def test_update_all_accepts_mixed_forms():
    sketch = ShardedFrequentItemsSketch(16, num_shards=2, seed=4)
    sketch.update_all([5, (6, 2.5), 5])
    assert sketch.estimate(5) == 2.0
    assert sketch.estimate(6) == 2.5
    assert sketch.stream_weight == 4.5


def test_empty_batch_is_a_noop():
    sketch = ShardedFrequentItemsSketch(16, num_shards=2, seed=4)
    sketch.update_batch(np.array([], dtype=np.uint64))
    assert sketch.is_empty()
    assert len(sketch) == 0


# -- merge-on-query -----------------------------------------------------------


def test_merged_view_is_exact_without_decrements():
    items, weights = zipf_batch(n=10_000, universe=500)
    exact = ExactCounter()
    for item, weight in zip(items.tolist(), weights.tolist()):
        exact.update(item, weight)
    # Per-shard k large enough that no shard ever decrements.
    sketch = ShardedFrequentItemsSketch(1_000, num_shards=4, seed=6)
    sketch.update_batch(items, weights)
    assert sketch.maximum_error == 0.0
    assert sketch.stream_weight == exact.total_weight
    for item, frequency in exact.items():
        assert sketch.estimate(item) == frequency
        assert sketch.lower_bound(item) == frequency
        assert sketch.upper_bound(item) == frequency


def test_merged_view_is_cached_and_invalidated_on_write():
    sketch = ShardedFrequentItemsSketch(64, num_shards=2, seed=6)
    sketch.update(1, 5.0)
    view = sketch.merged_view()
    assert sketch.merged_view() is view  # cached
    sketch.update(1, 5.0)
    assert sketch.merged_view() is not view  # invalidated by the write
    assert sketch.estimate(1) == 10.0


def test_bounds_bracket_truth_under_pressure():
    items, weights = zipf_batch(n=20_000, universe=6_000)
    exact = ExactCounter()
    for item, weight in zip(items.tolist(), weights.tolist()):
        exact.update(item, weight)
    # Small per-shard k: every shard decrements, offsets are nonzero.
    sketch = ShardedFrequentItemsSketch(64, num_shards=4, seed=8)
    sketch.update_batch(items, weights)
    assert sketch.maximum_error > 0.0
    assert sketch.maximum_error == pytest.approx(
        sum(shard.maximum_error for shard in sketch.shards)
    )
    for item, frequency in exact.items():
        assert sketch.lower_bound(item) <= frequency
        assert sketch.upper_bound(item) >= frequency
        assert abs(sketch.estimate(item) - frequency) <= sketch.maximum_error


def test_heavy_hitters_recall_is_total_under_pressure():
    items, weights = zipf_batch(n=20_000, universe=6_000)
    exact = ExactCounter()
    for item, weight in zip(items.tolist(), weights.tolist()):
        exact.update(item, weight)
    sketch = ShardedFrequentItemsSketch(64, num_shards=4, seed=8)
    sketch.update_batch(items, weights)
    phi = 0.01
    true_hh = set(exact.heavy_hitters(phi))
    reported = {
        row.item for row in sketch.heavy_hitters(phi, ErrorType.NO_FALSE_NEGATIVES)
    }
    assert true_hh <= reported
    # And the no-false-positives direction never lies.
    for row in sketch.heavy_hitters(phi, ErrorType.NO_FALSE_POSITIVES):
        assert exact.frequency(row.item) >= phi * exact.total_weight - 1e-9


def test_rows_and_iteration_come_from_the_view():
    sketch = ShardedFrequentItemsSketch(16, num_shards=2, seed=4)
    sketch.update_all([(1, 9.0), (2, 3.0), (3, 1.0)])
    rows = sketch.to_rows()
    assert [row.item for row in rows] == [1, 2, 3]
    assert [row.item for row in sketch] == [1, 2, 3]
    assert sketch.row(2).estimate == 3.0
    assert [row.item for row in sketch.frequent_items(threshold=2.0)] == [1, 2]


# -- lifecycle ----------------------------------------------------------------


def test_copy_is_independent():
    sketch = ShardedFrequentItemsSketch(16, num_shards=2, seed=4)
    sketch.update(1, 5.0)
    dup = sketch.copy()
    dup.update(1, 5.0)
    assert sketch.estimate(1) == 5.0
    assert dup.estimate(1) == 10.0
    assert dup.to_bytes() != sketch.to_bytes()


def test_stats_aggregate_across_shards():
    items, weights = zipf_batch(n=8_000)
    sketch = ShardedFrequentItemsSketch(64, num_shards=4, seed=2)
    sketch.update_batch(items, weights)
    total = sketch.stats
    assert total.updates == len(items)
    assert total.updates == sum(shard.stats.updates for shard in sketch.shards)
    assert total.decrements == sum(
        shard.stats.decrements for shard in sketch.shards
    )
