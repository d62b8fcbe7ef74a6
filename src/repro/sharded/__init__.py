"""Sharded ingestion with merge-on-query.

The scale-out layer: :class:`ShardedFrequentItemsSketch` hash-partitions
items across independent shard sketches, ingests array batches shard by
shard, and answers every query from a cached merged view whose guarantees derive from the summed per-shard error.
:mod:`repro.sharded.partition` holds the seeded item router.
"""

from repro.sharded.partition import partition_salt, shard_ids, shard_of
from repro.sharded.sketch import ShardedFrequentItemsSketch

__all__ = [
    "ShardedFrequentItemsSketch",
    "partition_salt",
    "shard_ids",
    "shard_of",
]
