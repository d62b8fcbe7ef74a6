#!/usr/bin/env python
"""Sharded ingestion with merge-on-query.

One :class:`~repro.sharded.sketch.ShardedFrequentItemsSketch` ingesting
Zipf array batches: items are hash-partitioned across shard sketches,
each shard's sub-batch runs through the vectorized ``update_batch`` path
in turn, and queries are answered from a merged view assembled on
demand and cached until the next write.  The script compares the
sharded sketch against a flat probing sketch on the same stream —
throughput, decrement-pass counts (the hardware-independent speed
driver), and heavy-hitter accuracy against exact ground truth.

Run:  python examples/sharded_ingest.py
"""

import time

from repro import ExactCounter, FrequentItemsSketch, ShardedFrequentItemsSketch
from repro.streams import ZipfianStream


def main() -> None:
    k = 2048
    num_shards = 4
    stream = ZipfianStream(
        num_updates=100_000,
        universe=20_000,
        alpha=1.05,
        seed=42,
        weight_low=1,
        weight_high=10_000,
    )
    batches = list(stream.batches(batch_size=16_384))
    total_updates = sum(len(items) for items, _weights in batches)

    # Flat reference: one probing sketch, one table, one thread.
    flat = FrequentItemsSketch(k, seed=7)
    start = time.perf_counter()
    for items, weights in batches:
        flat.update_batch(items, weights)
    flat_seconds = time.perf_counter() - start

    # Sharded: same batches, partitioned across num_shards tables and
    # ingested shard by shard.
    sharded = ShardedFrequentItemsSketch(k, num_shards=num_shards, seed=7)
    start = time.perf_counter()
    for items, weights in batches:
        sharded.update_batch(items, weights)
    sharded_seconds = time.perf_counter() - start

    exact = ExactCounter()
    for items, weights in batches:
        for item, weight in zip(items.tolist(), weights.tolist()):
            exact.update(item, weight)

    print(f"{total_updates:,} updates, {exact.num_items:,} distinct items, "
          f"N = {exact.total_weight:,.0f}")
    print()
    print(f"{'ingest path':<28} {'sec':>8} {'updates/sec':>14} {'decrements':>11}")
    print(f"{'flat probing':<28} {flat_seconds:8.3f} "
          f"{total_updates / flat_seconds:14,.0f} {flat.stats.decrements:11d}")
    print(f"{f'{num_shards} shards':<28} {sharded_seconds:8.3f} "
          f"{total_updates / sharded_seconds:14,.0f} "
          f"{sharded.stats.decrements:11d}")
    print(f"sharded speedup: {flat_seconds / sharded_seconds:.2f}x")
    print()

    # Merge-on-query: the first query assembles the merged view; it is
    # cached until the next write invalidates it.
    start = time.perf_counter()
    top = sharded.heavy_hitters(phi=0.01)
    first_query = time.perf_counter() - start
    start = time.perf_counter()
    sharded.heavy_hitters(phi=0.01)
    cached_query = time.perf_counter() - start
    print(f"merged view: {sharded.num_active:,} counters from "
          f"{num_shards} shards, error bound {sharded.maximum_error:,.0f} "
          f"(summed per-shard)")
    print(f"merge-on-query: first query {first_query * 1e3:.2f} ms, "
          f"cached {cached_query * 1e3:.3f} ms")
    print()

    true_hh = exact.heavy_hitters(0.01)
    reported = {row.item for row in top}
    recall = len(reported & set(true_hh)) / len(true_hh) if true_hh else 1.0
    print(f"heavy hitters (phi = 1%): {len(top)} reported, "
          f"{len(true_hh)} true, recall {recall:.2f}")
    for row in top[:5]:
        print(f"  item {row.item:>20}: est {row.estimate:12,.0f}   "
              f"exact {exact.frequency(row.item):12,.0f}")


if __name__ == "__main__":
    main()
