#!/usr/bin/env python
"""Trending items with the exponential time-fading sketch.

A traffic mix that shifts over time: an "old guard" item dominates the
early stream, then fades out of the workload while a "breakout" item
ramps up.  A plain :class:`~repro.core.frequent_items.FrequentItemsSketch`
keeps ranking the old guard first forever (it optimizes all-time
totals); the :class:`~repro.extensions.decayed.DecayedFrequentItemsSketch`
halves every item's influence per half-life, so its heavy hitters track
what is trending *now*.  Both sketches ingest the same array batches —
the decayed sketch rides the shared engine's vectorized batch path.

Run:  python examples/decayed_trending.py
"""

import time

import numpy as np

from repro import DecayedFrequentItemsSketch, FrequentItemsSketch

OLD_GUARD = 1001
BREAKOUT = 2002


def epoch_batch(rng: np.random.Generator, epoch: int, num_epochs: int,
                size: int) -> tuple[np.ndarray, np.ndarray]:
    """One epoch of traffic: OLD_GUARD dominates early, BREAKOUT late."""
    late = epoch >= num_epochs - 3
    share_old = 0.0 if late else 0.40        # 40% of traffic, then gone
    share_new = 0.25 if late else 0.0        # absent, then 25% of traffic
    draws = rng.random(size)
    items = rng.integers(10_000, 40_000, size=size).astype(np.uint64)
    items[draws < share_old] = OLD_GUARD
    items[(draws >= share_old) & (draws < share_old + share_new)] = BREAKOUT
    weights = rng.integers(1, 100, size=size).astype(np.float64)
    return items, weights


def main() -> None:
    num_epochs = 12
    batch_size = 25_000
    rng = np.random.default_rng(7)

    alltime = FrequentItemsSketch(1024, seed=3)
    decayed = DecayedFrequentItemsSketch(1024, half_life=2.0, seed=3)

    start = time.perf_counter()
    for epoch in range(num_epochs):
        items, weights = epoch_batch(rng, epoch, num_epochs, batch_size)
        alltime.update_batch(items, weights)
        decayed.update_batch(items, weights)
        if epoch < num_epochs - 1:
            decayed.tick()                   # one epoch = one time unit
    seconds = time.perf_counter() - start
    total = num_epochs * batch_size
    print(f"{total:,} updates over {num_epochs} epochs "
          f"({total / seconds:,.0f} updates/sec through both sketches)")
    print()

    def rank(sketch, item) -> str:
        rows = sketch.heavy_hitters(phi=0.001)
        for position, row in enumerate(rows, start=1):
            if row.item == item:
                return f"#{position}"
        return "unranked"

    print(f"{'sketch':<22} {'old guard':>12} {'breakout':>12}")
    print(f"{'all-time totals':<22} {rank(alltime, OLD_GUARD):>12} "
          f"{rank(alltime, BREAKOUT):>12}")
    print(f"{'time-fading (trend)':<22} {rank(decayed, OLD_GUARD):>12} "
          f"{rank(decayed, BREAKOUT):>12}")
    print()
    print(f"all-time estimates : old guard {alltime.estimate(OLD_GUARD):>12,.0f}"
          f"   breakout {alltime.estimate(BREAKOUT):>12,.0f}")
    print(f"decayed estimates  : old guard {decayed.estimate(OLD_GUARD):>12,.0f}"
          f"   breakout {decayed.estimate(BREAKOUT):>12,.0f}")
    print()
    top = decayed.heavy_hitters(phi=0.05)
    print(f"trending now (phi = 5% of decayed weight "
          f"{decayed.decayed_weight:,.0f}):")
    for row in top[:3]:
        print(f"  item {row.item:>6}: decayed estimate {row.estimate:12,.1f} "
              f"in [{row.lower_bound:,.1f}, {row.upper_bound:,.1f}]")
    assert top and top[0].item == BREAKOUT, "breakout item should lead the trend"
    assert alltime.estimate(OLD_GUARD) > alltime.estimate(BREAKOUT)
    assert decayed.estimate(BREAKOUT) > decayed.estimate(OLD_GUARD)
    print()
    print("the all-time sketch still ranks the old guard; the decayed "
          "sketch has moved on")


if __name__ == "__main__":
    main()
