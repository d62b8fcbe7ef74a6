"""Shared benchmark plumbing: configurations, stream caching, timed feeds.

All experiments consume materialized update lists (generation cost never
pollutes timings) and run at a named scale.  ``quick`` finishes a full
``python -m repro.bench all`` in minutes on a laptop; ``paper``
approaches the paper's workload shape (more updates, more uniques,
larger k) for overnight runs.  Absolute wall-clock numbers are not
comparable to the paper's Java on 126M CAIDA updates — the *orderings
and ratios* are what the harness is after, plus the hardware-independent
operation counts every table carries.

Streams are cached in both representations: per-item update lists for
the scalar ``update`` loop and materialized ``(items, weights)`` array
batches for ``update_batch``.  Both carry the identical update sequence
(the batch form is the source of truth; the scalar list is its
flattening), so scalar-vs-batch timings measure the ingestion path and
nothing else.
"""

from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.streams.caida import SyntheticPacketTrace
from repro.streams.exact import ExactCounter
from repro.streams.transforms import flatten_batches
from repro.streams.zipf import ZipfianStream
from repro.types import StreamUpdate

#: One ``(items, weights)`` array pair.
Batch = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class BenchConfig:
    """Workload knobs for one experiment scale."""

    num_updates: int
    unique_sources: int
    k_values: tuple[int, ...]
    merge_pairs: int
    merge_updates_per_sketch_factor: int  # updates per sketch = factor * k
    quantiles: tuple[int, ...]  # percent values for the Figure-3 sweep
    seed: int = 2016


SCALES: dict[str, BenchConfig] = {
    "quick": BenchConfig(
        num_updates=30_000,
        unique_sources=6_000,
        k_values=(64, 128, 256, 512),
        merge_pairs=10,
        merge_updates_per_sketch_factor=6,
        quantiles=(0, 2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 98),
    ),
    "medium": BenchConfig(
        num_updates=150_000,
        unique_sources=25_000,
        k_values=(128, 256, 512, 1024),
        merge_pairs=25,
        merge_updates_per_sketch_factor=8,
        quantiles=(0, 2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 98),
    ),
    "paper": BenchConfig(
        num_updates=2_000_000,
        unique_sources=100_000,
        k_values=(1_024, 2_048, 4_096, 8_192, 16_384),
        merge_pairs=50,
        merge_updates_per_sketch_factor=10,
        quantiles=tuple(range(0, 100, 2)),
    ),
}

_STREAM_CACHE: dict[tuple, list[StreamUpdate]] = {}
_BATCH_CACHE: dict[tuple, list[Batch]] = {}
_EXACT_CACHE: dict[tuple, ExactCounter] = {}


def packet_batches(config: BenchConfig) -> list[Batch]:
    """The CAIDA-like trace as array batches (materialized once)."""
    key = ("caida", config.num_updates, config.unique_sources, config.seed)
    if key not in _BATCH_CACHE:
        trace = SyntheticPacketTrace(
            config.num_updates,
            unique_sources=config.unique_sources,
            seed=config.seed,
        )
        _BATCH_CACHE[key] = list(trace.batches())
    return _BATCH_CACHE[key]


def packet_stream(config: BenchConfig) -> list[StreamUpdate]:
    """The CAIDA-like trace for this scale (materialized once)."""
    key = ("caida", config.num_updates, config.unique_sources, config.seed)
    if key not in _STREAM_CACHE:
        _STREAM_CACHE[key] = list(flatten_batches(packet_batches(config)))
    return _STREAM_CACHE[key]


def zipf_weighted_batches(
    num_updates: int, universe: int, alpha: float, seed: int
) -> list[Batch]:
    """The Section 4.5 synthetic stream as array batches."""
    key = ("zipf", num_updates, universe, alpha, seed)
    if key not in _BATCH_CACHE:
        _BATCH_CACHE[key] = list(
            ZipfianStream(
                num_updates,
                universe=universe,
                alpha=alpha,
                seed=seed,
                weight_low=1,
                weight_high=10_000,
            ).batches()
        )
    return _BATCH_CACHE[key]


def zipf_weighted_stream(
    num_updates: int, universe: int, alpha: float, seed: int
) -> list[StreamUpdate]:
    """The Section 4.5 synthetic stream: Zipf items, U[1, 10000] weights."""
    key = ("zipf", num_updates, universe, alpha, seed)
    if key not in _STREAM_CACHE:
        _STREAM_CACHE[key] = list(
            flatten_batches(zipf_weighted_batches(num_updates, universe, alpha, seed))
        )
    return _STREAM_CACHE[key]


def packet_exact(config: BenchConfig) -> ExactCounter:
    """Ground truth for :func:`packet_stream` (computed once)."""
    key = ("caida", config.num_updates, config.unique_sources, config.seed)
    if key not in _EXACT_CACHE:
        exact = ExactCounter()
        exact.update_all(packet_stream(config))
        _EXACT_CACHE[key] = exact
    return _EXACT_CACHE[key]


@contextlib.contextmanager
def gc_isolated() -> Iterator[None]:
    """Disable the cyclic garbage collector around a timed region.

    A GC pass landing inside a timed feed can flake a throughput gate by
    tens of percent at the quick scale, so every timing helper runs its
    measured region with collection off.  The collector's prior state is
    restored on exit (nested isolation, or callers that already disabled
    it, keep their setting), so the isolation never leaks into the rest
    of the process.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def feed_stream(algorithm, updates: Sequence[StreamUpdate]) -> None:
    """Feed every update to ``algorithm`` (bound-method hoisted)."""
    update = algorithm.update
    for item, weight in updates:
        update(item, weight)


def time_feed(algorithm, updates: Sequence[StreamUpdate]) -> float:
    """Wall-clock seconds to feed ``updates`` into ``algorithm``."""
    update = algorithm.update
    with gc_isolated():
        start = time.perf_counter()
        for item, weight in updates:
            update(item, weight)
        return time.perf_counter() - start


def feed_batches(algorithm, batches: Iterable[Batch]) -> None:
    """Feed every array batch to ``algorithm.update_batch``."""
    update_batch = algorithm.update_batch
    for items, weights in batches:
        update_batch(items, weights)


def num_batched_updates(batches: Sequence[Batch]) -> int:
    """Total updates carried by a batch list."""
    return sum(len(items) for items, _weights in batches)


def time_call(function: Callable[[], object]) -> tuple[float, object]:
    """Wall-clock seconds and result of one call."""
    with gc_isolated():
        start = time.perf_counter()
        result = function()
        return time.perf_counter() - start, result
