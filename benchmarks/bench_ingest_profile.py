"""Ingest profile: backend × batch size × skew, with the batch-ingest gates.

For every backend and Zipf skew the same update sequence is fed three
ways — the scalar ``update`` loop, ``update_batch`` at each batch size,
and ``update_batch`` on an adaptive-growth sketch.  Every batched run
must end byte-identical to the scalar loop (per backend, per α, per
batch size), so the ratios measure packaging, not semantics.  Both
sides of every ratio are timed in this process with the cyclic GC off
(``gc_isolated``), so they are comparable; no figure from another run
or host enters a gate.

The gates, on the canonical Zipf α = 1.05 weighted workload:

* probing ``update_batch`` >= 10x its own scalar loop with the compiled
  kernels, >= 4x on the NumPy fallback;
* dict ``update_batch`` >= 1.75x its scalar loop;
* adaptive growth >= 0.35x (native) / 0.5x (NumPy) of fixed growth at
  the largest batch size.
"""

import os
from functools import partial

import numpy as np
import pytest

from repro import native
from repro.bench.harness import (
    feed_batches,
    time_call,
    time_feed,
    zipf_weighted_batches,
    zipf_weighted_stream,
)
from repro.bench.report import ResultTable
from repro.core.frequent_items import FrequentItemsSketch

BATCH_SIZES = (1_024, 4_096, 16_384)
ALPHAS = (0.8, 1.05, 1.3)
BACKENDS = ("probing", "dict")


def _slices(items, weights, size):
    return [
        (items[lo : lo + size], weights[lo : lo + size])
        for lo in range(0, len(items), size)
    ]


def ingest_profile(config) -> ResultTable:
    """Time scalar, batched and adaptive ingest for every profile cell."""
    k = config.k_values[-1]
    # Warm-up pulls NumPy's lazily imported submodules out of timed code.
    warm_items, warm_weights = zipf_weighted_batches(
        config.num_updates, config.unique_sources, 1.05, config.seed
    )[0]
    FrequentItemsSketch(max(2, k // 8), seed=0).update_batch(
        warm_items[:256], warm_weights[:256]
    )
    table = ResultTable(
        f"Ingest profile: backend x batch size x skew (k={k})",
        [
            "backend", "alpha", "batch", "scalar_per_sec", "batch_per_sec",
            "batch_speedup", "adaptive_per_sec",
        ],
    )
    for alpha in ALPHAS:
        stream = zipf_weighted_stream(
            config.num_updates, config.unique_sources, alpha, config.seed
        )
        source = zipf_weighted_batches(
            config.num_updates, config.unique_sources, alpha, config.seed
        )
        items = np.concatenate([batch_items for batch_items, _w in source])
        weights = np.concatenate([batch_weights for _i, batch_weights in source])
        n = len(stream)
        for backend in BACKENDS:
            scalar = FrequentItemsSketch(k, backend=backend, seed=config.seed)
            scalar_seconds = time_feed(scalar, stream)
            scalar_blob = scalar.to_bytes()
            for size in BATCH_SIZES:
                batches = _slices(items, weights, size)
                batched = FrequentItemsSketch(k, backend=backend, seed=config.seed)
                batch_seconds, _ = time_call(partial(feed_batches, batched, batches))
                assert batched.to_bytes() == scalar_blob, (
                    f"scalar/batch divergence: backend={backend}, "
                    f"alpha={alpha}, batch={size}"
                )
                adaptive = FrequentItemsSketch(
                    k, backend=backend, seed=config.seed, growth="adaptive"
                )
                adaptive_seconds, _ = time_call(
                    partial(feed_batches, adaptive, batches)
                )
                table.add_row(
                    backend=backend,
                    alpha=alpha,
                    batch=size,
                    scalar_per_sec=n / scalar_seconds,
                    batch_per_sec=n / batch_seconds,
                    batch_speedup=scalar_seconds / batch_seconds,
                    adaptive_per_sec=n / adaptive_seconds,
                )
    return table


def test_ingest_profile(benchmark, config, write_report):
    benchmark.group = "ingest profile"
    table = benchmark.pedantic(
        lambda: ingest_profile(config), rounds=1, iterations=1
    )
    write_report("ingest_profile", table)
    benchmark.extra_info.update(native.runtime_metadata())

    # A built extension must actually be dispatched unless REPRO_NATIVE=0
    # turns it off: the bars below depend on which path ran.
    assert native.enabled() == (
        native.available() and os.environ.get("REPRO_NATIVE", "1") != "0"
    ), native.runtime_metadata()
    canonical = [row for row in table.rows if row["alpha"] == 1.05]

    def best_speedup(backend: str) -> float:
        return max(
            row["batch_speedup"] for row in canonical if row["backend"] == backend
        )

    # Measured on one core of a shared CI runner: with the NumPy paths
    # probing lands ~8-15x, so 4x leaves generous noise margin.  With the
    # compiled kernels it lands ~30-50x; gate it at 10x so a silently
    # broken dispatch — falling back to NumPy while claiming native —
    # fails loudly.
    probing_bar = 10.0 if native.enabled() else 4.0
    assert best_speedup("probing") >= probing_bar, canonical
    # The dict backend is scalar-bound (its point ops are already C-coded
    # dict probes), so batching can't approach the probing table's ratio
    # — but the inlined batch loop must clearly beat per-update dispatch.
    assert best_speedup("dict") >= 1.75, canonical
    # Adaptive growth may trail fixed (it pays rehashes early, and its
    # staged prefix runs the NumPy path until the table reaches final
    # length — only then does dispatch flip to the compiled kernels, so
    # the native bar is looser) but must stay in the same league.
    adaptive_bar = 0.35 if native.enabled() else 0.5
    for row in canonical:
        if row["batch"] == max(BATCH_SIZES):
            assert row["adaptive_per_sec"] >= adaptive_bar * row["batch_per_sec"], row


@pytest.mark.parametrize("backend", ["probing"])
def test_hash_backend_batch_beats_scalar(benchmark, config, backend):
    """Per-backend pytest-benchmark timing rows (no extra gate here; the
    profile test above asserts the ratios from one coherent run)."""
    batches = zipf_weighted_batches(
        config.num_updates, config.unique_sources, 1.05, config.seed
    )
    stream = zipf_weighted_stream(
        config.num_updates, config.unique_sources, 1.05, config.seed
    )
    k = config.k_values[-1]
    benchmark.group = f"hash-backend batch ingest, k={k}"
    benchmark.extra_info["backend"] = backend

    def run():
        sketch = FrequentItemsSketch(k, backend=backend, seed=config.seed)
        feed_batches(sketch, batches)
        return sketch

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.stats.updates == len(stream)
