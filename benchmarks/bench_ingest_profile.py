"""Ingest profile: backend × batch size × skew, with the batch-ingest gates.

For every backend and Zipf skew the same update sequence is fed three
ways — the scalar ``update`` loop, ``update_batch`` at each batch size,
and ``update_batch`` on an adaptive-growth sketch.  Every batched run
must end byte-identical to the scalar loop (per backend, per α, per
batch size, per repeat), so the ratios measure packaging, not
semantics.  Both sides of every ratio are timed in this process with
the cyclic GC off (``gc_isolated``), so they are comparable; no figure
from another run or host enters a gate.

Each cell is timed ``REPEATS`` times.  A ratio is taken within one
repeat, where its two sides ran back to back, and the table and the
gates use the median over repeats, so one shot slowed by host steal
time cannot decide a verdict.  The gates, on the canonical Zipf
α = 1.05 weighted workload:

* probing ``update_batch`` >= 10x its own scalar loop with the compiled
  kernels, >= 4x on the NumPy fallback;
* dict ``update_batch`` >= 1.75x its scalar loop;
* adaptive growth >= 0.35x (native) / 0.5x (NumPy) of fixed growth at
  the largest batch size.
"""

import os
import statistics
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
REPEATS = 5


def _slices(items, weights, size):
    return [
        (items[lo : lo + size], weights[lo : lo + size])
        for lo in range(0, len(items), size)
    ]


def ingest_profile(config) -> tuple[ResultTable, dict]:
    """Time scalar, batched and adaptive ingest for every profile cell.

    Returns the table of per-cell medians and the raw per-repeat ratio
    samples, keyed ``"<backend>/<alpha>/<batch>"``.
    """
    k = config.k_values[-1]
    # Warm-up pulls NumPy's lazily imported submodules out of timed code.
    warm_items, warm_weights = zipf_weighted_batches(
        config.num_updates, config.unique_sources, 1.05, config.seed
    )[0]
    FrequentItemsSketch(max(2, k // 8), seed=0).update_batch(
        warm_items[:256], warm_weights[:256]
    )
    table = ResultTable(
        f"Ingest profile: backend x batch size x skew (k={k}, "
        f"median of {REPEATS})",
        [
            "backend", "alpha", "batch", "scalar_per_sec", "batch_per_sec",
            "batch_speedup", "adaptive_per_sec", "adaptive_vs_fixed",
        ],
    )
    samples: dict[str, dict[str, list[float]]] = {}
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
            cells = {
                size: {"scalar_s": [], "batch_s": [], "adaptive_s": []}
                for size in BATCH_SIZES
            }
            for _repeat in range(REPEATS):
                scalar = FrequentItemsSketch(k, backend=backend, seed=config.seed)
                scalar_seconds = time_feed(scalar, stream)
                scalar_blob = scalar.to_bytes()
                for size in BATCH_SIZES:
                    batches = _slices(items, weights, size)
                    batched = FrequentItemsSketch(
                        k, backend=backend, seed=config.seed
                    )
                    batch_seconds, _ = time_call(
                        partial(feed_batches, batched, batches)
                    )
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
                    cell = cells[size]
                    cell["scalar_s"].append(scalar_seconds)
                    cell["batch_s"].append(batch_seconds)
                    cell["adaptive_s"].append(adaptive_seconds)
            for size, cell in cells.items():
                speedups = [
                    scalar_s / batch_s
                    for scalar_s, batch_s in zip(cell["scalar_s"], cell["batch_s"])
                ]
                adaptive_ratios = [
                    batch_s / adaptive_s
                    for batch_s, adaptive_s in zip(
                        cell["batch_s"], cell["adaptive_s"]
                    )
                ]
                samples[f"{backend}/{alpha}/{size}"] = {
                    "batch_speedup": speedups,
                    "adaptive_vs_fixed": adaptive_ratios,
                }
                table.add_row(
                    backend=backend,
                    alpha=alpha,
                    batch=size,
                    scalar_per_sec=n / statistics.median(cell["scalar_s"]),
                    batch_per_sec=n / statistics.median(cell["batch_s"]),
                    batch_speedup=statistics.median(speedups),
                    adaptive_per_sec=n / statistics.median(cell["adaptive_s"]),
                    adaptive_vs_fixed=statistics.median(adaptive_ratios),
                )
    return table, samples


def test_ingest_profile(benchmark, config, write_report):
    benchmark.group = "ingest profile"
    table, samples = benchmark.pedantic(
        lambda: ingest_profile(config), rounds=1, iterations=1
    )
    write_report("ingest_profile", table)
    benchmark.extra_info.update(native.runtime_metadata())
    benchmark.extra_info["repeats"] = REPEATS
    benchmark.extra_info["samples"] = samples

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

    # With the NumPy paths probing lands at 4.5-5.4x (medians of 5, ten
    # runs on a 2-vCPU VM), near the 4x bar, which is why the gate reads
    # a median.  With the compiled kernels it lands ~30-50x; gate it at
    # 10x so a silently broken dispatch — falling back to NumPy while
    # claiming native — fails loudly.
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
            assert row["adaptive_vs_fixed"] >= adaptive_bar, row


@pytest.mark.parametrize("backend", ["probing"])
def test_hash_backend_batch_beats_scalar(benchmark, config, backend):
    """Per-backend pytest-benchmark timing rows (no extra gate here; the
    profile test above asserts the median ratios of its repeats)."""
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
