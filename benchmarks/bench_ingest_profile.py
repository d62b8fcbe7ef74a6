"""Ingest profile: backend × batch size × skew, with the 4x probing gate.

This is the perf trajectory: it regenerates the canonical
``BENCH_ingest.json`` at the repo root (the probing batch throughput
lands in its gates so later changes can diff against it) and enforces
the acceptance bar — probing ``update_batch`` >= 4x its own scalar loop
on the canonical Zipf α = 1.05 weighted workload (10x when the compiled
kernels are active).

Run directly via pytest, or regenerate the JSON without gates through
``python -m repro.bench ingest-profile --quick``.
"""

import json
import pathlib

import pytest

from repro.bench.figures import ingest_profile_table

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_ingest.json"


def test_ingest_profile(benchmark, config, write_report):
    benchmark.group = "ingest profile"

    def run():
        return ingest_profile_table(config, json_path=str(JSON_PATH))

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    write_report("ingest_profile", table)

    document = json.loads(JSON_PATH.read_text())
    gates = document["gates"]
    # The acceptance bars.  Measured on one core of a shared CI runner:
    # with the NumPy paths probing lands ~8-15x, so 4x leaves generous
    # noise margin.  With the compiled kernels active it lands ~30-50x;
    # gate it at 10x (the native acceptance bar) so a silently broken
    # dispatch — falling back to NumPy while claiming native — fails
    # loudly.
    from repro import native

    hash_backend_bar = 10.0 if native.enabled() else 4.0
    assert document["metadata"]["ingest_path"] == (
        "native" if native.enabled() else "numpy"
    ), document["metadata"]
    assert gates["probing_batch_speedup_alpha1.05"] >= hash_backend_bar, gates
    # The dict backend is scalar-bound (its point ops are already C-coded
    # dict probes), so batching can't approach the probing table's ratio
    # — but the inlined batch loop must clearly beat per-update dispatch.
    assert gates["dict_batch_speedup_alpha1.05"] >= 1.75, gates
    # Adaptive growth may trail fixed (it pays rehashes early, and its
    # staged prefix runs the NumPy path until the table reaches final
    # length — only then does dispatch flip to the compiled kernels, so
    # the native bar is looser) but must stay in the same league.
    adaptive_bar = 0.35 if native.enabled() else 0.5
    for row in document["rows"]:
        if row["alpha"] == 1.05 and row["batch"] == max(
            r["batch"] for r in document["rows"]
        ):
            assert (
                row["adaptive_per_sec"] >= adaptive_bar * row["batch_per_sec"]
            ), row


@pytest.mark.parametrize("backend", ["probing"])
def test_hash_backend_batch_beats_scalar(benchmark, config, backend):
    """Per-backend pytest-benchmark timing rows (no extra gate here; the
    table test above asserts the ratios from one coherent run)."""
    from repro.bench.harness import (
        feed_batches,
        zipf_weighted_batches,
        zipf_weighted_stream,
    )
    from repro.core.frequent_items import FrequentItemsSketch

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
