"""Batched ingestion engine: scalar vs batch updates/sec per backend.

Per-backend pytest-benchmark timings for the two ingestion paths.

Expected shape: the probing table's batch path beats its own scalar
loop by a wide margin (the whole loop runs in the compiled kernel when
it is built), while the CPython dict is so fast per probe that packaging
matters least there.  No ratio is asserted here: the batch bars, and the
scalar/batch byte-identity check per backend, live in
``bench_ingest_profile.py``.
"""

import pytest

from repro.bench.harness import (
    feed_batches,
    feed_stream,
    num_batched_updates,
    zipf_weighted_batches,
    zipf_weighted_stream,
)
from repro.core.frequent_items import FrequentItemsSketch

BACKENDS = ("probing", "dict")


def _workload(config):
    batches = zipf_weighted_batches(
        config.num_updates, config.unique_sources, 1.05, config.seed
    )
    stream = zipf_weighted_stream(
        config.num_updates, config.unique_sources, 1.05, config.seed
    )
    return batches, stream, config.k_values[-1]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", ["scalar", "batch"])
def test_ingest_throughput(benchmark, config, backend, mode):
    batches, stream, k = _workload(config)
    benchmark.group = f"batch ingestion, k={k}"
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["updates"] = num_batched_updates(batches)

    def run():
        sketch = FrequentItemsSketch(k, backend=backend, seed=config.seed)
        if mode == "scalar":
            feed_stream(sketch, stream)
        else:
            feed_batches(sketch, batches)
        return sketch

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.stats.updates == len(stream)
