"""``estimate_batch`` matches scalar ``estimate`` element-wise, everywhere.

Property tests drive random weighted streams into every store backend
(and the sharded sketch) and assert the vectorized batch estimate equals
the scalar method exactly — including for absent and repeated query
keys, and after enough overflow that the offset is nonzero.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frequent_items import FrequentItemsSketch
from repro.errors import InvalidUpdateError
from repro.extensions.decayed import DecayedFrequentItemsSketch
from repro.extensions.windowed import SlidingWindowHeavyHitters
from repro.sharded.sketch import ShardedFrequentItemsSketch
from repro.streams.zipf import ZipfianStream

BACKENDS = ("dict", "probing")

updates_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40),
              st.integers(min_value=1, max_value=50)),
    min_size=1,
    max_size=300,
)
queries_strategy = st.lists(
    st.integers(min_value=0, max_value=60), min_size=1, max_size=50
)


@pytest.mark.parametrize("backend", BACKENDS)
@given(updates=updates_strategy, queries=queries_strategy)
@settings(max_examples=25, deadline=None)
def test_estimate_batch_matches_scalar(backend, updates, queries):
    # k=8 so streams routinely overflow and the offset becomes nonzero.
    sketch = FrequentItemsSketch(8, backend=backend, seed=13)
    for item, weight in updates:
        sketch.update(item, float(weight))
    batch = sketch.estimate_batch(np.array(queries, dtype=np.uint64))
    scalar = np.array([sketch.estimate(item) for item in queries])
    assert batch.dtype == np.float64
    np.testing.assert_array_equal(batch, scalar)


@given(updates=updates_strategy, queries=queries_strategy)
@settings(max_examples=15, deadline=None)
def test_estimate_batch_matches_scalar_sharded(updates, queries):
    sketch = ShardedFrequentItemsSketch(8, num_shards=3, seed=17)
    for item, weight in updates:
        sketch.update(item, float(weight))
    batch = sketch.estimate_batch(queries)
    scalar = np.array([sketch.estimate(item) for item in queries])
    np.testing.assert_array_equal(batch, scalar)


@pytest.mark.parametrize("backend", BACKENDS)
def test_estimate_batch_on_a_real_workload(backend):
    stream = list(
        ZipfianStream(10_000, universe=1_500, alpha=1.1, seed=29,
                      weight_low=1, weight_high=100)
    )
    sketch = FrequentItemsSketch(64, backend=backend, seed=31)
    for item, weight in stream:
        sketch.update(item, weight)
    queries = np.arange(2_000, dtype=np.uint64)  # universe + absent tail
    batch = sketch.estimate_batch(queries)
    scalar = np.array([sketch.estimate(int(item)) for item in queries])
    np.testing.assert_array_equal(batch, scalar)


def test_estimate_batch_edge_cases():
    sketch = FrequentItemsSketch(16, seed=1)
    sketch.update(5, 2.0)
    # Empty query arrays are fine.
    assert sketch.estimate_batch([]).shape == (0,)
    # Repeated keys each get the same answer.
    np.testing.assert_array_equal(
        sketch.estimate_batch([5, 5, 5]), np.array([2.0, 2.0, 2.0])
    )
    # Shape validation mirrors the ingest paths.
    with pytest.raises(InvalidUpdateError):
        sketch.estimate_batch(np.zeros((2, 2), dtype=np.uint64))


def test_estimate_batch_windowed_and_decayed_consumers():
    """The engine consumers expose the same vectorized query surface."""
    window = SlidingWindowHeavyHitters(32, 2, seed=3)
    decayed = DecayedFrequentItemsSketch(32, half_life=2.0, seed=3)
    for item in range(20):
        window.update(item, float(item + 1))
        decayed.update(item, float(item + 1))
    decayed.tick(2.0)
    queries = list(range(25))
    np.testing.assert_array_equal(
        window.estimate_batch(queries),
        np.array([window.estimate(item) for item in queries]),
    )
    np.testing.assert_array_equal(
        decayed.estimate_batch(queries),
        np.array([decayed.estimate(item) for item in queries]),
    )


def test_dict_estimate_batch_routes_through_get_many(monkeypatch):
    """The dict backend's batch estimates must take the store's bulk
    ``get_many`` probe (one C-level dict hit per key straight into the
    output array), not a per-item Python estimate loop."""
    sketch = FrequentItemsSketch(16, backend="dict", seed=4)
    sketch.update_all([(1, 5.0), (2, 3.0), (3, 1.0)])
    store = sketch._store
    calls = []
    original = store.get_many

    def counting(keys):
        calls.append(len(keys))
        return original(keys)

    monkeypatch.setattr(store, "get_many", counting)
    queries = np.array([1, 2, 99, 1, 3], dtype=np.uint64)
    batch = sketch.estimate_batch(queries)
    assert calls == [5]  # exactly one bulk probe
    expected = np.array([sketch.estimate(int(q)) for q in queries.tolist()])
    np.testing.assert_array_equal(batch, expected)


def test_dict_get_many_fills_array_directly():
    """get_many on the dict store returns float64 with NaN for misses and
    no intermediate Python list (np.fromiter contract: exact count)."""
    sketch = FrequentItemsSketch(16, backend="dict", seed=4)
    sketch.update_all([(7, 2.0), (8, 4.0)])
    out = sketch._store.get_many(np.array([7, 9, 8], dtype=np.uint64))
    assert out.dtype == np.float64
    assert out[0] == 2.0 and np.isnan(out[1]) and out[2] == 4.0
