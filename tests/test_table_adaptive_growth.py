"""Adaptive (doubling) table growth: identical answers, smaller tables.

The paper's implementation note — the hash map "initially contains 2^5
slots and doubles in size when full" — is reproduced by
``growth="adaptive"``.  The contract these tests pin down:

* decrement passes begin only once the table holds ``k`` counters, so an
  adaptive sketch is *bit-identical in query results* to a fixed one —
  including every PRNG-driven decrement decision, because the probing
  layouts themselves converge bit-for-bit once the arrays reach their
  final length (growth rehashes replay the original insertion order);
* serialized bytes differ from the fixed mode only in the backend flag
  byte, and the adaptive flag round-trips through ``to_bytes`` /
  ``from_bytes``;
* early-stream space is genuinely smaller (that is the point);
* every existing default-mode golden stays untouched (``growth`` is
  opt-in).
"""

import numpy as np
import pytest

from repro.core.frequent_items import FrequentItemsSketch
from repro.errors import InvalidParameterError, TableFullError
from repro.sharded.sketch import ShardedFrequentItemsSketch
from repro.streams.zipf import ZipfianStream
from repro.table import (
    ADAPTIVE_INITIAL_CAPACITY,
    BACKEND_NAMES,
    make_store,
)
from repro.table.probing import LinearProbingTable

ADAPTIVE_FLAG = 0x80
BACKEND_BYTE = 8  # offset of the backend code in the flat wire format


def _zipf(n=6_000, seed=9):
    return list(
        ZipfianStream(
            n, universe=2_000, alpha=1.05, seed=seed, weight_low=1, weight_high=100
        )
    )


# -- store level ------------------------------------------------------------


@pytest.mark.parametrize("cls", [LinearProbingTable])
def test_probing_layout_converges_to_fixed(cls):
    """Once grown to the final length, the physical layout is the one the
    fixed-capacity table built from the same operations."""
    rng = np.random.default_rng(3)
    for trial in range(10):
        capacity = int(rng.integers(20, 150))
        fixed = cls(capacity, hash_seed=trial)
        adaptive = cls(capacity, hash_seed=trial, initial_capacity=4)
        keys = rng.choice(100_000, size=capacity, replace=False).astype(np.uint64)
        for index, key in enumerate(keys.tolist()):
            fixed.insert(key, float(index + 1))
            adaptive.insert(key, float(index + 1))
            fixed.add_to(key, 0.25)
            adaptive.add_to(key, 0.25)
        assert adaptive.length == fixed.length
        assert adaptive._keys.tolist() == fixed._keys.tolist()
        assert adaptive._states.tolist() == fixed._states.tolist()
        assert adaptive._values.tolist() == fixed._values.tolist()


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_adaptive_store_starts_small_and_reaches_capacity(backend):
    store = make_store(backend, 1024, seed=1, growth="adaptive")
    fixed = make_store(backend, 1024, seed=1)
    if backend != "dict":  # the builtin dict always grows natively
        assert store.space_bytes() < fixed.space_bytes()
    for key in range(1024):
        store.insert(key, 1.0)
    assert len(store) == 1024
    with pytest.raises(TableFullError):
        store.insert(5000, 1.0)
    assert {key for key, _value in store.items()} == set(range(1024))


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_adaptive_insert_many_grows_through_stages(backend):
    store = make_store(backend, 600, seed=2, growth="adaptive")
    keys = np.arange(600, dtype=np.uint64)
    values = np.arange(1, 601, dtype=np.float64)
    store.insert_many(keys, values)
    assert len(store) == 600
    got = store.get_many(np.array([0, 599, 1000], dtype=np.uint64))
    assert got[0] == 1.0 and got[1] == 600.0 and np.isnan(got[2])


def test_purge_while_growing_keeps_log_consistent():
    table = LinearProbingTable(200, hash_seed=5, initial_capacity=4)
    for key in range(30):
        table.insert(key, float(key))  # key 0 is non-positive already
    freed = table.decrement_and_purge(10.0)
    assert freed == 11
    # Growth after a purge must only replay surviving keys.
    for key in range(1000, 1100):
        table.insert(key, 1.0)
    assert len(table) == 30 - 11 + 100
    for key in range(11, 30):
        assert table.get(key) == float(key) - 10.0


def test_initial_capacity_validation():
    with pytest.raises(InvalidParameterError):
        LinearProbingTable(10, initial_capacity=0)
    with pytest.raises(ValueError):
        make_store("probing", 10, growth="bogus")
    with pytest.raises(InvalidParameterError):
        FrequentItemsSketch(8, growth="bogus")


# -- sketch level -----------------------------------------------------------


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_adaptive_sketch_bit_identical_to_fixed(backend):
    """Same stream, same seed: counters, offsets, stream weight, and the
    serialized records must match the fixed mode exactly — only the
    backend flag byte may differ."""
    updates = _zipf()
    fixed = FrequentItemsSketch(64, backend=backend, seed=7)
    adaptive = FrequentItemsSketch(64, backend=backend, seed=7, growth="adaptive")
    for item, weight in updates:
        fixed.update(item, weight)
        adaptive.update(item, weight)
    assert fixed.stats.decrements > 10  # the PRNG-driven regime
    fixed_blob = fixed.to_bytes()
    adaptive_blob = adaptive.to_bytes()
    assert adaptive_blob[BACKEND_BYTE] == fixed_blob[BACKEND_BYTE] | ADAPTIVE_FLAG
    assert adaptive_blob[:BACKEND_BYTE] == fixed_blob[:BACKEND_BYTE]
    assert adaptive_blob[BACKEND_BYTE + 1 :] == fixed_blob[BACKEND_BYTE + 1 :]


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_adaptive_batch_equals_adaptive_scalar(backend):
    updates = _zipf(4_000, seed=13)
    scalar = FrequentItemsSketch(48, backend=backend, seed=3, growth="adaptive")
    for item, weight in updates:
        scalar.update(item, weight)
    batched = FrequentItemsSketch(48, backend=backend, seed=3, growth="adaptive")
    items = np.array([item for item, _w in updates], dtype=np.uint64)
    weights = np.array([w for _item, w in updates], dtype=np.float64)
    for start in range(0, len(items), 512):
        batched.update_batch(items[start : start + 512], weights[start : start + 512])
    assert scalar.to_bytes() == batched.to_bytes()


def test_no_decrements_before_table_reaches_k():
    sketch = FrequentItemsSketch(256, backend="probing", seed=1, growth="adaptive")
    for item in range(255):
        sketch.update(item, 1.0)
    assert sketch.stats.decrements == 0
    assert sketch.maximum_error == 0.0
    sketch.update(255, 1.0)
    sketch.update(256, 1.0)  # table full now: this one must decrement
    assert sketch.stats.decrements == 1


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_adaptive_round_trip(backend):
    updates = _zipf(3_000, seed=21)
    sketch = FrequentItemsSketch(32, backend=backend, seed=11, growth="adaptive")
    for item, weight in updates:
        sketch.update(item, weight)
    restored = FrequentItemsSketch.from_bytes(sketch.to_bytes())
    assert restored.growth == "adaptive"
    assert restored.max_counters == sketch.max_counters
    assert restored.maximum_error == sketch.maximum_error
    assert restored.stream_weight == sketch.stream_weight
    assert dict(restored._store.items()) == dict(sketch._store.items())
    # A second round trip is byte-stable, and the sketch stays operational.
    again = FrequentItemsSketch.from_bytes(restored.to_bytes())
    assert again.to_bytes() == restored.to_bytes()
    restored.update(999_999, 5.0)
    assert restored.estimate(999_999) >= 5.0


def test_adaptive_space_is_smaller_early():
    fixed = FrequentItemsSketch(4096, backend="probing", seed=0)
    adaptive = FrequentItemsSketch(4096, backend="probing", seed=0, growth="adaptive")
    for item in range(ADAPTIVE_INITIAL_CAPACITY):
        fixed.update(item)
        adaptive.update(item)
    assert adaptive.space_bytes() < fixed.space_bytes() / 16


def test_sharded_adaptive_round_trip():
    sketch = ShardedFrequentItemsSketch(32, num_shards=2, seed=3, growth="adaptive")
    items = (np.arange(500, dtype=np.uint64) * 7) % 91
    sketch.update_batch(items, np.ones(500))
    assert sketch.growth == "adaptive"
    restored = ShardedFrequentItemsSketch.from_bytes(sketch.to_bytes())
    assert restored.growth == "adaptive"
    assert restored.estimate(0) == sketch.estimate(0)
    wider = sketch.reshard(4)
    assert wider.growth == "adaptive"
