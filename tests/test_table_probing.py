"""LinearProbingTable: unit tests plus a hypothesis stateful model check.

The closing section holds CounterStore contract cases, some run on every
live backend.

The stateful test drives the table and a plain dict through the same
operation sequences — insert, add_to, get, decrement-and-purge — and
asserts the contents match after every step.  This is the strongest
guard on the backward-shift deletion logic of Section 2.3.3.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import InvalidParameterError, TableFullError
from repro.prng import Xoroshiro128PlusPlus
from repro.table import BACKEND_NAMES, make_store
from repro.table.accounting import (
    next_power_of_two,
    probing_table_bytes,
    table_length,
)
from repro.table.probing import LinearProbingTable


def test_length_is_power_of_two_and_load_bounded():
    for capacity in (1, 2, 3, 5, 64, 100, 1000):
        table = LinearProbingTable(capacity)
        assert table.length & (table.length - 1) == 0
        assert capacity / table.length <= 0.75


def test_paper_length_formula():
    # k = 3 * 2^m makes 4k/3 an exact power of two (paper Section 2.3.3).
    assert table_length(3 * 1024) == 4096
    assert table_length(24_576) == 32_768
    assert next_power_of_two(1) == 1
    assert next_power_of_two(5) == 8


def test_space_model_24k_bytes():
    # 18 bytes/slot * 4k/3 slots = 24k bytes (+ header), for aligned k.
    k = 24_576
    assert probing_table_bytes(k) == 24 * k + 64


def test_insert_get_roundtrip():
    table = LinearProbingTable(16, hash_seed=1)
    table.insert(42, 7.0)
    assert table.get(42) == 7.0
    assert table.get(43) is None
    assert 42 in table
    assert 43 not in table
    assert len(table) == 1


def test_key_zero_is_a_valid_key():
    table = LinearProbingTable(4)
    table.insert(0, 3.0)
    assert table.get(0) == 3.0
    assert len(table) == 1


def test_add_to_only_hits():
    table = LinearProbingTable(8)
    assert table.add_to(5, 1.0) is False
    table.insert(5, 1.0)
    assert table.add_to(5, 2.5) is True
    assert table.get(5) == 3.5


def test_insert_duplicate_rejected():
    table = LinearProbingTable(8)
    table.insert(5, 1.0)
    with pytest.raises(InvalidParameterError):
        table.insert(5, 2.0)


def test_table_full_error():
    table = LinearProbingTable(3)
    for key in range(3):
        table.insert(key, 1.0)
    with pytest.raises(TableFullError):
        table.insert(99, 1.0)


def test_put_inserts_and_overwrites():
    table = LinearProbingTable(4)
    table.put(1, 5.0)
    table.put(1, 9.0)
    assert table.get(1) == 9.0
    assert len(table) == 1


def test_adjust_and_purge():
    table = LinearProbingTable(8, hash_seed=3)
    for key, value in [(1, 5.0), (2, 2.0), (3, 9.0), (4, 2.0)]:
        table.insert(key, value)
    freed = table.decrement_and_purge(2.0)
    assert freed == 2
    assert table.get(1) == 3.0
    assert table.get(2) is None
    assert table.get(3) == 7.0
    assert table.get(4) is None
    assert len(table) == 2


def test_purge_everything():
    table = LinearProbingTable(8)
    for key in range(6):
        table.insert(key, 1.0)
    assert table.decrement_and_purge(1.0) == 6
    assert len(table) == 0
    assert all(table.get(key) is None for key in range(6))


def test_values_list_and_items():
    table = LinearProbingTable(8)
    data = {10: 1.0, 20: 2.0, 30: 3.0}
    for key, value in data.items():
        table.insert(key, value)
    assert sorted(table.values_list()) == [1.0, 2.0, 3.0]
    assert dict(table.items()) == data


def test_sample_values_from_live_counters():
    table = LinearProbingTable(16, hash_seed=2)
    for key in range(10):
        table.insert(key, float(key + 1))
    rng = Xoroshiro128PlusPlus(7)
    sample = table.sample_values(200, rng)
    assert len(sample) == 200
    assert set(sample) <= set(float(x + 1) for x in range(10))
    # With 200 draws over 10 values, each should appear at least once.
    assert len(set(sample)) == 10


def test_sample_from_empty_rejected():
    table = LinearProbingTable(4)
    with pytest.raises(InvalidParameterError):
        table.sample_values(1, Xoroshiro128PlusPlus(0))


def test_clear():
    table = LinearProbingTable(8)
    for key in range(5):
        table.insert(key, 1.0)
    table.clear()
    assert len(table) == 0
    assert table.get(0) is None
    table.insert(0, 2.0)  # usable after clear
    assert table.get(0) == 2.0


def test_probe_count_increases():
    table = LinearProbingTable(64, hash_seed=5)
    before = table.probe_count
    for key in range(48):
        table.insert(key, 1.0)
    for key in range(48):
        table.get(key)
    assert table.probe_count > before


def test_max_state_small_at_working_load():
    """Section 2.3.3: probe distances stay tiny at load 3/4."""
    table = LinearProbingTable(768, hash_seed=11)
    for key in range(768):
        table.insert(key, 1.0)
    assert table.max_state() < 64


def test_wraparound_runs():
    """Force collisions around the end of the array via tiny tables."""
    for seed in range(20):
        table = LinearProbingTable(3, hash_seed=seed)  # length 4
        table.insert(1, 1.0)
        table.insert(2, 2.0)
        table.insert(3, 3.0)
        assert (table.get(1), table.get(2), table.get(3)) == (1.0, 2.0, 3.0)
        table.adjust_all(-1.5)
        table.purge_nonpositive()
        assert table.get(1) is None
        assert table.get(2) == 0.5
        assert table.get(3) == 1.5


class TableVsDictMachine(RuleBasedStateMachine):
    """Drive the probing table and a dict through identical operations."""

    def __init__(self):
        super().__init__()
        self.capacity = 24
        self.table = LinearProbingTable(self.capacity, hash_seed=99)
        self.model: dict[int, float] = {}

    keys = st.integers(min_value=0, max_value=60)
    amounts = st.floats(min_value=0.1, max_value=50.0, allow_nan=False)

    @rule(key=keys, value=amounts)
    def insert_or_bump(self, key, value):
        if key in self.model:
            self.table.add_to(key, value)
            self.model[key] += value
        elif len(self.model) < self.capacity:
            self.table.insert(key, value)
            self.model[key] = value

    @rule(key=keys)
    def lookup(self, key):
        got = self.table.get(key)
        expected = self.model.get(key)
        if expected is None:
            assert got is None
        else:
            assert got is not None and abs(got - expected) < 1e-9

    @rule(amount=amounts)
    def decrement_and_purge(self, amount):
        freed = self.table.decrement_and_purge(amount)
        survivors = {}
        dropped = 0
        for key, value in self.model.items():
            remaining = value - amount
            if remaining > 0:
                survivors[key] = remaining
            else:
                dropped += 1
        self.model = survivors
        assert freed == dropped

    @invariant()
    def contents_match(self):
        assert len(self.table) == len(self.model)
        got = dict(self.table.items())
        assert set(got) == set(self.model)
        for key, value in self.model.items():
            assert abs(got[key] - value) < 1e-9


TestTableVsDict = TableVsDictMachine.TestCase
TestTableVsDict.settings = settings(max_examples=60, stateful_step_count=60, deadline=None)


# -- vectorized batch operations --------------------------------------------
# get_many/add_many/insert_many are gather/scatter probe walks; they must
# visit the same slots as the scalar loops — same layout, same values,
# and (for lookups) the same probe_count, slot for slot.


def _table_pair(cls, capacity, seed, keys, values):
    vectorized = cls(capacity, hash_seed=seed)
    scalar = cls(capacity, hash_seed=seed)
    vectorized.insert_many(keys, values)
    for key, value in zip(keys.tolist(), values.tolist()):
        scalar.insert(key, value)
    return vectorized, scalar


def test_vectorized_ops_match_scalar_probing():
    import numpy as np

    rng = np.random.default_rng(11)
    for trial in range(25):
        capacity = int(rng.integers(2, 64))
        keys = rng.choice(500, size=capacity, replace=False).astype(np.uint64)
        values = rng.uniform(1.0, 9.0, size=capacity)
        vectorized, scalar = _table_pair(
            LinearProbingTable, capacity, trial, keys, values
        )
        assert vectorized._keys.tolist() == scalar._keys.tolist()
        assert vectorized._states.tolist() == scalar._states.tolist()
        assert vectorized._values.tolist() == scalar._values.tolist()
        assert vectorized.probe_count == scalar.probe_count

        queries = rng.integers(0, 600, size=80).astype(np.uint64)
        before_vec = vectorized.probe_count
        got = vectorized.get_many(queries)
        probes_vec = vectorized.probe_count - before_vec
        before_ref = scalar.probe_count
        for index, key in enumerate(queries.tolist()):
            expected = scalar.get(key)
            if expected is None:
                assert got[index] != got[index]  # NaN
            else:
                assert got[index] == expected
        assert probes_vec == scalar.probe_count - before_ref

        present = keys[: min(8, capacity)]
        deltas = rng.uniform(0.5, 2.0, size=len(present))
        vectorized.add_many(present, deltas)
        for key, delta in zip(present.tolist(), deltas.tolist()):
            assert scalar.add_to(key, delta)
        assert vectorized._values.tolist() == scalar._values.tolist()

        amount = float(np.median(values))
        assert vectorized.decrement_and_purge(amount) == scalar.decrement_and_purge(
            amount
        )
        assert vectorized._keys.tolist() == scalar._keys.tolist()
        assert vectorized._states.tolist() == scalar._states.tolist()


def test_add_many_missing_key_raises():
    import numpy as np

    table = LinearProbingTable(8, hash_seed=1)
    table.insert(1, 1.0)
    with pytest.raises(InvalidParameterError):
        table.add_many(np.array([1, 99], dtype=np.uint64), np.ones(2))


def test_insert_many_overflow_raises_before_mutation():
    import numpy as np

    table = LinearProbingTable(3, hash_seed=1)
    table.insert(1, 1.0)
    with pytest.raises(TableFullError):
        table.insert_many(np.arange(10, 13, dtype=np.uint64), np.ones(3))
    assert len(table) == 1


# -- CounterStore contract cases --------------------------------------------


def test_batch_operation_errors():
    """Duplicate and missing keys raise, and a failed bulk call leaves
    the table unchanged (the dict store's per-key fallbacks promise only
    the raise)."""
    import numpy as np

    store = LinearProbingTable(8, hash_seed=2)
    store.insert_many(np.array([1, 2], dtype=np.uint64), np.array([1.0, 2.0]))
    with pytest.raises(InvalidParameterError):
        store.add_many(np.array([1, 3], dtype=np.uint64), np.array([1.0, 1.0]))
    with pytest.raises(InvalidParameterError):
        store.insert_many(np.array([7, 2], dtype=np.uint64), np.array([1.0, 1.0]))
    with pytest.raises(InvalidParameterError):
        store.insert_many(np.array([5, 5], dtype=np.uint64), np.array([1.0, 1.0]))
    assert dict(store.items()) == {1: 1.0, 2: 2.0}
    store.insert_many(np.array([], dtype=np.uint64), np.array([]))  # no-op
    assert len(store) == 2


def test_insert_many_duplicate_detected():
    """A bulk insert that repeats a key already in the table raises."""
    import numpy as np

    table = LinearProbingTable(8, hash_seed=2)
    table.insert(5, 1.0)
    with pytest.raises(InvalidParameterError):
        table.insert_many(np.array([7, 5], dtype=np.uint64), np.ones(2))
    assert dict(table.items()) == {5: 1.0}


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_64bit_keys_round_trip(backend):
    store = make_store(backend, 4)
    big = (1 << 64) - 1
    store.insert(big, 7.0)
    store.insert(0, 1.0)
    assert store.get(big) == 7.0
    assert dict(store.items()) == {0: 1.0, big: 7.0}


def test_sketch_logical_parity_across_backends():
    """The same stream through every backend yields identical summaries
    (ell >= k, so no sampling divergence)."""
    from repro.core.frequent_items import FrequentItemsSketch

    stream = [(index % 53, float(index % 7 + 1)) for index in range(4_000)]
    sketches = {
        backend: FrequentItemsSketch(24, backend=backend, seed=11)
        for backend in BACKEND_NAMES
    }
    for item, weight in stream:
        for sketch in sketches.values():
            sketch.update(item, weight)
    reference = sketches["dict"]
    for backend, sketch in sketches.items():
        assert sketch.maximum_error == reference.maximum_error, backend
        for item in range(53):
            assert sketch.estimate(item) == reference.estimate(item), (backend, item)
