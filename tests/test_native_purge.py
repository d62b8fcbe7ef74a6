"""White-box tests of the compiled one-pass purge.

``_kernels.purge_nonpositive`` frees every non-positive counter in one
walk over the slots, moving each survivor to the first free slot of its
probe sequence.  Here it runs on raw ``(keys, values, states)`` arrays
built by hand (the state holds the probe distance, so no hashing is
needed) and must leave exactly the layout of the scalar reference: the
ascending ``_remove_at`` backward-shift sweep, run on a table subclass
that keeps the Python path.  Every victim subset of every small layout
is covered, including runs that wrap past the end of the arrays.
"""

import itertools

import numpy as np
import pytest

from repro import native
from repro._native import kernels
from repro.table.probing import LinearProbingTable

pytestmark = [
    pytest.mark.native,
    pytest.mark.skipif(
        not native.available(), reason="native extension not built"
    ),
]


class RawTable(LinearProbingTable):
    """Probing table loaded from raw arrays; a subclass, so it keeps the
    Python paths."""

    def __init__(self, keys, values, states):
        super().__init__(len(states) // 2, hash_seed=0)
        assert self.length == len(states)
        self._keys[:] = keys
        self._values[:] = values
        self._states[:] = states
        self._size = int(np.count_nonzero(self._states))

    def scalar_sweep(self):
        """The canonical purge: slots 0..L-1 ascending, re-examining a
        slot after each removal (a shift may move a counter into it)."""
        before = len(self)
        for slot in range(self.length):
            while self._states[slot] != 0 and self._values[slot] <= 0.0:
                self._remove_at(slot)
        return before - len(self)


def _layout_states(homes, length):
    """States of the FCFS layout produced by inserting keys homed at
    ``homes`` in order."""
    states = [0] * length
    for home in homes:
        slot = home
        while states[slot]:
            slot = (slot + 1) % length
        states[slot] = (slot - home) % length + 1
    return tuple(states)


def _arrays(states, victims):
    """Raw arrays for one layout: the i-th occupied slot holds key 100+i,
    a victim value (alternately 0.0, -1.5 and -0.0) when ``i`` is in
    ``victims``, else a distinct positive value."""
    length = len(states)
    keys = np.zeros(length, dtype=np.uint64)
    values = np.zeros(length, dtype=np.float64)
    doom = (0.0, -1.5, -0.0)
    occupied = [slot for slot in range(length) if states[slot]]
    for i, slot in enumerate(occupied):
        keys[slot] = 100 + i
        values[slot] = doom[i % 3] if i in victims else float(i + 1) * 0.75
    return keys, values, np.array(states, dtype=np.int64)


def _check(states, victims):
    keys, values, state_arr = _arrays(states, victims)
    reference = RawTable(keys, values, state_arr)
    expected_freed = reference.scalar_sweep()
    freed = kernels.purge_nonpositive(keys, values, state_arr)
    live = state_arr != 0
    ref_live = reference._states != 0
    assert freed == expected_freed == len(victims), (states, victims)
    assert state_arr.tolist() == reference._states.tolist(), (states, victims)
    assert keys[live].tolist() == reference._keys[ref_live].tolist()
    assert values[live].tolist() == reference._values[ref_live].tolist()


def _every_subset(states):
    count = sum(1 for state in states if state)
    for size in range(count + 1):
        for victims in itertools.combinations(range(count), size):
            _check(states, set(victims))


def test_every_victim_subset_of_every_small_layout_length_8():
    """Every distinct layout of 1-4 keys in 8 slots (606 layouts, wrapped
    runs included), each with every victim subset."""
    for count in range(1, 5):
        layouts = {
            _layout_states(homes, 8)
            for homes in itertools.product(range(8), repeat=count)
        }
        for states in sorted(layouts):
            _every_subset(states)


def test_every_victim_subset_of_sampled_layouts_length_16():
    """Random insertion orders of 5-8 keys in 16 slots, biased toward a
    few homes near the end so long runs and wrapped runs are common."""
    rng = np.random.default_rng(19)
    homes_pool = [0, 1, 2, 5, 6, 13, 14, 15]
    for _ in range(24):
        count = int(rng.integers(5, 9))
        homes = rng.choice(homes_pool, size=count).tolist()
        _every_subset(_layout_states(homes, 16))


def test_dense_layouts_length_16_random_victims():
    """Twelve keys in 16 slots (the 3/4 load), random victim subsets."""
    rng = np.random.default_rng(23)
    for _ in range(200):
        homes = rng.integers(0, 16, size=12).tolist()
        states = _layout_states(homes, 16)
        mask = int(rng.integers(0, 1 << 12))
        _check(states, {i for i in range(12) if mask >> i & 1})


def test_run_wrapping_past_the_end():
    """Three keys homed at 6 fill 6, 7 and 0.  With the key at 6 gone,
    the key at 7 must take 6 before the key that wrapped to 0 moves back
    to 7: the walk has to reach slot 0 last."""
    states = _layout_states([6, 6, 6], 8)
    assert states == (3, 0, 0, 0, 0, 0, 1, 2)
    keys, values, state_arr = _arrays(states, {1})  # occupied order 0, 6, 7
    kernels.purge_nonpositive(keys, values, state_arr)
    assert state_arr.tolist() == [0, 0, 0, 0, 0, 0, 1, 2]
    assert keys[[6, 7]].tolist() == [102, 100]
    _check(states, {1})


def test_whole_wrapped_run_purged():
    states = _layout_states([5, 5, 5, 5], 8)
    assert states == (4, 0, 0, 0, 0, 1, 2, 3)
    _check(states, {0, 1, 2, 3})


def test_survivor_moves_into_the_hole_before_a_settled_neighbour():
    """A (home 1) survives at 1, V (home 1) dies at 2, B stays at its
    home 3, and C (home 2, at 4) must move back into the hole at 2."""
    states = _layout_states([1, 1, 3, 2], 8)
    assert states == (0, 1, 2, 1, 3, 0, 0, 0)
    keys, values, state_arr = _arrays(states, {1})
    kernels.purge_nonpositive(keys, values, state_arr)
    assert state_arr.tolist() == [0, 1, 1, 1, 0, 0, 0, 0]
    assert keys[[1, 2, 3]].tolist() == [100, 103, 102]
    _check(states, {1})


def test_full_table_is_refused():
    keys, values, states = _arrays(_layout_states(range(8), 8), {0})
    with pytest.raises(ValueError):
        kernels.purge_nonpositive(keys, values, states)
    assert states.tolist() == [1] * 8
