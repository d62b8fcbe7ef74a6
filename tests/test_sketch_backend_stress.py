"""Long-churn stress of the sketch on the paper's probing table.

The probing table sees thousands of purge-and-refill cycles
here; after every phase the physical structure is validated (occupancy,
probe-path integrity) and the summary's brackets are re-checked against
exact counts.  This is the closest test to production wear.
"""

import pytest

from repro.core.frequent_items import FrequentItemsSketch
from repro.streams.exact import ExactCounter
from repro.streams.zipf import ZipfianStream
from repro.table import BACKEND_NAMES


def _probe_paths_intact(table) -> bool:
    """Every element's home..slot path must be fully occupied."""
    states = table._states
    mask = table._mask
    for slot in range(len(states)):
        state = states[slot]
        if state == 0:
            continue
        for back in range(1, state):
            if states[(slot - back) & mask] == 0:
                return False
    return True


@pytest.mark.parametrize("backend", ["probing"])
def test_churn_preserves_structure_and_bounds(backend):
    sketch = FrequentItemsSketch(32, backend=backend, seed=3)
    exact = ExactCounter()
    stream = list(
        ZipfianStream(12_000, universe=4_000, alpha=0.9, seed=4,
                      weight_low=1, weight_high=20)
    )
    for phase in range(6):
        chunk = stream[phase * 2_000 : (phase + 1) * 2_000]
        for item, weight in chunk:
            sketch.update(item, weight)
            exact.update(item, weight)
        table = sketch._store
        assert len(table) <= 32
        assert _probe_paths_intact(table), (backend, phase)
        assert all(value > 0 for _key, value in table.items())
        # Brackets against ground truth, every phase.
        for item, frequency in exact.top_k(10):
            assert sketch.lower_bound(item) <= frequency + 1e-6
            assert sketch.upper_bound(item) >= frequency - 1e-6
    # The flat (alpha=0.9, heavy-churn) profile must have purged a lot.
    assert sketch.stats.decrements > 50
    assert sketch.stats.counters_freed > 500


@pytest.mark.parametrize("backend", ["probing"])
def test_interleaved_merge_churn(backend):
    """Merging into an actively churning sketch keeps everything sane."""
    main = FrequentItemsSketch(24, backend=backend, seed=5)
    exact = ExactCounter()
    for round_index in range(5):
        donor = FrequentItemsSketch(24, backend=backend, seed=100 + round_index)
        for item, weight in ZipfianStream(
            1_500, universe=600, alpha=1.1, seed=200 + round_index,
            weight_low=1, weight_high=30,
        ):
            donor.update(item, weight)
            exact.update(item, weight)
        main.merge(donor)
        for item, weight in ZipfianStream(
            1_000, universe=600, alpha=1.1, seed=300 + round_index,
            weight_low=1, weight_high=30,
        ):
            main.update(item, weight)
            exact.update(item, weight)
        assert _probe_paths_intact(main._store)
        assert main.stream_weight == pytest.approx(exact.total_weight)
    for item, frequency in exact.top_k(8):
        assert main.lower_bound(item) <= frequency + 1e-6
        assert main.upper_bound(item) >= frequency - 1e-6


def test_probing_state_bytes_stay_small_under_churn():
    """Section 2.3.3's 2-byte-state claim under thousands of purges."""
    sketch = FrequentItemsSketch(96, backend="probing", seed=6)
    for item, weight in ZipfianStream(
        20_000, universe=8_000, alpha=0.8, seed=7
    ):
        sketch.update(item, weight)
    assert sketch._store.max_state() < 1 << 14


def test_tiny_k_extreme_churn():
    """k=2: every other update can trigger a decrement; nothing breaks."""
    for backend in BACKEND_NAMES:
        sketch = FrequentItemsSketch(2, backend=backend, seed=8)
        exact = ExactCounter()
        for index in range(3_000):
            item = index % 37
            weight = float(index % 5 + 1)
            sketch.update(item, weight)
            exact.update(item, weight)
        assert len(sketch) <= 2
        for item in range(37):
            assert sketch.lower_bound(item) <= exact.frequency(item) + 1e-6
            assert sketch.upper_bound(item) >= min(
                exact.frequency(item), exact.frequency(item)
            ) - 1e-6
