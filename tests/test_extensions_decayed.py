"""DecayedFrequentItemsSketch: exponential time fading on the kernel."""

import math

import numpy as np
import pytest

from repro.core.frequent_items import FrequentItemsSketch
from repro.core.row import ErrorType
from repro.errors import InvalidParameterError, InvalidUpdateError
from repro.extensions import DecayedFrequentItemsSketch
from repro.streams.zipf import ZipfianStream


def test_validation():
    with pytest.raises(InvalidParameterError):
        DecayedFrequentItemsSketch(16, half_life=0.0)
    with pytest.raises(InvalidParameterError):
        DecayedFrequentItemsSketch(16, half_life=-1.0)
    sketch = DecayedFrequentItemsSketch(16, half_life=1.0)
    with pytest.raises(InvalidUpdateError):
        sketch.update(1, 0.0)
    with pytest.raises(InvalidParameterError):
        sketch.tick(0.0)


def test_infinite_half_life_matches_plain_sketch():
    """half_life=inf disables decay: state equals the flat sketch's."""
    stream = list(
        ZipfianStream(5_000, universe=800, alpha=1.2, seed=3,
                      weight_low=1, weight_high=50)
    )
    decayed = DecayedFrequentItemsSketch(
        64, half_life=math.inf, backend="probing", seed=4
    )
    flat = FrequentItemsSketch(64, backend="probing", seed=4)
    for index, (item, weight) in enumerate(stream):
        decayed.update(item, weight)
        flat.update(item, weight)
        if index % 500 == 0:
            decayed.tick()  # time passes, nothing decays
    assert decayed.decayed_weight == flat.stream_weight
    assert decayed.maximum_error == flat.maximum_error
    for item in range(100):
        assert decayed.estimate(item) == flat.estimate(item)


def test_exact_halving_per_half_life():
    sketch = DecayedFrequentItemsSketch(8, half_life=2.0, seed=1)
    sketch.update(7, 8.0)
    assert sketch.estimate(7) == 8.0
    sketch.tick(2.0)
    assert sketch.estimate(7) == 4.0
    assert sketch.decayed_weight == 4.0
    sketch.tick(4.0)
    assert sketch.estimate(7) == 1.0
    # Fresh traffic counts at full weight.
    sketch.update(9, 3.0)
    assert sketch.estimate(9) == 3.0
    assert sketch.decayed_weight == 4.0


def test_trending_items_displace_faded_ones():
    """Heavy hitters track the *current* distribution, not the all-time one."""
    sketch = DecayedFrequentItemsSketch(32, half_life=3.0, seed=2)
    for _ in range(3_000):
        sketch.update(111, 1.0)
    # 30 half-lives pass: item 111's mass decays by 2^-30.
    for _ in range(90):
        sketch.tick()
    for _ in range(300):
        sketch.update(222, 1.0)
    rows = sketch.heavy_hitters(0.5, ErrorType.NO_FALSE_NEGATIVES)
    items = [row.item for row in rows]
    assert items[0] == 222
    assert sketch.estimate(222) > 100 * sketch.estimate(111)
    # A plain sketch over the same updates would rank 111 first forever.
    assert sketch.estimate(111) < 1.0


def test_bounds_bracket_exact_decayed_frequency():
    """lower/upper bracket the true decayed weight at every query time."""
    stream = list(
        ZipfianStream(8_000, universe=600, alpha=1.1, seed=5,
                      weight_low=1, weight_high=20)
    )
    half_life = 4.0
    sketch = DecayedFrequentItemsSketch(128, half_life=half_life, seed=6)
    truth: dict[int, float] = {}
    time_now = 0.0
    for index, (item, weight) in enumerate(stream):
        sketch.update(item, weight)
        truth[item] = truth.get(item, 0.0) + weight * 2.0 ** (time_now / half_life)
        if (index + 1) % 1_000 == 0:
            sketch.tick()
            time_now += 1.0
    scale = 2.0 ** (time_now / half_life)
    assert sketch.maximum_error > 0.0  # the stream overflowed k=128
    for item, scaled_frequency in truth.items():
        decayed_frequency = scaled_frequency / scale
        assert sketch.lower_bound(item) <= decayed_frequency + 1e-9
        assert sketch.upper_bound(item) >= decayed_frequency - 1e-9


def test_renormalization_preserves_estimates():
    sketch = DecayedFrequentItemsSketch(16, half_life=1.0, seed=7)
    sketch.update(1, 4.0)
    # 100 half-lives in one jump crosses the 2^64 renormalization limit.
    sketch.tick(100.0)
    assert sketch.now == 100.0
    sketch.update(2, 4.0)
    # Item 1 decayed by 2^-100: negligible in the decayed view; item 2
    # is fresh and exact.
    assert sketch.estimate(2) == 4.0
    assert sketch.estimate(1) <= 4.0 * 2.0 ** -64
    assert sketch.decayed_weight == pytest.approx(4.0)


def test_extreme_jump_purges_everything():
    sketch = DecayedFrequentItemsSketch(16, half_life=1.0, seed=8)
    sketch.update(1, 1000.0)
    sketch.tick(5_000.0)  # 2^-5000 underflows to exactly zero
    assert sketch.num_active == 0
    assert sketch.decayed_weight == 0.0
    sketch.update(2, 2.0)
    assert sketch.estimate(2) == 2.0


def test_batch_equals_scalar_bit_for_bit():
    stream = list(
        ZipfianStream(12_000, universe=1_000, alpha=1.05, seed=9,
                      weight_low=1, weight_high=100)
    )
    items = np.array([item for item, _w in stream], dtype=np.uint64)
    weights = np.array([w for _item, w in stream], dtype=np.float64)
    # Whole half-lives per tick keep the ingest scale a power of two, so
    # scaled weights stay exactly representable and the engine's
    # bit-for-bit batch/scalar equivalence applies verbatim.
    scalar = DecayedFrequentItemsSketch(256, half_life=2.0, seed=10)
    batched = DecayedFrequentItemsSketch(256, half_life=2.0, seed=10)
    for start in range(0, len(items), 3_000):
        stop = start + 3_000
        for index in range(start, stop):
            scalar.update(int(items[index]), float(weights[index]))
        scalar.tick(2.0)
        batched.update_batch(items[start:stop], weights[start:stop])
        batched.tick(2.0)
    kernel_a, kernel_b = scalar.kernel, batched.kernel
    assert kernel_a.offset == kernel_b.offset
    assert kernel_a.stream_weight == kernel_b.stream_weight
    assert list(kernel_a.store.items()) == list(kernel_b.store.items())
    assert kernel_a.stats.decrements == kernel_b.stats.decrements


def test_frequent_items_threshold_in_decayed_units():
    sketch = DecayedFrequentItemsSketch(16, half_life=1.0, seed=11)
    sketch.update(1, 8.0)
    sketch.update(2, 2.0)
    sketch.tick()  # decayed weights: 4.0 and 1.0
    rows = sketch.frequent_items(threshold=3.0)
    assert [row.item for row in rows] == [1]
    assert rows[0].estimate == 4.0
    assert rows[0].lower_bound == 4.0


def test_iteration_and_space():
    sketch = DecayedFrequentItemsSketch(16, half_life=2.0, seed=12)
    sketch.update_batch(np.array([1, 2, 3], dtype=np.uint64),
                        np.array([9.0, 5.0, 1.0]))
    assert [row.item for row in sketch] == [1, 2, 3]
    assert 3 in sketch and 4 not in sketch
    assert len(sketch) == 3
    assert sketch.space_bytes() > 0
    assert not sketch.is_empty()
