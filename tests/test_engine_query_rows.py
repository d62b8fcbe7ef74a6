"""Heavy-hitter row assembly: the array path ≡ the per-counter loop.

``QueryEngine.frequent_items``, ``heavy_hitters`` and ``to_rows`` build
their rows from ``store.as_arrays()`` with one threshold mask and one
sort.  This file keeps the per-counter loop they replaced and holds the
array path to it row for row — same items, same order (estimate
descending, ties by item ascending), same values and the same Python
types in every field — on both backends, both error directions, the
decayed wrapper and the sharded merged view.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ErrorType, FrequentItemsSketch
from repro.core.row import HeavyHitterRow
from repro.extensions.decayed import DecayedFrequentItemsSketch
from repro.sharded import ShardedFrequentItemsSketch

BACKENDS = ("probing", "dict")
ERROR_TYPES = (ErrorType.NO_FALSE_POSITIVES, ErrorType.NO_FALSE_NEGATIVES)


# -- the reference: the per-counter loop, verbatim -----------------------------


def loop_frequent_items(kernel, error_type=ErrorType.NO_FALSE_POSITIVES,
                        threshold=None):
    if threshold is None:
        threshold = kernel.offset
    rows = []
    offset = kernel.offset
    for item, count in kernel.store.items():
        lower = count
        upper = count + offset
        qualifies = (
            lower >= threshold
            if error_type is ErrorType.NO_FALSE_POSITIVES
            else upper >= threshold
        )
        if qualifies:
            rows.append(HeavyHitterRow(item, upper, lower, upper))
    rows.sort(key=lambda r: (-r.estimate, r.item))
    return rows


def loop_heavy_hitters(kernel, phi, error_type=ErrorType.NO_FALSE_NEGATIVES):
    return loop_frequent_items(kernel, error_type, phi * kernel.stream_weight)


def loop_to_rows(kernel):
    offset = kernel.offset
    rows = [
        HeavyHitterRow(item, count + offset, count, count + offset)
        for item, count in kernel.store.items()
    ]
    rows.sort(key=lambda r: (-r.estimate, r.item))
    return rows


def assert_identical(got, want):
    assert got == want
    assert [tuple(map(type, row)) for row in got] == [
        tuple(map(type, row)) for row in want
    ]
    for row in got:
        assert type(row) is HeavyHitterRow
        assert type(row.item) is int
        assert all(type(v) is float for v in row[1:])


def thresholds(kernel):
    """0, the default (the offset), and one above every counter."""
    top = max((count for _item, count in kernel.store.items()), default=0.0)
    return (0.0, None, top + kernel.offset + 1.0)


# -- sketches under test -------------------------------------------------------


def zipf_batch(n, seed, universe=2_000):
    rng = np.random.default_rng(seed)
    items = (rng.zipf(1.2, size=n) % universe).astype(np.uint64)
    weights = rng.integers(1, 20, size=n).astype(np.float64)
    return items, weights


def undecremented(backend):
    sketch = FrequentItemsSketch(256, backend=backend, seed=1)
    sketch.update_batch(*zipf_batch(400, seed=2, universe=150))
    assert sketch.maximum_error == 0.0
    return sketch


def decremented(backend):
    sketch = FrequentItemsSketch(64, backend=backend, seed=3)
    sketch.update_batch(*zipf_batch(20_000, seed=4))
    assert sketch.maximum_error > 0.0
    return sketch


def tied(backend):
    """Several items share each estimate; the loop breaks ties by item."""
    sketch = FrequentItemsSketch(64, backend=backend, seed=5)
    for item in (90, 7, 41, 3, 12):
        sketch.update(item, 4.0)
    for item in (8, 2, 77):
        sketch.update(item, 9.0)
    sketch.update(1 << 63, 4.0)
    sketch.update(5, 1.5)
    return sketch


STATES = {
    "empty": lambda backend: FrequentItemsSketch(32, backend=backend, seed=6),
    "undecremented": undecremented,
    "decremented": decremented,
    "tied": tied,
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("state", sorted(STATES))
@pytest.mark.parametrize("error_type", ERROR_TYPES, ids=lambda e: e.name)
def test_frequent_items_matches_loop(backend, state, error_type):
    sketch = STATES[state](backend)
    kernel = sketch.kernel
    for threshold in thresholds(kernel):
        assert_identical(
            sketch.frequent_items(error_type, threshold),
            loop_frequent_items(kernel, error_type, threshold),
        )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("state", sorted(STATES))
def test_to_rows_and_heavy_hitters_match_loop(backend, state):
    sketch = STATES[state](backend)
    kernel = sketch.kernel
    assert_identical(sketch.to_rows(), loop_to_rows(kernel))
    for error_type in ERROR_TYPES:
        for phi in (0.001, 0.01, 0.1, 1.0):
            assert_identical(
                sketch.heavy_hitters(phi, error_type),
                loop_heavy_hitters(kernel, phi, error_type),
            )


@pytest.mark.parametrize("backend", BACKENDS)
def test_ties_order_by_item_ascending(backend):
    rows = tied(backend).to_rows()
    assert [row.item for row in rows] == [2, 8, 77, 3, 7, 12, 41, 90, 1 << 63, 5]
    assert [row.estimate for row in rows] == [9.0] * 3 + [4.0] * 6 + [1.5]


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_sketch_reports_nothing(backend):
    sketch = FrequentItemsSketch(16, backend=backend)
    assert sketch.to_rows() == []
    for error_type in ERROR_TYPES:
        assert sketch.frequent_items(error_type) == []
        assert sketch.frequent_items(error_type, 0.0) == []
        assert sketch.heavy_hitters(0.5, error_type) == []


def scaled(row, scale):
    inv = 1.0 / scale
    return row._replace(
        estimate=row.estimate * inv,
        lower_bound=row.lower_bound * inv,
        upper_bound=row.upper_bound * inv,
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_decayed_wrapper_scales_the_same_rows(backend):
    sketch = DecayedFrequentItemsSketch(64, half_life=3.0, backend=backend, seed=7)
    for step in range(6):
        sketch.update_batch(*zipf_batch(3_000, seed=10 + step))
        sketch.tick(1.0)
    kernel, scale = sketch._kernel, sketch._scale
    assert scale != 1.0 and kernel.offset > 0.0
    assert_identical(
        sketch.to_rows(), [scaled(row, scale) for row in loop_to_rows(kernel)]
    )
    for error_type in ERROR_TYPES:
        for threshold in (0.0, None, sketch.decayed_weight):
            raw = None if threshold is None else threshold * scale
            assert_identical(
                sketch.frequent_items(error_type, threshold),
                [scaled(row, scale)
                 for row in loop_frequent_items(kernel, error_type, raw)],
            )
        assert_identical(
            sketch.heavy_hitters(0.01, error_type),
            [scaled(row, scale)
             for row in loop_heavy_hitters(kernel, 0.01, error_type)],
        )


@pytest.mark.parametrize("backend", BACKENDS)
def test_sharded_merged_view_matches_loop(backend):
    sketch = ShardedFrequentItemsSketch(64, num_shards=4, backend=backend, seed=8)
    sketch.update_batch(*zipf_batch(30_000, seed=9))
    kernel = sketch.merged_view().kernel
    assert kernel.offset > 0.0
    assert_identical(sketch.to_rows(), loop_to_rows(kernel))
    for error_type in ERROR_TYPES:
        for threshold in thresholds(kernel):
            assert_identical(
                sketch.frequent_items(error_type, threshold),
                loop_frequent_items(kernel, error_type, threshold),
            )
        assert_identical(
            sketch.heavy_hitters(0.01, error_type),
            loop_heavy_hitters(kernel, 0.01, error_type),
        )
