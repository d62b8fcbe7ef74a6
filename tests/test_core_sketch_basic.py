"""FrequentItemsSketch fundamentals: updates, queries, state, validation."""

import pytest

from repro import (
    ErrorType,
    FrequentItemsSketch,
    InvalidParameterError,
    InvalidUpdateError,
    SampleQuantilePolicy,
)


def test_construction_defaults():
    sketch = FrequentItemsSketch(64)
    assert sketch.max_counters == 64
    assert sketch.backend == "probing"
    assert isinstance(sketch.policy, SampleQuantilePolicy)
    assert sketch.policy.quantile == 0.5
    assert sketch.is_empty()
    assert len(sketch) == 0


def test_rejects_tiny_k():
    with pytest.raises(InvalidParameterError):
        FrequentItemsSketch(1)


def test_rejects_nonpositive_weights():
    sketch = FrequentItemsSketch(8)
    with pytest.raises(InvalidUpdateError):
        sketch.update(1, 0.0)
    with pytest.raises(InvalidUpdateError):
        sketch.update(1, -2.0)


def test_exact_below_capacity():
    """With fewer distinct items than counters the sketch is exact."""
    sketch = FrequentItemsSketch(16, seed=1)
    truth = {}
    for item, weight in [(1, 5.0), (2, 3.0), (1, 2.0), (3, 10.0), (2, 1.0)]:
        sketch.update(item, weight)
        truth[item] = truth.get(item, 0.0) + weight
    assert sketch.maximum_error == 0.0
    for item, frequency in truth.items():
        assert sketch.estimate(item) == frequency
        assert sketch.lower_bound(item) == frequency
        assert sketch.upper_bound(item) == frequency
    assert sketch.estimate(99) == 0.0


def test_unit_weight_default():
    sketch = FrequentItemsSketch(8)
    sketch.update(5)
    sketch.update(5)
    assert sketch.estimate(5) == 2.0
    assert sketch.stream_weight == 2.0


@pytest.mark.parametrize("backend", ["probing", "dict"])
def test_scalar_answers_are_floats_after_integer_weights(backend):
    sketch = FrequentItemsSketch(4, backend=backend, seed=2)
    sketch.update(1, 3)
    for item in range(2, 9):  # overflow: a decrement pass runs
        sketch.update(item, 2)
    sketch.update(1, 5)
    answers = [
        query(item)
        for item in (1, 8, 99)
        for query in (sketch.estimate, sketch.lower_bound, sketch.upper_bound)
    ]
    assert all(type(answer) is float for answer in answers), answers
    assert type(sketch.stream_weight) is float


def test_stream_weight_accumulates():
    sketch = FrequentItemsSketch(4, seed=2)
    for item in range(100):
        sketch.update(item, 2.5)
    assert sketch.stream_weight == pytest.approx(250.0)


def test_offset_grows_only_on_overflow():
    sketch = FrequentItemsSketch(4, seed=3)
    for item in range(4):
        sketch.update(item, 10.0)
    assert sketch.maximum_error == 0.0
    sketch.update(99, 1.0)  # forces a decrement pass
    assert sketch.maximum_error > 0.0


def test_bounds_bracket_estimate():
    sketch = FrequentItemsSketch(8, seed=4)
    for item in range(50):
        sketch.update(item % 12, float(item % 7 + 1))
    for item in range(12):
        lower = sketch.lower_bound(item)
        upper = sketch.upper_bound(item)
        estimate = sketch.estimate(item)
        assert lower <= estimate <= upper
        assert upper - lower == pytest.approx(
            sketch.maximum_error if item in sketch else sketch.maximum_error
        )


def test_update_all_accepts_pairs():
    sketch = FrequentItemsSketch(8)
    sketch.update_all([(1, 2.0), (2, 3.0), (1, 1.0)])
    assert sketch.estimate(1) == 3.0
    assert sketch.estimate(2) == 3.0


def test_contains_and_len():
    sketch = FrequentItemsSketch(8)
    sketch.update(3, 1.0)
    assert 3 in sketch
    assert 4 not in sketch
    assert len(sketch) == 1
    assert sketch.num_active == 1


def test_to_rows_sorted_desc():
    sketch = FrequentItemsSketch(8, seed=5)
    sketch.update(1, 10.0)
    sketch.update(2, 30.0)
    sketch.update(3, 20.0)
    rows = sketch.to_rows()
    assert [row.item for row in rows] == [2, 3, 1]
    assert rows[0].estimate >= rows[1].estimate >= rows[2].estimate
    assert list(iter(sketch)) == rows


def test_row_single_item():
    sketch = FrequentItemsSketch(8)
    sketch.update(7, 4.0)
    row = sketch.row(7)
    assert row.item == 7
    assert row.estimate == 4.0
    assert row.lower_bound == 4.0
    assert row.upper_bound == 4.0


def test_copy_is_independent():
    sketch = FrequentItemsSketch(8, seed=6)
    for item in range(20):
        sketch.update(item, float(item + 1))
    dup = sketch.copy()
    assert dup.stream_weight == sketch.stream_weight
    assert dup.maximum_error == sketch.maximum_error
    assert sorted(dup.to_rows()) == sorted(sketch.to_rows())
    dup.update(999, 100.0)
    assert sketch.estimate(999) == 0.0  # original untouched


def test_same_seed_same_sketch():
    def build():
        sketch = FrequentItemsSketch(16, seed=77, backend="dict")
        for item in range(500):
            sketch.update(item % 60, float(item % 9 + 1))
        return sketch

    a, b = build(), build()
    assert a.maximum_error == b.maximum_error
    assert sorted(a.to_rows()) == sorted(b.to_rows())


def test_backends_agree_on_logical_state():
    """Same stream, both backends: identical estimates (ell >= k case)."""
    streams = [(item % 37, float(item % 5 + 1)) for item in range(2000)]
    probing = FrequentItemsSketch(16, backend="probing", seed=8)
    dictionary = FrequentItemsSketch(16, backend="dict", seed=8)
    for item, weight in streams:
        probing.update(item, weight)
        dictionary.update(item, weight)
    assert probing.maximum_error == dictionary.maximum_error
    for item in range(37):
        assert probing.estimate(item) == dictionary.estimate(item)


def test_insert_skipped_when_weight_not_above_cstar():
    """A tiny update against a full table must not be assigned a counter."""
    sketch = FrequentItemsSketch(4, seed=9, backend="dict")
    for item in range(4):
        sketch.update(item, 1000.0)
    sketch.update(99, 0.5)  # c* will exceed 0.5
    assert 99 not in sketch
    assert sketch.estimate(99) == 0.0


def test_huge_update_lands_with_discounted_weight():
    sketch = FrequentItemsSketch(4, seed=10, backend="dict")
    for item in range(4):
        sketch.update(item, 10.0)
    sketch.update(99, 1000.0)
    assert 99 in sketch
    # Raw counter holds weight - c*; the estimate adds the offset back.
    assert sketch.estimate(99) == pytest.approx(1000.0)


def test_stats_tracked():
    sketch = FrequentItemsSketch(4, seed=11, backend="dict")
    for item in range(100):
        # Item 0 recurs with a heavy weight (guaranteed hits); the rest
        # churn through the table (guaranteed decrements).
        if item % 2 == 0:
            sketch.update(0, 50.0)
        else:
            sketch.update(item, 1.0)
    stats = sketch.stats
    assert stats.updates == 100
    assert stats.hits > 0
    assert stats.inserts > 0
    assert stats.decrements > 0
    assert stats.counters_scanned >= stats.decrements * 4
    assert 0 < stats.decrements_per_update() < 1
