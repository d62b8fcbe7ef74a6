"""Algorithm 5 merging: semantics, Theorem 5, aggregation trees."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    FrequentItemsSketch,
    IncompatibleSketchError,
    merge_linear,
    merge_pairwise_tree,
)
from repro.errors import InvalidParameterError
from repro.metrics.accuracy import check_merge_bound
from repro.streams.exact import ExactCounter
from repro.streams.zipf import ZipfianStream


def _filled(seed, k=32, n=3_000, backend="dict"):
    sketch = FrequentItemsSketch(k, backend=backend, seed=seed)
    exact = ExactCounter()
    for item, weight in ZipfianStream(
        n, universe=1_500, alpha=1.2, seed=seed, weight_low=1, weight_high=100
    ):
        sketch.update(item, weight)
        exact.update(item, weight)
    return sketch, exact


def test_merge_accumulates_weight_and_offset():
    a, _ = _filled(1)
    b, _ = _filled(2)
    weight_a, weight_b = a.stream_weight, b.stream_weight
    offset_a, offset_b = a.maximum_error, b.maximum_error
    a.merge(b)
    assert a.stream_weight == pytest.approx(weight_a + weight_b)
    assert a.maximum_error >= offset_a + offset_b  # merge may add decrements


def test_merge_returns_self_and_leaves_other_intact():
    a, _ = _filled(3)
    b, _ = _filled(4)
    b_rows = sorted(b.to_rows())
    result = a.merge(b)
    assert result is a
    assert sorted(b.to_rows()) == b_rows


def test_merge_self_rejected():
    a, _ = _filled(5)
    with pytest.raises(IncompatibleSketchError):
        a.merge(a)


def test_merged_bounds_bracket_union_truth():
    a, exact_a = _filled(6)
    b, exact_b = _filled(7)
    exact_a.merge(exact_b)
    a.merge(b)
    for item, frequency in exact_a.items():
        assert a.lower_bound(item) <= frequency + 1e-6
        assert a.upper_bound(item) >= frequency - 1e-6


def test_theorem5_merge_bound():
    a, exact_a = _filled(8)
    b, exact_b = _filled(9)
    exact_a.merge(exact_b)
    a.merge(b)
    counter_sum = sum(row.lower_bound for row in a.to_rows())
    check = check_merge_bound(
        a.lower_bound, exact_a, counter_sum, a.max_counters / 3.0
    )
    assert check.holds, (check.observed, check.bound)


def test_merge_below_capacity_is_lossless():
    a = FrequentItemsSketch(64, backend="dict", seed=10)
    b = FrequentItemsSketch(64, backend="dict", seed=11)
    for item in range(20):
        a.update(item, float(item + 1))
    for item in range(15, 35):
        b.update(item, 2.0)
    a.merge(b)
    assert a.maximum_error == 0.0
    assert a.estimate(16) == 17.0 + 2.0
    assert a.estimate(34) == 2.0


def test_merge_empty_is_identity():
    a, _ = _filled(12)
    rows = sorted(a.to_rows())
    weight = a.stream_weight
    a.merge(FrequentItemsSketch(32, backend="dict", seed=99))
    assert sorted(a.to_rows()) == rows
    assert a.stream_weight == weight


def test_merge_into_empty():
    a = FrequentItemsSketch(32, backend="dict", seed=13)
    b, exact = _filled(14)
    a.merge(b)
    assert a.stream_weight == b.stream_weight
    for item, frequency in exact.top_k(5):
        assert a.lower_bound(item) <= frequency <= a.upper_bound(item)


def test_merge_mixed_backends():
    a, _ = _filled(15, backend="probing")
    b, exact_b = _filled(16, backend="dict")
    a.merge(b)
    top_item, top_frequency = exact_b.top_k(1)[0]
    assert a.upper_bound(top_item) >= top_frequency * 0.5


@pytest.mark.parametrize("backend", ["dict", "probing"])
def test_fast_path_matches_generic_ingest(backend):
    """The merge replay (dict: inlined loop; probing: one batched
    ingest) must equal per-entry _ingest, byte for byte."""
    a1, _ = _filled(17, backend=backend)
    a2 = a1.copy()
    b, _ = _filled(18, backend=backend)

    a1.merge(b)

    # Generic path: replicate merge via _ingest with the same RNG state.
    entries = list(b._store.items())
    import numpy as np

    order = np.random.Generator(
        np.random.PCG64(a2._rng.next_u64())
    ).permutation(len(entries))
    for index in order:
        a2._ingest(*entries[index])
    a2._offset += b.maximum_error
    a2._stream_weight += b.stream_weight

    assert a1.to_bytes() == a2.to_bytes()
    assert a1._rng.getstate() == a2._rng.getstate()


def test_linear_vs_tree_merge_error_bounds():
    """Arbitrary aggregation trees: both shapes satisfy Theorem 5."""
    parts = []
    union = ExactCounter()
    for seed in range(8):
        sketch, exact = _filled(20 + seed, k=48, n=2_000)
        parts.append(sketch)
        union.merge(exact)

    linear_inputs = [p.copy() for p in parts]
    tree_inputs = [p.copy() for p in parts]
    linear = merge_linear(linear_inputs)
    tree = merge_pairwise_tree(tree_inputs)

    for merged in (linear, tree):
        assert merged.stream_weight == pytest.approx(union.total_weight)
        counter_sum = sum(row.lower_bound for row in merged.to_rows())
        check = check_merge_bound(
            merged.lower_bound, union, counter_sum, merged.max_counters / 3.0
        )
        assert check.holds, (check.observed, check.bound)


def test_merge_helpers_reject_empty():
    with pytest.raises(InvalidParameterError):
        merge_linear([])
    with pytest.raises(InvalidParameterError):
        merge_pairwise_tree([])


def test_merge_helpers_single_input():
    a, _ = _filled(30)
    assert merge_linear([a]) is a
    assert merge_pairwise_tree([a]) is a


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=9))
def test_tree_merge_any_width(width):
    parts = []
    union = ExactCounter()
    for seed in range(width):
        sketch, exact = _filled(100 + seed, k=24, n=800)
        parts.append(sketch)
        union.merge(exact)
    merged = merge_pairwise_tree(parts)
    assert merged.stream_weight == pytest.approx(union.total_weight)
    for item, frequency in union.top_k(3):
        assert merged.upper_bound(item) >= frequency - 1e-6
