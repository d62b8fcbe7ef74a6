"""Binary serialization: round trips, format validation, corruption."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    ExactKthLargestPolicy,
    FrequentItemsSketch,
    GlobalMinPolicy,
    SampleQuantilePolicy,
    SerializationError,
)
from repro.core.serialize import sketch_from_bytes, sketch_to_bytes


def _filled_sketch(policy=None, backend="dict", seed=1):
    sketch = FrequentItemsSketch(16, policy=policy, backend=backend, seed=seed)
    for item in range(200):
        sketch.update(item % 40, float(item % 7 + 1))
    return sketch


def test_roundtrip_preserves_summary_state():
    sketch = _filled_sketch()
    restored = sketch_from_bytes(sketch_to_bytes(sketch))
    assert restored.max_counters == sketch.max_counters
    assert restored.backend == sketch.backend
    assert restored.stream_weight == sketch.stream_weight
    assert restored.maximum_error == sketch.maximum_error
    assert sorted(restored.to_rows()) == sorted(sketch.to_rows())


def test_roundtrip_each_policy():
    for policy in (
        SampleQuantilePolicy(0.25, 512),
        ExactKthLargestPolicy(0.4),
        GlobalMinPolicy(),
    ):
        sketch = _filled_sketch(policy=policy)
        restored = sketch_from_bytes(sketch_to_bytes(sketch))
        assert type(restored.policy) is type(policy)
        if isinstance(policy, SampleQuantilePolicy):
            assert restored.policy.quantile == policy.quantile
            assert restored.policy.sample_size == policy.sample_size
        if isinstance(policy, ExactKthLargestPolicy):
            assert restored.policy.fraction == policy.fraction


def test_roundtrip_probing_backend():
    sketch = _filled_sketch(backend="probing")
    restored = sketch_from_bytes(sketch_to_bytes(sketch))
    assert restored.backend == "probing"
    assert sorted(restored.to_rows()) == sorted(sketch.to_rows())


def test_empty_sketch_roundtrip():
    sketch = FrequentItemsSketch(8, seed=2)
    restored = sketch_from_bytes(sketch_to_bytes(sketch))
    assert restored.is_empty()
    assert restored.max_counters == 8


def test_restored_sketch_remains_usable():
    sketch = _filled_sketch()
    restored = sketch_from_bytes(sketch_to_bytes(sketch))
    restored.update(999, 5.0)
    assert restored.estimate(999) >= 5.0
    other = _filled_sketch(seed=3)
    restored.merge(other)
    assert restored.stream_weight == pytest.approx(
        sketch.stream_weight + 5.0 + other.stream_weight
    )


def test_bad_magic_rejected():
    blob = bytearray(sketch_to_bytes(_filled_sketch()))
    blob[0] ^= 0xFF
    with pytest.raises(SerializationError):
        sketch_from_bytes(bytes(blob))


def test_truncated_blob_rejected():
    blob = sketch_to_bytes(_filled_sketch())
    with pytest.raises(SerializationError):
        sketch_from_bytes(blob[: len(blob) - 7])
    with pytest.raises(SerializationError):
        sketch_from_bytes(blob[:10])


def test_extended_blob_rejected():
    blob = sketch_to_bytes(_filled_sketch())
    with pytest.raises(SerializationError):
        sketch_from_bytes(blob + b"extra")


def test_methods_delegate():
    sketch = _filled_sketch()
    assert sketch.to_bytes() == sketch_to_bytes(sketch)
    assert sorted(FrequentItemsSketch.from_bytes(sketch.to_bytes()).to_rows()) == \
        sorted(sketch.to_rows())


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=(1 << 64) - 1),
            st.floats(min_value=0.01, max_value=1e6, allow_nan=False),
        ),
        max_size=60,
    )
)
def test_roundtrip_random_contents(updates):
    sketch = FrequentItemsSketch(12, backend="dict", seed=4)
    for item, weight in updates:
        sketch.update(item, weight)
    restored = sketch_from_bytes(sketch_to_bytes(sketch))
    assert sorted(restored.to_rows()) == sorted(sketch.to_rows())
    assert restored.stream_weight == pytest.approx(sketch.stream_weight)
