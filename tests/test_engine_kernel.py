"""The engine extraction is bit-identical and the kernel API is sound.

The golden hashes below were computed on the pre-engine
``FrequentItemsSketch`` (counter logic inlined in the class, PR 2 tree)
over fixed-seed workloads; the facade + :class:`SketchKernel` must
reproduce every one of them — serialized bytes, PRNG state, merge
results — exactly.
"""

import hashlib

import numpy as np
import pytest

from repro.core.frequent_items import FrequentItemsSketch
from repro.engine.kernel import SketchKernel
from repro.engine.query import QueryEngine
from repro.errors import IncompatibleSketchError, InvalidParameterError
from repro.streams.zipf import ZipfianStream

BACKENDS = ("dict", "probing")

#: sha256(to_bytes()) after 20k scalar Zipf(1.1) updates, k=128, seed=11
#: — computed on the pre-engine implementation.
GOLDEN_BYTES = {
    "dict": "e1ec971850ea078569efa12043e3654e1610ee67b12fbc8abfec299ca3983270",
    "probing": "23fc4e19bc8b3f97ae6e0b1a56fd90133f96a2305dac5f2516f0deb11fe1c306",
}
#: The PRNG state after the same feed (identical across backends: the
#: sampled decrement draws are backend-independent).
GOLDEN_RNG_STATE = (16158175513459802190, 8041277520670578783)
#: sha256(to_bytes()) after the Algorithm 5 merge of two half-streams,
#: k=64, seeds 3/4 — pre-engine values (covers the dict fast path and
#: the probing merge, batched through the compiled kernel when built).
GOLDEN_MERGE_BYTES = {
    "dict": "972067611c42547468a12d22b398282f63dc8e9064228726e37184480e0955ef",
    "probing": "a9e8342dc4d069f039985a35066b34a876e30d479760b586e19cd102769ba3a4",
}


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


@pytest.fixture(scope="module")
def golden_stream():
    return list(
        ZipfianStream(20_000, universe=2_000, alpha=1.1, seed=7,
                      weight_low=1, weight_high=100)
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_facade_bit_identical_to_pre_engine_sketch(golden_stream, backend):
    sketch = FrequentItemsSketch(128, backend=backend, seed=11)
    for item, weight in golden_stream:
        sketch.update(item, weight)
    assert _sha(sketch.to_bytes()) == GOLDEN_BYTES[backend]
    assert sketch._rng.getstate() == GOLDEN_RNG_STATE


@pytest.mark.parametrize("backend", sorted(GOLDEN_MERGE_BYTES))
def test_merge_bit_identical_to_pre_engine_sketch(golden_stream, backend):
    left = FrequentItemsSketch(64, backend=backend, seed=3)
    right = FrequentItemsSketch(64, backend=backend, seed=4)
    for index, (item, weight) in enumerate(golden_stream[:8_000]):
        (left if index % 2 else right).update(item, weight)
    left.merge(right)
    assert _sha(left.to_bytes()) == GOLDEN_MERGE_BYTES[backend]


def test_batch_path_hits_same_golden(golden_stream):
    items = np.array([item for item, _w in golden_stream], dtype=np.uint64)
    weights = np.array([w for _item, w in golden_stream], dtype=np.float64)
    sketch = FrequentItemsSketch(128, backend="probing", seed=11)
    for start in range(0, len(items), 4096):
        sketch.update_batch(items[start : start + 4096],
                            weights[start : start + 4096])
    assert _sha(sketch.to_bytes()) == GOLDEN_BYTES["probing"]
    assert sketch._rng.getstate() == GOLDEN_RNG_STATE


@pytest.mark.parametrize("backend", BACKENDS)
def test_copy_and_from_bytes_share_restore_path(golden_stream, backend):
    """copy() and from_bytes() both funnel through SketchKernel.restore."""
    sketch = FrequentItemsSketch(96, backend=backend, seed=21)
    for item, weight in golden_stream[:6_000]:
        sketch.update(item, weight)
    blob = sketch.to_bytes()

    dup = sketch.copy()
    assert dup.to_bytes() == blob
    # copy carries the PRNG forward; future behavior matches exactly.
    assert dup._rng.getstate() == sketch._rng.getstate()
    assert dup.stats.as_dict() == sketch.stats.as_dict()
    dup.update(999_999, 5.0)
    assert sketch.to_bytes() == blob  # original untouched

    revived = FrequentItemsSketch.from_bytes(blob)
    assert revived.to_bytes() == blob
    # from_bytes restarts the PRNG from the stored seed by design.
    assert revived._rng.getstate() == FrequentItemsSketch(
        96, backend=backend, seed=21
    )._rng.getstate()


def test_kernel_restore_empty_and_rng_state():
    kernel = SketchKernel(16, seed=5)
    restored = SketchKernel.restore(
        16, kernel.policy, "probing", 5,
        np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64),
        0.0, 0.0, rng_state=(123, 456),
    )
    assert len(restored) == 0
    assert restored.rng.getstate() == (123, 456)
    assert restored.is_empty()


def test_kernel_validation_and_self_merge():
    with pytest.raises(InvalidParameterError):
        SketchKernel(1)
    kernel = SketchKernel(8)
    with pytest.raises(IncompatibleSketchError):
        kernel.absorb(kernel)
    with pytest.raises(InvalidParameterError):
        kernel.rescale(-1.0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_rescale_scales_counters_offset_and_weight(backend):
    kernel = SketchKernel(4, backend=backend, seed=1)
    for item in range(6):  # overflow k=4 so the offset is nonzero
        kernel.update(item, float(item + 1))
    assert kernel.offset > 0.0
    before = dict(kernel.store.items())
    offset, weight = kernel.offset, kernel.stream_weight
    kernel.rescale(0.5)
    assert kernel.offset == offset * 0.5
    assert kernel.stream_weight == weight * 0.5
    assert dict(kernel.store.items()) == {
        item: count * 0.5 for item, count in before.items()
    }
    # Scaling to zero purges everything.
    kernel.rescale(0.0)
    assert len(kernel.store) == 0
    assert kernel.stream_weight == 0.0


def test_facade_exposes_engine_objects():
    sketch = FrequentItemsSketch(32, seed=2)
    assert isinstance(sketch.kernel, SketchKernel)
    assert isinstance(sketch.query_engine, QueryEngine)
    assert sketch.query_engine.kernel is sketch.kernel
    # The historical private views alias the kernel state.
    sketch.update(7, 3.0)
    assert sketch._store is sketch.kernel.store
    assert sketch._offset == sketch.kernel.offset
    assert sketch._stream_weight == 3.0
    sketch._stream_weight = 10.0
    assert sketch.kernel.stream_weight == 10.0


def test_from_kernel_wraps_without_copying():
    kernel = SketchKernel(32, backend="dict", seed=9)
    kernel.update(1, 2.0)
    sketch = FrequentItemsSketch._from_kernel(kernel)
    assert sketch.estimate(1) == 2.0
    kernel.update(1, 3.0)
    assert sketch.estimate(1) == 5.0  # shared state, not a snapshot
