"""Scalar/batch equivalence: ``update_batch`` == the ``update`` loop.

The batched ingestion engine promises more than statistical agreement:
for integer-representable weights the batch path must land in *exactly*
the same state as the scalar loop — same counters, same offset, same
stream weight, same serialized bytes — on every backend, including
batches that straddle decrement passes.  These tests pin that promise
down with a Hypothesis property over adversarially small tables (where
nearly every batch triggers decrements) and with deterministic Zipf
workloads.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import batch_feed, scalar_feed
from repro.core.frequent_items import FrequentItemsSketch
from repro.errors import InvalidUpdateError
from repro.streams.zipf import ZipfianStream
from repro.table import BACKEND_NAMES

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


updates_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),      # small universe: heavy churn
        st.integers(min_value=1, max_value=50),      # integer weights: exact sums
    ),
    min_size=0,
    max_size=400,
)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@settings(deadline=None, max_examples=25)
@given(updates=updates_strategy, k=st.integers(2, 12), chunk=st.integers(1, 97))
def test_batch_equals_scalar_bytes(backend, updates, k, chunk):
    updates = [(item, float(weight)) for item, weight in updates]
    scalar = scalar_feed(k, backend, seed=5, updates=updates)
    batched = batch_feed(k, backend, seed=5, updates=updates, chunk=chunk)
    assert scalar.to_bytes() == batched.to_bytes()
    assert scalar.stats.as_dict() == batched.stats.as_dict()


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_batch_equals_scalar_on_zipf_with_decrements(backend):
    """A workload guaranteed to run many decrement passes (k << uniques)."""
    stream = ZipfianStream(
        8_000, universe=3_000, alpha=1.05, seed=11, weight_low=1, weight_high=10_000
    )
    k = 64
    scalar = FrequentItemsSketch(k, backend=backend, seed=11)
    for item, weight in stream:
        scalar.update(item, weight)
    assert scalar.stats.decrements > 10  # the interesting regime
    batched = FrequentItemsSketch(k, backend=backend, seed=11)
    for items, weights in stream.batches(batch_size=1024):
        batched.update_batch(items, weights)
    assert scalar.to_bytes() == batched.to_bytes()
    assert scalar.stats.as_dict() == batched.stats.as_dict()
    # Round-trip stays operational and equal.
    assert FrequentItemsSketch.from_bytes(batched.to_bytes()).to_bytes() == (
        scalar.to_bytes()
    )


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_batch_unit_weights_default(backend):
    items = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5], dtype=np.uint64)
    batched = FrequentItemsSketch(8, backend=backend, seed=2)
    batched.update_batch(items)
    scalar = FrequentItemsSketch(8, backend=backend, seed=2)
    for item in items.tolist():
        scalar.update(item, 1.0)
    assert scalar.to_bytes() == batched.to_bytes()


def test_batch_validation():
    sketch = FrequentItemsSketch(8, seed=0)
    with pytest.raises(InvalidUpdateError):
        sketch.update_batch(np.array([1, 2]), np.array([1.0, 0.0]))
    with pytest.raises(InvalidUpdateError):
        sketch.update_batch(np.array([1, 2]), np.array([1.0]))
    with pytest.raises(InvalidUpdateError):
        sketch.update_batch(np.array([[1, 2]]), np.array([[1.0, 1.0]]))
    # Nothing was ingested by the failed calls.
    assert sketch.is_empty()
    sketch.update_batch(np.array([], dtype=np.uint64))  # empty batch is a no-op
    assert sketch.is_empty()


def test_batch_accepts_plain_sequences():
    sketch = FrequentItemsSketch(8, seed=3)
    sketch.update_batch([1, 2, 1], [2.0, 3.0, 4.0])
    assert sketch.estimate(1) == 6.0
    assert sketch.stream_weight == 9.0


def test_batch_large_ids_survive_list_conversion():
    """Regression: ids above 2**53 must not round-trip through float64."""
    big = (1 << 64) - 1
    sketch = FrequentItemsSketch(8, seed=3)
    sketch.update_batch([big, 5, big], [1.0, 2.0, 3.0])
    assert sketch.estimate(big) == 4.0
    assert sketch.estimate(5) == 2.0
    with pytest.raises(InvalidUpdateError):
        sketch.update_batch([-1])
    with pytest.raises(InvalidUpdateError):
        sketch.update_batch([1 << 64])
    with pytest.raises(InvalidUpdateError):
        sketch.update_batch(np.array([-1, 2], dtype=np.int64))


def test_batch_rejects_float_item_ids():
    sketch = FrequentItemsSketch(8, seed=3)
    with pytest.raises(InvalidUpdateError):
        sketch.update_batch(np.array([1.0, 2.0]))  # float dtype array
    with pytest.raises(InvalidUpdateError):
        sketch.update_batch([1.5, 2])  # non-integral value in a list
    assert sketch.is_empty()


def test_bulk_merge_equals_per_entry_ingest():
    """merge() on the probing backend takes the bulk path when the
    compiled kernels are built; it must stay entry-for-entry identical
    to the generic _ingest loop."""
    donor = FrequentItemsSketch(32, backend="probing", seed=9)
    for items, weights in ZipfianStream(
        2_000, universe=500, alpha=1.1, seed=21, weight_low=1, weight_high=50
    ).batches():
        donor.update_batch(items, weights)
    base = FrequentItemsSketch(16, backend="probing", seed=10)
    base.update_batch(np.arange(200, dtype=np.uint64))
    merged = base.copy()
    merged.merge(donor)
    # Replay what Algorithm 5 specifies, on an identical copy: same
    # shuffle (the copy shares the PRNG state), then per-entry ingest.
    reference = base.copy()
    entries = list(donor._store.items())
    order = np.random.Generator(
        np.random.PCG64(reference._rng.next_u64())
    ).permutation(len(entries))
    for index in order:
        item, count = entries[index]
        reference._ingest(item, count)
    reference._offset += donor.maximum_error
    reference._stream_weight += donor.stream_weight
    assert merged.to_bytes() == reference.to_bytes()
    assert merged.stats.as_dict() == reference.stats.as_dict()


def test_mixin_batch_rejects_bad_weights_without_partial_ingest():
    """Order-sensitive baselines validate the whole batch up front."""
    from repro.baselines import CountMinSketch

    sketch = CountMinSketch(4, 256, seed=5, conservative=True)
    before = sketch._table.copy()
    with pytest.raises(InvalidUpdateError):
        sketch.update_batch(np.array([1, 2, 3]), np.array([1.0, 2.0, -1.0]))
    assert np.array_equal(sketch._table, before)
    assert sketch.stream_weight == 0.0


def test_update_all_accepts_bare_items_pairs_and_updates():
    """Regression: update_all crashed on bare item ids despite its docs."""
    from repro.types import StreamUpdate

    sketch = FrequentItemsSketch(8, seed=4)
    sketch.update_all([7, 7, (8, 2.5), StreamUpdate(9, 1.5), 7])
    assert sketch.estimate(7) == 3.0
    assert sketch.estimate(8) == 2.5
    assert sketch.estimate(9) == 1.5
    with pytest.raises(InvalidUpdateError):
        sketch.update_all([(1, -2.0)])


# -- window boundaries -------------------------------------------------------
# update_batch_validated splits big batches into windows of
# max(4096, 8k); the split must be invisible: batches of exactly
# `window`, `window + 1`, and `2 * window` updates land bit-identically
# to the unwindowed scalar loop — serialized bytes AND the PRNG state,
# so every future sampling decision agrees too.


def _window_workload(total, seed):
    stream = ZipfianStream(
        total, universe=total // 4, alpha=1.05, seed=seed,
        weight_low=1, weight_high=500,
    )
    items, weights = [], []
    for batch_items, batch_weights in stream.batches(batch_size=total):
        items.append(batch_items)
        weights.append(batch_weights)
    return np.concatenate(items), np.concatenate(weights)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("extra", [0, 1, 4096])
def test_window_boundary_bit_identical(backend, extra):
    k = 16  # window = max(4096, 8 * 16) = 4096
    window = 4096
    total = window + extra
    items, weights = _window_workload(total, seed=31 + extra)
    scalar = FrequentItemsSketch(k, backend=backend, seed=6)
    for item, weight in zip(items.tolist(), weights.tolist()):
        scalar.update(item, weight)
    assert scalar.stats.decrements > 0  # boundary straddles decrements
    batched = FrequentItemsSketch(k, backend=backend, seed=6)
    batched.update_batch(items, weights)
    assert scalar.to_bytes() == batched.to_bytes()
    assert scalar._rng.getstate() == batched._rng.getstate()
    assert scalar.stats.as_dict() == batched.stats.as_dict()


# -- stream-weight accumulation ---------------------------------------------
# The exactness contract: integer-representable weights sum exactly (any
# order), so batch and scalar stream weights are bit-identical; for
# fractional weights the batch path promises pairwise-summation accuracy
# (O(eps log n) relative error vs. the exact sum), never the naive
# left-to-right drift.


def test_stream_weight_exact_for_integer_weights_near_2_53():
    items = np.arange(4_000, dtype=np.uint64)
    weights = np.full(4_000, 1.0)
    weights[0] = float(1 << 50)  # huge + many small, still integer-exact
    sketch = FrequentItemsSketch(64, backend="probing", seed=2)
    sketch.update_batch(items, weights)
    scalar = FrequentItemsSketch(64, backend="probing", seed=2)
    for item, weight in zip(items.tolist(), weights.tolist()):
        scalar.update(item, weight)
    assert sketch.stream_weight == scalar.stream_weight == float((1 << 50) + 3_999)


def test_stream_weight_fractional_drift_is_bounded():
    """Rejects silent drift: the batched sum must stay within the
    documented pairwise-summation bound of the exactly-rounded sum, on a
    workload built to expose naive left-to-right accumulation."""
    import math

    n = 4_096
    items = np.arange(n, dtype=np.uint64)
    # One huge weight followed by many tiny ones: a naive running sum
    # absorbs none of the tail; pairwise summation keeps it.
    weights = np.full(n, 0.125)
    weights[0] = 2.0**53
    sketch = FrequentItemsSketch(64, backend="probing", seed=2)
    sketch.update_batch(items, weights)
    exact = math.fsum(weights.tolist())
    naive = 0.0
    for w in weights.tolist():
        naive += w
    assert naive != exact  # the workload really is adversarial
    assert sketch.stream_weight == pytest.approx(exact, rel=1e-12, abs=0.0)
    # And across windows the per-window sums accumulate without widening
    # the bound catastrophically.
    big = FrequentItemsSketch(64, backend="probing", seed=2)
    reps = np.tile(weights, 4)
    big.update_batch(np.tile(items, 4), reps)
    assert big.stream_weight == pytest.approx(math.fsum(reps.tolist()), rel=1e-12)
