"""Every ingest path rejects a weight that is not finite and positive.

NaN compares false with everything, so a bare ``weight <= 0`` test
would let it (and +inf) through and turn estimates and the stream
weight into NaN/inf.  Each path goes through
:func:`repro.streams.model.check_weight` and must raise
:class:`~repro.errors.InvalidUpdateError` before touching any state.
"""

import math

import numpy as np
import pytest

from repro import FrequentItemsSketch, ShardedFrequentItemsSketch
from repro.errors import InvalidUpdateError
from repro.extensions import (
    DecayedFrequentItemsSketch,
    HierarchicalHeavyHitters,
    RandomAdmissionSpaceSaving,
    SampledFrequentItems,
    StreamingEntropy,
)
from repro.streams.model import as_batch, as_updates, check_weight

BAD_WEIGHTS = [math.nan, math.inf, -math.inf, 0.0, -1.0]


def _scalar(sketch, weight):
    sketch.update(5, weight)


def _batch(sketch, weight):
    sketch.update_batch(
        np.array([1, 5], dtype=np.uint64), np.array([1.0, weight])
    )


def _iterable(sketch, weight):
    sketch.update_all([(5, weight)])


#: id -> (factory, ingest path, fingerprint of the sketch's state).
PATHS = {
    "sketch-update": (
        lambda: FrequentItemsSketch(8), _scalar, lambda s: s.to_bytes()
    ),
    "sketch-update_batch": (
        lambda: FrequentItemsSketch(8), _batch, lambda s: s.to_bytes()
    ),
    "sketch-update_all": (
        lambda: FrequentItemsSketch(8), _iterable, lambda s: s.to_bytes()
    ),
    "sharded-update": (
        lambda: ShardedFrequentItemsSketch(8, num_shards=2), _scalar,
        lambda s: s.to_bytes(),
    ),
    "sharded-update_batch": (
        lambda: ShardedFrequentItemsSketch(8, num_shards=2), _batch,
        lambda s: s.to_bytes(),
    ),
    "decayed-update": (
        lambda: DecayedFrequentItemsSketch(8, half_life=10.0), _scalar,
        lambda s: (s.decayed_weight, s.to_rows()),
    ),
    "decayed-update_batch": (
        lambda: DecayedFrequentItemsSketch(8, half_life=10.0), _batch,
        lambda s: (s.decayed_weight, s.to_rows()),
    ),
    "sampled-update": (
        lambda: SampledFrequentItems(8, probability=0.5), _scalar,
        lambda s: (s.stream_weight, s.estimate(1), s.estimate(5)),
    ),
    "sampled-update_batch": (
        lambda: SampledFrequentItems(8, probability=0.5), _batch,
        lambda s: (s.stream_weight, s.estimate(1), s.estimate(5)),
    ),
    "rap-update": (
        lambda: RandomAdmissionSpaceSaving(8), _scalar,
        lambda s: (s.stream_weight, s.estimate(1), s.estimate(5)),
    ),
    "entropy-update": (
        lambda: StreamingEntropy(8), _scalar,
        lambda s: (s.stream_weight, s.estimate()),
    ),
    "hierarchical-update": (
        lambda: HierarchicalHeavyHitters(8), _scalar,
        lambda s: [s.stream_weight] + [s.sketch_at(n).to_bytes() for n in s.levels],
    ),
}


@pytest.mark.parametrize("weight", BAD_WEIGHTS, ids=str)
@pytest.mark.parametrize("path", PATHS, ids=str)
def test_bad_weight_rejected_and_state_unchanged(path, weight):
    factory, ingest, fingerprint = PATHS[path]
    sketch = factory()
    sketch.update(1, 2.0)
    before = fingerprint(sketch)
    with pytest.raises(InvalidUpdateError, match="update weights must be"):
        ingest(sketch, weight)
    assert fingerprint(sketch) == before


@pytest.mark.parametrize("weight", BAD_WEIGHTS, ids=str)
def test_normalizers_name_the_offending_update(weight):
    problem = "positive" if weight <= 0 else "finite"
    expected = f"update weights must be {problem}, got {weight} for item 5"
    with pytest.raises(InvalidUpdateError) as scalar:
        check_weight(5, weight)
    with pytest.raises(InvalidUpdateError) as batch:
        as_batch([1, 5, 6], [1.0, weight, math.nan])
    with pytest.raises(InvalidUpdateError) as iterable:
        list(as_updates([(5, weight)]))
    assert str(scalar.value) == str(batch.value) == str(iterable.value) == expected


def test_finite_positive_weights_pass():
    for weight in (5e-324, 1.0, 1.7976931348623157e308):
        check_weight(1, weight)
    _items, weights = as_batch([1, 2], [5e-324, 1e300])
    assert weights.tolist() == [5e-324, 1e300]
