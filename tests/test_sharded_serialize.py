"""The framed multi-shard wire format, including the documented offsets.

``test_documented_offsets_*`` are the acceptance tests for
``docs/serialization.md``: they parse serialized sketches using *only*
the byte offsets and field types stated in the document — no constants
imported from :mod:`repro.core.serialize` — so the spec cannot drift
from the implementation unnoticed.
"""

import struct

import numpy as np
import pytest

from repro import (
    FrequentItemsSketch,
    SerializationError,
    ShardedFrequentItemsSketch,
)
from repro.streams.zipf import ZipfianStream


def zipf_batch(n=12_000, universe=3_000, seed=5):
    stream = ZipfianStream(
        n, universe=universe, alpha=1.05, seed=seed, weight_low=1, weight_high=100
    )
    return list(stream.batches(batch_size=n))[0]


def populated(num_shards=4, k=64, seed=1):
    sketch = ShardedFrequentItemsSketch(k, num_shards=num_shards, seed=seed)
    sketch.update_batch(*zipf_batch())
    return sketch


# -- round trips --------------------------------------------------------------


def test_round_trip_is_byte_stable():
    sketch = populated()
    blob = sketch.to_bytes()
    clone = ShardedFrequentItemsSketch.from_bytes(blob)
    assert clone.to_bytes() == blob
    assert clone.num_shards == sketch.num_shards
    assert clone.max_counters == sketch.max_counters
    assert clone.seed == sketch.seed


def test_round_trip_preserves_queries():
    sketch = populated()
    clone = ShardedFrequentItemsSketch.from_bytes(sketch.to_bytes())
    assert clone.stream_weight == sketch.stream_weight
    assert clone.maximum_error == sketch.maximum_error
    for row in sketch.to_rows()[:100]:
        assert clone.estimate(row.item) == row.estimate
        assert clone.lower_bound(row.item) == row.lower_bound
    assert [row.item for row in clone.heavy_hitters(0.01)] == [
        row.item for row in sketch.heavy_hitters(0.01)
    ]


def test_round_trip_of_empty_and_single_shard():
    for sketch in (
        ShardedFrequentItemsSketch(16, num_shards=2, seed=3),
        ShardedFrequentItemsSketch(16, num_shards=1, seed=3),
    ):
        clone = ShardedFrequentItemsSketch.from_bytes(sketch.to_bytes())
        assert clone.is_empty()
        assert clone.num_shards == sketch.num_shards


def test_round_trip_preserves_carried_over_accumulators():
    a = populated(num_shards=4)
    b = populated(num_shards=2, seed=9)
    a.merge(b)  # re-shard path: nonzero extra offset/weight accumulators
    assert a._extra_offset > 0.0 or b.maximum_error == 0.0
    clone = ShardedFrequentItemsSketch.from_bytes(a.to_bytes())
    assert clone.maximum_error == a.maximum_error
    assert clone.stream_weight == a.stream_weight
    assert clone.to_bytes() == a.to_bytes()


def test_deserialized_sketch_remains_operational():
    sketch = populated()
    clone = ShardedFrequentItemsSketch.from_bytes(sketch.to_bytes())
    clone.update_batch(*zipf_batch(seed=6))
    assert clone.stream_weight > sketch.stream_weight
    assert clone.heavy_hitters(0.01)


# -- malformed input ----------------------------------------------------------


def test_rejects_bad_magic_version_and_truncation():
    blob = populated(num_shards=2).to_bytes()
    with pytest.raises(SerializationError):
        ShardedFrequentItemsSketch.from_bytes(b"XXXX" + blob[4:])
    with pytest.raises(SerializationError):
        ShardedFrequentItemsSketch.from_bytes(blob[:4] + b"\x99" + blob[5:])
    with pytest.raises(SerializationError):
        ShardedFrequentItemsSketch.from_bytes(blob[:20])
    with pytest.raises(SerializationError):
        ShardedFrequentItemsSketch.from_bytes(blob[:-3])
    with pytest.raises(SerializationError):
        ShardedFrequentItemsSketch.from_bytes(blob + b"\x00")


def test_flat_loader_refuses_sharded_frames_with_a_hint():
    blob = populated(num_shards=2).to_bytes()
    with pytest.raises(SerializationError, match="ShardedFrequentItemsSketch"):
        FrequentItemsSketch.from_bytes(blob)


# -- the documented byte offsets (docs/serialization.md) ----------------------


def test_documented_offsets_parse_a_flat_sketch():
    """Parse a flat blob using only the offsets the docs state."""
    sketch = FrequentItemsSketch(64, backend="probing", seed=17)
    sketch.update_batch(*zipf_batch(n=6_000, universe=2_000))
    blob = sketch.to_bytes()

    # docs/serialization.md, "Flat sketch format" offset table:
    assert blob[0:4] == b"RFI1"                                   # offset 0
    (k,) = struct.unpack_from("<I", blob, 4)                      # offset 4
    backend_code = blob[8]                                        # offset 8
    policy_kind = blob[9]                                         # offset 9
    (policy_param,) = struct.unpack_from("<d", blob, 10)          # offset 10
    (sample_size,) = struct.unpack_from("<I", blob, 18)           # offset 18
    (seed,) = struct.unpack_from("<Q", blob, 22)                  # offset 22
    (offset_value,) = struct.unpack_from("<d", blob, 30)          # offset 30
    (weight,) = struct.unpack_from("<d", blob, 38)                # offset 38
    (count,) = struct.unpack_from("<I", blob, 46)                 # offset 46

    assert k == 64
    assert backend_code == 0  # probing
    assert policy_kind == 0  # sample-quantile (SMED default)
    assert policy_param == 0.5
    assert sample_size == 1024
    assert seed == 17
    assert offset_value == sketch.maximum_error
    assert weight == sketch.stream_weight
    assert count == sketch.num_active
    assert len(blob) == 50 + 16 * count  # record array starts at offset 50

    # Records: (uint64 item, float64 count) pairs, 16 bytes apiece.
    for index in range(count):
        item, value = struct.unpack_from("<Qd", blob, 50 + 16 * index)
        assert sketch.lower_bound(item) == value


def test_documented_offsets_parse_a_sharded_sketch():
    """Parse a sharded blob using only the offsets the docs state."""
    sketch = populated(num_shards=3, k=32, seed=21)
    blob = sketch.to_bytes()

    # docs/serialization.md, "Sharded frame format" offset table:
    assert blob[0:4] == b"RFS1"                                   # offset 0
    assert blob[4] == 1                                           # version byte
    (num_shards,) = struct.unpack_from("<I", blob, 5)             # offset 5
    (partition_seed,) = struct.unpack_from("<Q", blob, 9)         # offset 9
    (extra_offset,) = struct.unpack_from("<d", blob, 17)          # offset 17
    (extra_weight,) = struct.unpack_from("<d", blob, 25)          # offset 25

    assert num_shards == 3
    assert partition_seed == 21
    assert extra_offset == 0.0
    assert extra_weight == 0.0

    # Shard frames start at offset 33: uint32 length + flat blob each.
    cursor = 33
    shard_weights = []
    for _shard in range(num_shards):
        (frame_length,) = struct.unpack_from("<I", blob, cursor)
        cursor += 4
        frame = blob[cursor : cursor + frame_length]
        assert frame[0:4] == b"RFI1"  # each frame is a flat-format blob
        (shard_weight,) = struct.unpack_from("<d", frame, 38)
        shard_weights.append(shard_weight)
        cursor += frame_length
    assert cursor == len(blob)
    assert sum(shard_weights) + extra_weight == sketch.stream_weight
