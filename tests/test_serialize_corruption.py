"""Corrupt wire bytes must fail *cleanly* — flat and sharded formats.

Every decode path in ``core/serialize.py`` has to answer hostile input
with :class:`~repro.errors.SerializationError` (a ``ValueError``): no
raw ``struct.error``, no silent misparse into a sketch that disagrees
with the original, no unbounded allocation from an oversized length
frame.  The sweeps below try every truncation length and every
single-byte flip, not just hand-picked offsets.
"""

import struct

import pytest

from helpers import zipf_batch
from repro import (
    FrequentItemsSketch,
    SerializationError,
    ShardedFrequentItemsSketch,
)
from repro.core.serialize import (
    sharded_from_bytes,
    sharded_to_bytes,
    sketch_from_bytes,
    sketch_to_bytes,
)

#: Flat-format header layout (documented in docs/serialization.md):
#: offset 4 = k, 8 = backend byte, 9 = policy kind, 46 = record count.
_FLAT_BACKEND_OFFSET = 8
_FLAT_POLICY_OFFSET = 9
_FLAT_COUNT_OFFSET = 46
#: Sharded header: offset 4 = version byte, 5 = shard count.
_SHARDED_VERSION_OFFSET = 4
_SHARDED_COUNT_OFFSET = 5
#: First frame's uint32 length prefix sits right after the 33-byte header.
_SHARDED_FIRST_FRAME_OFFSET = 33


@pytest.fixture(scope="module")
def flat_blob():
    sketch = FrequentItemsSketch(16, backend="probing", seed=3)
    items, weights = zipf_batch(n=2_000, universe=300, seed=9)
    sketch.update_batch(items, weights)
    assert sketch.num_active == 16  # decrements ran; blob has records
    return sketch.to_bytes()


@pytest.fixture(scope="module")
def sharded_blob():
    sketch = ShardedFrequentItemsSketch(8, num_shards=3, seed=4)
    items, weights = zipf_batch(n=4_000, universe=500, seed=10)
    sketch.update_batch(items, weights)
    blob = sketch.to_bytes()
    return blob


# -- truncation sweeps --------------------------------------------------------


def test_flat_every_truncation_rejected(flat_blob):
    """No prefix of a valid flat blob may parse (the format is
    length-delimited by its record count)."""
    for cut in range(len(flat_blob)):
        with pytest.raises(SerializationError):
            sketch_from_bytes(flat_blob[:cut])


def test_sharded_every_truncation_rejected(sharded_blob):
    for cut in range(len(sharded_blob)):
        with pytest.raises(SerializationError):
            sharded_from_bytes(sharded_blob[:cut])


def test_trailing_garbage_rejected(flat_blob, sharded_blob):
    with pytest.raises(SerializationError):
        sketch_from_bytes(flat_blob + b"\x00")
    with pytest.raises(SerializationError):
        sharded_from_bytes(sharded_blob + b"\x00" * 7)


def test_empty_and_tiny_blobs_rejected():
    for blob in (b"", b"R", b"RFI1", b"RFS1", b"RFI1" + b"\x00" * 10):
        with pytest.raises(SerializationError):
            sketch_from_bytes(blob)
        with pytest.raises(SerializationError):
            sharded_from_bytes(blob)


# -- single-byte flip sweeps --------------------------------------------------
# A flipped byte must either raise SerializationError or decode into an
# operational sketch (flips inside seed/offset/weight/record fields are
# semantically invisible to the parser) — never escape as struct.error,
# OverflowError, or a crash.


def _assert_flip_is_clean(blob, decode, probe):
    for position in range(len(blob)):
        mutated = bytearray(blob)
        mutated[position] ^= 0xFF
        try:
            decoded = decode(bytes(mutated))
        except SerializationError:
            continue
        probe(decoded)  # whatever parsed must be a usable sketch


def test_flat_every_byte_flip_clean(flat_blob):
    _assert_flip_is_clean(
        flat_blob,
        sketch_from_bytes,
        lambda sketch: (sketch.estimate(1), sketch.to_bytes()),
    )


def test_sharded_every_byte_flip_clean(sharded_blob):
    _assert_flip_is_clean(
        sharded_blob,
        sharded_from_bytes,
        lambda sketch: (sketch.estimate(1), sketch.to_bytes()),
    )


# -- targeted header corruption ----------------------------------------------


def test_flat_unknown_backend_code_rejected(flat_blob):
    mutated = bytearray(flat_blob)
    mutated[_FLAT_BACKEND_OFFSET] = 0x5F  # low bits = 31: no such backend
    with pytest.raises(SerializationError, match="backend"):
        sketch_from_bytes(bytes(mutated))


def test_flat_adaptive_flag_flip_still_parses(flat_blob):
    """Bit 7 of the backend byte is the adaptive-growth flag — flipping
    it is *valid* wire format and must change only the growth mode."""
    mutated = bytearray(flat_blob)
    mutated[_FLAT_BACKEND_OFFSET] ^= 0x80
    sketch = sketch_from_bytes(bytes(mutated))
    assert sketch.growth == "adaptive"
    reference = sketch_from_bytes(flat_blob)
    assert sketch.estimate(1) == reference.estimate(1)


def test_flat_huge_k_rejected_before_allocation(flat_blob):
    """A corrupt k in the billions must be refused by the decode cap —
    counter tables are pre-allocated, so parsing first would commit
    gigabytes on hostile input."""
    from repro.core.serialize import MAX_DECODE_COUNTERS

    mutated = bytearray(flat_blob)
    struct.pack_into("<I", mutated, 4, 0xF000_0010)
    with pytest.raises(SerializationError, match="decode cap"):
        sketch_from_bytes(bytes(mutated))
    assert 0xF000_0010 > MAX_DECODE_COUNTERS


def test_flat_unknown_policy_kind_rejected(flat_blob):
    mutated = bytearray(flat_blob)
    mutated[_FLAT_POLICY_OFFSET] = 9
    with pytest.raises(SerializationError, match="policy"):
        sketch_from_bytes(bytes(mutated))


def test_flat_oversized_record_count_rejected(flat_blob):
    mutated = bytearray(flat_blob)
    struct.pack_into("<I", mutated, _FLAT_COUNT_OFFSET, 0xFFFF_FFFF)
    with pytest.raises(SerializationError):
        sketch_from_bytes(bytes(mutated))


def test_sharded_version_flip_rejected(sharded_blob):
    mutated = bytearray(sharded_blob)
    mutated[_SHARDED_VERSION_OFFSET] = 2
    with pytest.raises(SerializationError, match="version"):
        sharded_from_bytes(bytes(mutated))


def test_sharded_zero_shard_count_rejected(sharded_blob):
    mutated = bytearray(sharded_blob)
    struct.pack_into("<I", mutated, _SHARDED_COUNT_OFFSET, 0)
    with pytest.raises(SerializationError, match="shard count"):
        sharded_from_bytes(bytes(mutated))


def test_sharded_huge_shard_count_rejected(sharded_blob):
    mutated = bytearray(sharded_blob)
    struct.pack_into("<I", mutated, _SHARDED_COUNT_OFFSET, 0xFFFF_FFFF)
    with pytest.raises(SerializationError):
        sharded_from_bytes(bytes(mutated))


def test_sharded_oversized_frame_length_rejected(sharded_blob):
    """A frame claiming more bytes than the blob holds must be refused
    up front — not read past the end or allocate the claimed size."""
    for claimed in (0xFFFF_FFFF, len(sharded_blob) + 1, 1 << 31):
        mutated = bytearray(sharded_blob)
        struct.pack_into("<I", mutated, _SHARDED_FIRST_FRAME_OFFSET, claimed)
        with pytest.raises(SerializationError, match="frame|truncated"):
            sharded_from_bytes(bytes(mutated))


def test_sharded_undersized_frame_length_rejected(sharded_blob):
    """A shrunken frame misaligns every later frame; some byte of the
    chain must fail validation rather than misparse."""
    mutated = bytearray(sharded_blob)
    (actual,) = struct.unpack_from("<I", mutated, _SHARDED_FIRST_FRAME_OFFSET)
    struct.pack_into("<I", mutated, _SHARDED_FIRST_FRAME_OFFSET, actual - 16)
    with pytest.raises(SerializationError):
        sharded_from_bytes(bytes(mutated))


def test_format_cross_routing_rejected(flat_blob, sharded_blob):
    """Each decoder refuses the other format by magic, with a pointer to
    the right entry point rather than a misparse."""
    with pytest.raises(SerializationError, match="sharded"):
        sketch_from_bytes(sharded_blob)
    with pytest.raises(SerializationError, match="magic"):
        sharded_from_bytes(flat_blob)


def test_flat_nested_inside_frame_rejected(sharded_blob):
    """A sharded blob whose first frame is itself sharded must be caught
    by the per-frame decoder."""
    header = sharded_blob[:_SHARDED_FIRST_FRAME_OFFSET]
    (first_len,) = struct.unpack_from(
        "<I", sharded_blob, _SHARDED_FIRST_FRAME_OFFSET
    )
    nested = sharded_blob[: 4 + first_len]  # starts with RFS1, wrong shape
    frame = struct.pack("<I", len(nested)) + nested
    rest = sharded_blob[_SHARDED_FIRST_FRAME_OFFSET + 4 + first_len :]
    with pytest.raises(SerializationError):
        sharded_from_bytes(header + frame + rest)
