"""Compact binary serialization of the flat and sharded sketches.

Real deployments (the Section 3 scenarios) persist summaries and merge
them later, often on different machines, so a stable wire format is part
of making the sketch production-usable.  Both formats are little-endian
and versioned; the authoritative byte-level specification (offsets
included, validated by a test that parses a blob with nothing but the
documented offsets) lives in ``docs/serialization.md``.

Flat format (:func:`sketch_to_bytes` / :func:`sketch_from_bytes`):

===========  =====  ====================================================
field        bytes  meaning
===========  =====  ====================================================
magic        4      ``b"RFI1"``
k            4      uint32 ``max_counters``
backend      1      0 = probing, 1 = dict (2 = robinhood and 3 = columnar
                    are retired and decode as probing);
                    bit 7 (0x80) set = adaptive table growth
policy kind  1      0 = sample-quantile, 1 = exact-kth, 2 = global-min
policy p     8      float64 quantile / fraction (0 for global-min)
sample size  4      uint32 ℓ (0 when not applicable)
seed         8      uint64 construction seed (masked)
offset       8      float64 accumulated decrement offset
weight       8      float64 stream weight N
count        4      uint32 number of live counters
records      16×n   ``(uint64 item, float64 count)`` pairs
===========  =====  ====================================================

Sharded format (:func:`sharded_to_bytes` / :func:`sharded_from_bytes`):
a 33-byte header — magic ``b"RFS1"``, a version byte, uint32 shard
count, uint64 partition seed, float64 carried-over offset and stream
weight — followed by one *frame* per shard: a uint32 byte length and
then a complete flat-format blob of that length.

Deserialization reconstructs an operational sketch: it can keep
receiving updates and merging.  The PRNG restarts from the stored seed
(sampling decisions after a round trip may differ from the un-serialized
original's future, but the summary state — counters, offset, weight — is
preserved exactly, which is what the error guarantees depend on).
"""

from __future__ import annotations

import struct

import numpy as np

from repro.core.frequent_items import FrequentItemsSketch
from repro.core.policies import (
    ExactKthLargestPolicy,
    GlobalMinPolicy,
    SampleQuantilePolicy,
)
from repro.engine.kernel import SketchKernel
from repro.errors import ReproError, SerializationError
from repro.table import loadable_backend

_MAGIC = b"RFI1"
_HEADER = struct.Struct("<4sIBBdIQddI")
_RECORD = np.dtype([("item", "<u8"), ("count", "<f8")])

_SHARDED_MAGIC = b"RFS1"
_SHARDED_VERSION = 1
#: magic, version, num_shards, partition seed, extra offset, extra weight
_SHARDED_HEADER = struct.Struct("<4sBIQdd")
_FRAME_LENGTH = struct.Struct("<I")

_BACKEND_CODES = {"probing": 0, "dict": 1}
#: Every backend code ever written, retired ones included.
_BACKEND_NAMES = {0: "probing", 1: "dict", 2: "robinhood", 3: "columnar"}

#: High bit of the backend byte: set when the counter table uses
#: adaptive (doubling) growth.  Default-mode blobs are byte-identical to
#: the pre-flag format, so existing golden hashes stay valid.
_ADAPTIVE_GROWTH_FLAG = 0x80

#: Decode-time sanity cap on ``k``.  Counter tables are pre-allocated,
#: so a corrupt (or hostile) header with ``k`` in the billions would
#: commit gigabytes before any later validation could object; 2**26
#: counters (~a 1.5 GB probing table) is far beyond any configuration
#: the paper or this repo's benchmarks reach.
MAX_DECODE_COUNTERS = 1 << 26


def _encode_policy(policy) -> tuple[int, float, int]:
    if isinstance(policy, SampleQuantilePolicy):
        return 0, policy.quantile, policy.sample_size
    if isinstance(policy, ExactKthLargestPolicy):
        return 1, policy.fraction, 0
    if isinstance(policy, GlobalMinPolicy):
        return 2, 0.0, 0
    raise SerializationError(
        f"cannot serialize custom decrement policy {type(policy).__name__}"
    )


def _decode_policy(kind: int, param: float, sample_size: int):
    try:
        if kind == 0:
            return SampleQuantilePolicy(param, sample_size)
        if kind == 1:
            return ExactKthLargestPolicy(param)
        if kind == 2:
            return GlobalMinPolicy()
    except ReproError as exc:
        # A known policy kind with parameters outside its domain: the
        # blob is corrupt, not the caller's arguments.
        raise SerializationError(f"invalid policy parameters: {exc}") from exc
    raise SerializationError(f"unknown policy kind {kind}")


def sketch_to_bytes(sketch: FrequentItemsSketch) -> bytes:
    """Serialize ``sketch`` to the versioned binary format."""
    backend_code = _BACKEND_CODES.get(sketch.backend)
    if backend_code is None:
        raise SerializationError(f"unknown backend {sketch.backend!r}")
    if sketch.growth == "adaptive":
        backend_code |= _ADAPTIVE_GROWTH_FLAG
    kind, param, sample_size = _encode_policy(sketch.policy)
    # serial_arrays (when the store offers it) is a re-insertion order
    # that reconstructs the physical layout exactly — required for
    # from_bytes(to_bytes(s)) to be byte-faithful on the probing layout;
    # for every other state and store it equals as_arrays().
    store = sketch._store
    items, counts = getattr(store, "serial_arrays", store.as_arrays)()
    header = _HEADER.pack(
        _MAGIC,
        sketch.max_counters,
        backend_code,
        kind,
        param,
        sample_size,
        sketch.seed & ((1 << 64) - 1),
        sketch.maximum_error,
        sketch.stream_weight,
        len(items),
    )
    records = np.empty(len(items), dtype=_RECORD)
    records["item"] = items
    records["count"] = counts
    body = records.tobytes()
    return header + body


def sketch_from_bytes(blob: bytes) -> FrequentItemsSketch:
    """Reconstruct a sketch from :func:`sketch_to_bytes` output."""
    if blob[:4] == _SHARDED_MAGIC:
        raise SerializationError(
            "this is a sharded frame; use ShardedFrequentItemsSketch.from_bytes"
        )
    if len(blob) < _HEADER.size:
        raise SerializationError(
            f"blob too short for header: {len(blob)} < {_HEADER.size}"
        )
    (
        magic,
        k,
        backend_code,
        kind,
        param,
        sample_size,
        seed,
        offset,
        weight,
        count,
    ) = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise SerializationError(f"bad magic {magic!r}")
    if k > MAX_DECODE_COUNTERS:
        raise SerializationError(
            f"header claims k={k} counters, beyond the decode cap "
            f"{MAX_DECODE_COUNTERS} (corrupt blob?)"
        )
    growth = "adaptive" if backend_code & _ADAPTIVE_GROWTH_FLAG else "fixed"
    backend = _BACKEND_NAMES.get(backend_code & ~_ADAPTIVE_GROWTH_FLAG)
    if backend is None:
        raise SerializationError(f"unknown backend code {backend_code}")
    backend = loadable_backend(backend)
    expected = _HEADER.size + count * _RECORD.itemsize
    if len(blob) != expected:
        raise SerializationError(
            f"blob length {len(blob)} does not match header (expected {expected})"
        )
    policy = _decode_policy(kind, param, sample_size)
    if count:
        records = np.frombuffer(
            blob, dtype=_RECORD, count=count, offset=_HEADER.size
        )
        items = records["item"]
        counts = records["count"]
    else:
        items = np.empty(0, dtype=np.uint64)
        counts = np.empty(0, dtype=np.float64)
    # The kernel's one shared reconstruction path (also used by copy()):
    # bulk insert preserves record order on order-sensitive layouts; the
    # PRNG restarts from the stored seed.
    try:
        kernel = SketchKernel.restore(
            k, policy, backend, seed, items, counts, offset, weight, growth=growth
        )
    except ReproError as exc:
        # e.g. a flipped k below the minimum, or more records than the
        # stored capacity admits: corrupt state, reported as such.
        raise SerializationError(f"blob decodes to invalid state: {exc}") from exc
    return FrequentItemsSketch._from_kernel(kernel)


def sharded_to_bytes(sketch) -> bytes:
    """Serialize a :class:`ShardedFrequentItemsSketch` to the framed format.

    The header carries the partition parameters and the carried-over
    (offset, weight) accumulators; each shard follows as a length-
    prefixed flat-format frame, so shard payloads round-trip through the
    exact same code path as standalone sketches.
    """
    frames = []
    for shard in sketch._shards:
        frame = sketch_to_bytes(shard)
        frames.append(_FRAME_LENGTH.pack(len(frame)))
        frames.append(frame)
    header = _SHARDED_HEADER.pack(
        _SHARDED_MAGIC,
        _SHARDED_VERSION,
        sketch.num_shards,
        sketch.seed & ((1 << 64) - 1),
        sketch._extra_offset,
        sketch._extra_weight,
    )
    return header + b"".join(frames)


def sharded_from_bytes(blob: bytes):
    """Reconstruct a sharded sketch from :func:`sharded_to_bytes` output."""
    from repro.sharded.sketch import ShardedFrequentItemsSketch

    if len(blob) < _SHARDED_HEADER.size:
        raise SerializationError(
            f"blob too short for sharded header: {len(blob)} < {_SHARDED_HEADER.size}"
        )
    magic, version, num_shards, seed, extra_offset, extra_weight = (
        _SHARDED_HEADER.unpack_from(blob, 0)
    )
    if magic != _SHARDED_MAGIC:
        raise SerializationError(f"bad sharded magic {magic!r}")
    if version != _SHARDED_VERSION:
        raise SerializationError(f"unsupported sharded format version {version}")
    if num_shards < 1:
        raise SerializationError(f"invalid shard count {num_shards}")
    shards = []
    cursor = _SHARDED_HEADER.size
    for index in range(num_shards):
        if cursor + _FRAME_LENGTH.size > len(blob):
            raise SerializationError(
                f"truncated sharded blob: missing frame {index} length"
            )
        (frame_length,) = _FRAME_LENGTH.unpack_from(blob, cursor)
        cursor += _FRAME_LENGTH.size
        if cursor + frame_length > len(blob):
            raise SerializationError(
                f"truncated sharded blob: frame {index} wants {frame_length} bytes"
            )
        shards.append(sketch_from_bytes(blob[cursor : cursor + frame_length]))
        cursor += frame_length
    if cursor != len(blob):
        raise SerializationError(
            f"sharded blob has {len(blob) - cursor} trailing bytes"
        )
    first = shards[0]
    for index, shard in enumerate(shards):
        if shard.max_counters != first.max_counters or shard.backend != first.backend:
            raise SerializationError(
                f"shard {index} configuration does not match shard 0"
            )
    return ShardedFrequentItemsSketch._from_parts(
        shards, seed, extra_offset, extra_weight
    )
