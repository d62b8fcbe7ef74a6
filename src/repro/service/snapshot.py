"""Checkpoint + write-ahead-log durability for the ingest service.

Two on-disk artifacts live in the manager's directory:

**Snapshots** (``snapshot.<seq>.rsnap``) — one self-contained checkpoint
of the served sketch, written to a temporary file and published with an
atomic ``os.replace`` so readers never observe a partial snapshot.  The
payload is the sketch's existing wire format (flat ``RFI1`` or sharded
``RFS1`` — the blob is self-describing through its magic), wrapped in a
header that additionally records the ingest sequence number and the raw
xoroshiro128++ state of every kernel PRNG.  The wire format alone
restarts PRNGs from the construction seed; the wrapper is what makes a
recovered service *bit-identical* to one that never stopped — future
sampling decisions included.

===========  =====  ====================================================
field        bytes  meaning
===========  =====  ====================================================
magic        4      ``b"RSNP"``
version      1      1
seq          8      uint64 micro-batches applied when taken
nrng         4      uint32 number of kernel PRNG states (1 per kernel)
rng states   16×n   ``(uint64 s0, uint64 s1)`` per kernel, shard order
payload len  8      uint64 length of the wrapped sketch blob
payload      ...    flat ``RFI1`` or sharded ``RFS1`` blob
crc32        4      uint32 CRC-32 of every preceding byte
===========  =====  ====================================================

**Write-ahead log** (``wal.<seq>.rwal``) — the micro-batches applied
since the snapshot whose sequence number names the file.  Each segment
starts with a 13-byte header (magic ``b"RWAL"``, version, uint64 base
sequence) followed by one record per micro-batch:

===========  =====  ====================================================
field        bytes  meaning
===========  =====  ====================================================
seq          8      uint64 sequence number of this micro-batch
count        4      uint32 number of updates in the batch
crc32        4      uint32 CRC-32 over seq, count, and both arrays
items        8×n    little-endian uint64 item identifiers
weights      8×n    little-endian float64 weights
===========  =====  ====================================================

A record is appended (and flushed) *before* the batch is applied to the
sketch, so a crash at any instant loses at most work the log can replay.
A torn tail record fails its CRC and is discarded; everything before it
replays through the same ``update_batch`` engine with the same batch
boundaries, which is exactly why recovery is bit-identical.

All decode errors raise :class:`~repro.errors.SerializationError` (a
``ValueError``): corrupt files are reported cleanly, never crashed on.
"""

from __future__ import annotations

import contextlib
import logging
import os
import re
import struct
import zlib
from typing import BinaryIO, Iterator, Optional

import numpy as np

from repro.core.frequent_items import FrequentItemsSketch
from repro.core.serialize import sharded_from_bytes, sketch_from_bytes
from repro.errors import InvalidParameterError, SerializationError
from repro.sharded.sketch import ShardedFrequentItemsSketch

SNAPSHOT_MAGIC = b"RSNP"
SNAPSHOT_VERSION = 1
WAL_MAGIC = b"RWAL"
WAL_VERSION = 1

_SNAP_HEADER = struct.Struct("<4sBQI")
_RNG_STATE = struct.Struct("<QQ")
_PAYLOAD_LEN = struct.Struct("<Q")
_CRC = struct.Struct("<I")
_WAL_HEADER = struct.Struct("<4sBQ")
_WAL_RECORD = struct.Struct("<QII")

_SNAP_NAME = re.compile(r"^snapshot\.(\d{20})\.rsnap$")
_WAL_NAME = re.compile(r"^wal\.(\d{20})\.rwal$")

logger = logging.getLogger(__name__)

#: Size of one record header: ``uint64 seq, uint32 count, uint32 crc``.
WAL_RECORD_HEADER_SIZE = _WAL_RECORD.size


def wal_record_crc(seq: int, count: int, item_bytes: bytes,
                   weight_bytes: bytes) -> int:
    """The CRC-32 a WAL record stores: both arrays, then seq and count."""
    crc = zlib.crc32(item_bytes)
    crc = zlib.crc32(weight_bytes, crc)
    return zlib.crc32(struct.pack("<QI", seq, count), crc)


def encode_wal_record(seq: int, items: np.ndarray, weights: np.ndarray) -> bytes:
    """One RWAL record — the unit both the on-disk log and the
    replication stream (:mod:`repro.service.protocol`) ship."""
    item_bytes = np.ascontiguousarray(items, dtype="<u8").tobytes()
    weight_bytes = np.ascontiguousarray(weights, dtype="<f8").tobytes()
    crc = wal_record_crc(seq, len(items), item_bytes, weight_bytes)
    return _WAL_RECORD.pack(seq, len(items), crc) + item_bytes + weight_bytes


def parse_wal_record_header(head: bytes) -> tuple[int, int, int]:
    """``(seq, count, stored_crc)`` from one record header."""
    return _WAL_RECORD.unpack(head)


def decode_wal_payload(
    seq: int, count: int, stored_crc: int, payload: bytes
) -> tuple[np.ndarray, np.ndarray]:
    """Validate and split one record payload into (items, weights).

    Raises :class:`~repro.errors.SerializationError` on a CRC mismatch —
    callers decide whether that means a torn tail (drop silently) or a
    corrupt stream (close the connection).
    """
    if len(payload) != 16 * count:
        raise SerializationError(
            f"WAL record {seq} payload is {len(payload)} bytes, "
            f"expected {16 * count}"
        )
    if wal_record_crc(seq, count, payload[: 8 * count],
                      payload[8 * count:]) != stored_crc:
        raise SerializationError(f"WAL record {seq} failed its CRC")
    items = np.frombuffer(payload, dtype="<u8", count=count).astype(np.uint64)
    weights = np.frombuffer(
        payload, dtype="<f8", count=count, offset=8 * count
    ).astype(np.float64)
    return items, weights


def _kernels_of(sketch) -> list:
    """The kernels whose PRNG state a checkpoint must carry, in a fixed
    order (shard order for the sharded sketch)."""
    if isinstance(sketch, ShardedFrequentItemsSketch):
        return [shard.kernel for shard in sketch.shards]
    if isinstance(sketch, FrequentItemsSketch):
        return [sketch.kernel]
    # Only reachable from the encode side (decode always rebuilds one of
    # the two supported types): a caller-argument error, not corruption.
    raise InvalidParameterError(
        f"cannot snapshot a {type(sketch).__name__}; the service checkpoints "
        "FrequentItemsSketch and ShardedFrequentItemsSketch"
    )


def encode_snapshot(sketch, seq: int) -> bytes:
    """Serialize ``sketch`` plus its PRNG states into one checkpoint blob."""
    kernels = _kernels_of(sketch)
    payload = sketch.to_bytes()
    parts = [_SNAP_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, seq, len(kernels))]
    for kernel in kernels:
        s0, s1 = kernel.rng.getstate()
        parts.append(_RNG_STATE.pack(s0, s1))
    parts.append(_PAYLOAD_LEN.pack(len(payload)))
    parts.append(payload)
    body = b"".join(parts)
    return body + _CRC.pack(zlib.crc32(body))


def decode_snapshot(blob: bytes):
    """Reverse :func:`encode_snapshot`; returns ``(sketch, seq)``.

    The embedded PRNG states are restored onto the rebuilt kernels, so
    the returned sketch will make exactly the sampling decisions the
    checkpointed one would have.
    """
    if len(blob) < _SNAP_HEADER.size + _PAYLOAD_LEN.size + _CRC.size:
        raise SerializationError(
            f"snapshot blob too short for header: {len(blob)} bytes"
        )
    (stored_crc,) = _CRC.unpack_from(blob, len(blob) - _CRC.size)
    if zlib.crc32(blob[: -_CRC.size]) != stored_crc:
        raise SerializationError("snapshot CRC mismatch (torn or corrupt file)")
    magic, version, seq, nrng = _SNAP_HEADER.unpack_from(blob, 0)
    if magic != SNAPSHOT_MAGIC:
        raise SerializationError(f"bad snapshot magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise SerializationError(f"unsupported snapshot version {version}")
    cursor = _SNAP_HEADER.size
    if len(blob) < cursor + nrng * _RNG_STATE.size + _PAYLOAD_LEN.size + _CRC.size:
        raise SerializationError("snapshot blob truncated inside PRNG states")
    states = []
    for _ in range(nrng):
        states.append(_RNG_STATE.unpack_from(blob, cursor))
        cursor += _RNG_STATE.size
    (payload_len,) = _PAYLOAD_LEN.unpack_from(blob, cursor)
    cursor += _PAYLOAD_LEN.size
    if cursor + payload_len + _CRC.size != len(blob):
        raise SerializationError(
            f"snapshot payload length {payload_len} does not match blob size"
        )
    payload = blob[cursor : cursor + payload_len]
    if payload[:4] == b"RFS1":
        sketch = sharded_from_bytes(payload)
    else:
        sketch = sketch_from_bytes(payload)
    kernels = _kernels_of(sketch)
    if len(kernels) != nrng:
        raise SerializationError(
            f"snapshot carries {nrng} PRNG states for {len(kernels)} kernels"
        )
    for kernel, state in zip(kernels, states):
        kernel.rng.setstate(state)
    return sketch, seq


class SnapshotManager:
    """Checkpoint files + WAL segments for one ingest pipeline.

    Parameters
    ----------
    directory : str
        Where snapshots and WAL segments live.  Created if missing.  One
        manager (and one pipeline) owns a directory at a time.
    keep_snapshots : int, optional
        How many published snapshots to retain; older snapshots and the
        WAL segments no recovery from a retained snapshot could need are
        pruned after each checkpoint.
    fsync : bool, optional
        When true every WAL append is fsynced (durable against power
        loss, at a large throughput cost).  Snapshots are always synced
        before the atomic rename.  Default false: appends are flushed to
        the OS, which survives process crashes — the failure mode the
        recovery tests simulate.
    faults : DiskFaultPlane, optional
        Fault-injection hooks (:mod:`repro.service.faults`) routing
        every write/fsync/replace through an errorable layer.  ``None``
        (the default) is a zero-overhead passthrough; only the chaos
        tests arm it.
    """

    def __init__(
        self, directory: str, *, keep_snapshots: int = 2, fsync: bool = False,
        faults=None,
    ) -> None:
        if keep_snapshots < 1:
            raise InvalidParameterError(
                f"keep_snapshots must be at least 1, got {keep_snapshots}"
            )
        self._dir = os.fspath(directory)
        os.makedirs(self._dir, exist_ok=True)
        self._keep = keep_snapshots
        self._fsync = fsync
        self._faults = faults
        self._wal: Optional[BinaryIO] = None
        self._wal_base: Optional[int] = None
        self._wal_path: Optional[str] = None
        self._wal_poisoned = False

    # -- fault-plane passthroughs ----------------------------------------------

    def _write(self, fh: BinaryIO, data: bytes, path: str) -> None:
        if self._faults is not None:
            self._faults.write(fh, data, path)
        else:
            fh.write(data)

    def _sync(self, fh: BinaryIO, path: str) -> None:
        if self._faults is not None:
            self._faults.fsync(fh, path)
        else:
            os.fsync(fh.fileno())

    def _replace(self, src: str, dst: str) -> None:
        if self._faults is not None:
            self._faults.replace(src, dst)
        else:
            os.replace(src, dst)

    # -- introspection ---------------------------------------------------------

    @property
    def directory(self) -> str:
        return self._dir

    def _listing(self, pattern: re.Pattern) -> list[tuple[int, str]]:
        found = []
        for name in os.listdir(self._dir):
            match = pattern.match(name)
            if match:
                found.append((int(match.group(1)), os.path.join(self._dir, name)))
        found.sort()
        return found

    def snapshot_seqs(self) -> list[int]:
        """Sequence numbers of the published snapshots, ascending."""
        return [seq for seq, _path in self._listing(_SNAP_NAME)]

    def latest_snapshot_seq(self) -> Optional[int]:
        """The newest published snapshot's sequence number, if any."""
        seqs = self.snapshot_seqs()
        return seqs[-1] if seqs else None

    # -- checkpointing ---------------------------------------------------------

    def write_snapshot(self, sketch, seq: int) -> str:
        """Publish a checkpoint of ``sketch`` at sequence ``seq``.

        The blob is written to a temporary sibling, synced, and renamed
        into place — a crash leaves either the old snapshot set or the
        new one, never a partial file.  A *failed* write (``ENOSPC``,
        fsync error) removes the temporary and re-raises with the
        previous snapshot set fully intact.  The WAL is then rotated
        onto a fresh segment based at ``seq`` and stale files are
        pruned.  Returns the published path.
        """
        blob = encode_snapshot(sketch, seq)
        final = os.path.join(self._dir, f"snapshot.{seq:020d}.rsnap")
        tmp = final + ".tmp"
        try:
            with open(tmp, "wb") as fh:
                self._write(fh, blob, tmp)
                fh.flush()
                self._sync(fh, tmp)
            self._replace(tmp, final)
        except OSError:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
        self._rotate_wal(seq)
        self._prune()
        return final

    def _rotate_wal(self, base_seq: int) -> None:
        if self._wal is not None:
            self._wal.close()
        path = os.path.join(self._dir, f"wal.{base_seq:020d}.rwal")
        # Truncate any leftover segment at this base: a same-named file can
        # only predate the snapshot just published when it carries no valid
        # records (otherwise recovery would have replayed them and the new
        # snapshot would sit at a higher sequence), and appending after a
        # torn tail would hide every later record from replay.
        self._wal = open(path, "wb")
        self._wal.write(_WAL_HEADER.pack(WAL_MAGIC, WAL_VERSION, base_seq))
        self._wal.flush()
        self._wal_base = base_seq
        self._wal_path = path
        self._wal_poisoned = False

    def _prune(self) -> None:
        snapshots = self._listing(_SNAP_NAME)
        for _seq, path in snapshots[: -self._keep]:
            os.remove(path)
        kept = [seq for seq, _path in snapshots[-self._keep :]]
        if not kept:
            return
        oldest_needed = kept[0]
        for base, path in self._listing(_WAL_NAME):
            # A segment based before the oldest retained snapshot can only
            # hold records that snapshot already covers.
            if base < oldest_needed and base != self._wal_base:
                os.remove(path)

    # -- write-ahead log -------------------------------------------------------

    def append_wal(self, record: bytes) -> int:
        """Append one encoded micro-batch record; returns the bytes written.

        ``record`` is one :func:`encode_wal_record` result; the pipeline
        encodes each micro-batch once and ships the same bytes to its
        followers.  Must be called *before* the batch is applied to the
        sketch — that ordering is what makes every applied batch
        recoverable.

        A failed append (``ENOSPC``, fsync failure) may leave a torn
        record at the segment tail, which recovery discards by CRC — but
        a *later* successful append after that tail would hide itself
        and every subsequent record from replay.  So a failed append
        **poisons** the segment: the error propagates (the pipeline
        fails fast; the batch was never applied) and every further
        append raises until a checkpoint rotates onto a fresh segment.
        No record is ever torn *and* accepted.
        """
        if self._wal is None:
            raise SerializationError(
                "no WAL segment open; write_snapshot establishes one"
            )
        if self._wal_poisoned:
            raise SerializationError(
                f"WAL segment {self._wal_path!r} poisoned by an earlier "
                "failed append; a checkpoint must rotate onto a fresh segment"
            )
        try:
            self._write(self._wal, record, self._wal_path or "")
            self._wal.flush()
            if self._fsync:
                self._sync(self._wal, self._wal_path or "")
        except OSError:
            self._wal_poisoned = True
            raise
        return len(record)

    @staticmethod
    def _read_records(path: str) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield valid ``(seq, items, weights)`` records from one segment.

        Reading stops silently at the first torn or corrupt record — the
        crash-tail case the WAL design explicitly allows — but a segment
        whose *header* is unreadable raises, since that is never a torn
        tail.
        """
        with open(path, "rb") as fh:
            header = fh.read(_WAL_HEADER.size)
            if len(header) < _WAL_HEADER.size:
                raise SerializationError(f"WAL segment {path!r} has no header")
            magic, version, _base = _WAL_HEADER.unpack(header)
            if magic != WAL_MAGIC:
                raise SerializationError(f"bad WAL magic {magic!r} in {path!r}")
            if version != WAL_VERSION:
                raise SerializationError(f"unsupported WAL version {version}")
            while True:
                head = fh.read(_WAL_RECORD.size)
                if len(head) < _WAL_RECORD.size:
                    return  # clean EOF or torn record header
                seq, count, stored_crc = parse_wal_record_header(head)
                payload = fh.read(16 * count)
                if len(payload) < 16 * count:
                    return  # torn payload
                try:
                    items, weights = decode_wal_payload(
                        seq, count, stored_crc, payload
                    )
                except SerializationError:
                    return  # corrupt record: discard it and the tail
                yield seq, items, weights

    # -- recovery --------------------------------------------------------------

    def recover(self):
        """Rebuild ``(sketch, seq)`` from the newest usable checkpoint.

        Snapshots are tried newest-first; a corrupt newer snapshot is
        **quarantined** — renamed to ``<name>.corrupt`` with a logged
        warning so an operator can inspect it — before falling back to
        the previous one.  The WAL segments are then replayed
        through the same ``update_batch`` engine with the same batch
        boundaries the live pipeline used, which lands — PRNG state
        included — exactly where an uninterrupted run would be.  Returns
        ``None`` when the directory holds no snapshot at all.
        """
        snapshots = self._listing(_SNAP_NAME)
        sketch = None
        snap_seq = 0
        for seq, path in reversed(snapshots):
            try:
                with open(path, "rb") as fh:
                    blob = fh.read()
            except OSError:
                continue  # unreadable file: nothing to quarantine
            try:
                sketch, snap_seq = decode_snapshot(blob)
                break
            except SerializationError as exc:
                quarantine = path + ".corrupt"
                with contextlib.suppress(OSError):
                    os.replace(path, quarantine)
                logger.warning(
                    "quarantined corrupt snapshot %s -> %s (%s); "
                    "falling back to the previous checkpoint",
                    path, quarantine, exc,
                )
                continue
        if sketch is None:
            return None
        next_seq = snap_seq + 1
        for _base, path in self._listing(_WAL_NAME):
            for seq, items, weights in self._read_records(path):
                if seq < next_seq:
                    continue  # already covered by the snapshot
                if seq > next_seq:
                    raise SerializationError(
                        f"WAL gap: expected record {next_seq}, found {seq}"
                    )
                sketch.update_batch(items, weights)
                next_seq += 1
        return sketch, next_seq - 1

    # -- timeline reset --------------------------------------------------------

    def reset_timeline(self, sketch, seq: int) -> str:
        """Discard every on-disk artifact and re-base at ``(sketch, seq)``.

        Used when a fenced ex-leader adopts a new leader's timeline: its
        own WAL may hold a diverged suffix (records the new leader never
        shipped), and recovery replays *all* segments after the newest
        snapshot — so nothing old can be trusted.  Everything is
        removed, then a fresh snapshot of the adopted state is
        published, establishing a clean WAL segment.  Returns the new
        snapshot path.
        """
        if self._wal is not None:
            self._wal.close()
            self._wal = None
            self._wal_base = None
            self._wal_path = None
        for _seq, path in self._listing(_SNAP_NAME) + self._listing(_WAL_NAME):
            with contextlib.suppress(OSError):
                os.remove(path)
        return self.write_snapshot(sketch, seq)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Close the open WAL segment (no snapshot is taken)."""
        if self._wal is not None:
            self._wal.close()
            self._wal = None
            self._wal_base = None
            self._wal_path = None

    def __enter__(self) -> "SnapshotManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
