"""Zero-copy ingest frames between the acceptor and worker processes.

The cluster's hot path moves ``(items, weights)`` array batches from the
asyncio acceptor into worker processes.  Pickling arrays over a pipe
costs a serialize + copy + deserialize per frame; the
:class:`SharedFrameRing` replaces that with a single-producer /
single-consumer ring of fixed slots in one
``multiprocessing.shared_memory`` segment.  The acceptor copies the
incoming payload **once** into the slot's numpy views; the worker wraps
the same bytes in numpy views and feeds them *directly* to
``update_batch`` — zero copies on the consumer side, no pickling
anywhere.

Slot protocol (seqlock-style): every frame gets a monotonically
increasing sequence number; slot ``(seq - 1) % slots`` may be written
only when ``seq - consumed <= slots`` (the previous occupant has been
applied), the payload is written first and the slot header's
``frame_seq`` word is published **last**, and the consumer treats a slot
as ready only when ``frame_seq`` equals exactly the next sequence it
expects.  The consumer advances the ring-header ``consumed`` word only
after the frame has been fully applied (WAL-logged and ingested), so the
consumed watermark doubles as the cluster's applied-frame watermark —
the acceptor reads it straight out of shared memory and never needs an
acknowledgement message.  Both watermark words are 8-byte-aligned single
stores, and each word has exactly one writing process.

The byte layout (magic ``RSHM``) is documented field by field in
``docs/serialization.md`` and pinned by an offset-validation test.  The
ring is the cluster's only frame transport: a platform without
``multiprocessing.shared_memory`` cannot start a worker pool.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ClusterError, InvalidParameterError

try:  # pragma: no cover - import probe
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - minimal build without _posixshmem
    _shm = None  # type: ignore[assignment]

RING_MAGIC = b"RSHM"
RING_VERSION = 1

#: Ring header: magic(4) version(4) slots(4) slot_capacity(4)
#: produced(8) consumed(8), padded to one cache line.
RING_HEADER_SIZE = 64
#: Slot header: frame_seq(8) tenant_id(4) count(4), padded likewise.
SLOT_HEADER_SIZE = 64


def shared_memory_available() -> bool:
    """True when frame rings (and so the worker pool) work on this platform."""
    return _shm is not None


def ring_segment_size(slots: int, slot_capacity: int) -> int:
    """Total bytes of a ring segment with the given geometry."""
    return RING_HEADER_SIZE + slots * (
        SLOT_HEADER_SIZE + 16 * slot_capacity
    )


class SharedFrameRing:
    """One acceptor-to-worker frame ring in a shared-memory segment.

    Exactly one process may produce (:meth:`write`) and exactly one may
    consume (:meth:`peek` / :meth:`commit`); the pool enforces this by
    construction — the acceptor produces, the owning worker consumes.
    """

    def __init__(
        self, segment, slots: int, slot_capacity: int, *, owner: bool
    ) -> None:
        self._segment = segment
        self._slots = slots
        self._capacity = slot_capacity
        self._owner = owner
        buf = segment.buf
        self._magic = np.frombuffer(buf, dtype=np.uint8, count=4, offset=0)
        self._geometry = np.frombuffer(buf, dtype="<u4", count=3, offset=4)
        self._produced = np.frombuffer(buf, dtype="<u8", count=1, offset=16)
        self._consumed = np.frombuffer(buf, dtype="<u8", count=1, offset=24)
        self._slot_seq = []
        self._slot_meta = []
        self._slot_items = []
        self._slot_weights = []
        slot_bytes = SLOT_HEADER_SIZE + 16 * slot_capacity
        for index in range(slots):
            base = RING_HEADER_SIZE + index * slot_bytes
            self._slot_seq.append(
                np.frombuffer(buf, dtype="<u8", count=1, offset=base)
            )
            self._slot_meta.append(
                np.frombuffer(buf, dtype="<u4", count=2, offset=base + 8)
            )
            self._slot_items.append(
                np.frombuffer(
                    buf, dtype="<u8", count=slot_capacity,
                    offset=base + SLOT_HEADER_SIZE,
                )
            )
            self._slot_weights.append(
                np.frombuffer(
                    buf, dtype="<f8", count=slot_capacity,
                    offset=base + SLOT_HEADER_SIZE + 8 * slot_capacity,
                )
            )

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(cls, slots: int, slot_capacity: int) -> "SharedFrameRing":
        """Allocate a fresh segment (acceptor side; owns the unlink)."""
        if _shm is None:  # pragma: no cover - platform without shm
            raise ClusterError("shared memory is unavailable on this platform")
        if slots < 1 or slot_capacity < 1:
            raise InvalidParameterError(
                f"ring geometry must be positive, got slots={slots}, "
                f"slot_capacity={slot_capacity}"
            )
        segment = _shm.SharedMemory(
            create=True, size=ring_segment_size(slots, slot_capacity)
        )
        segment.buf[: RING_HEADER_SIZE] = bytes(RING_HEADER_SIZE)
        ring = cls(segment, slots, slot_capacity, owner=True)
        ring._magic[:] = np.frombuffer(RING_MAGIC, dtype=np.uint8)
        ring._geometry[:] = (RING_VERSION, slots, slot_capacity)
        return ring

    @classmethod
    def attach(cls, name: str) -> "SharedFrameRing":
        """Map an existing segment by name (worker side).

        The worker is *not* the owner, but ``SharedMemory(name=...)``
        registers the segment with the resource tracker anyway (fixed
        only in 3.13's ``track=False``), which would unlink it out from
        under the acceptor at worker exit.  Suppressing the registration
        during the attach keeps exactly one tracker entry: the owner's.
        """
        if _shm is None:  # pragma: no cover - platform without shm
            raise ClusterError("shared memory is unavailable on this platform")
        try:
            from multiprocessing import resource_tracker

            original_register = resource_tracker.register

            def _skip_shm(rt_name, rtype):  # pragma: no cover - trivial
                if rtype != "shared_memory":
                    original_register(rt_name, rtype)

            resource_tracker.register = _skip_shm
        except Exception:  # pragma: no cover - tracker internals moved
            resource_tracker = None  # type: ignore[assignment]
            original_register = None
        try:
            segment = _shm.SharedMemory(name=name)
        finally:
            if original_register is not None:
                resource_tracker.register = original_register
        header = bytes(segment.buf[:16])
        if header[:4] != RING_MAGIC:
            segment.close()
            raise ClusterError(f"segment {name!r} is not a frame ring")
        version, slots, capacity = np.frombuffer(
            header, dtype="<u4", count=3, offset=4
        )
        if int(version) != RING_VERSION:
            segment.close()
            raise ClusterError(f"unsupported frame ring version {version}")
        return cls(segment, int(slots), int(capacity), owner=False)

    # -- introspection ---------------------------------------------------------

    @property
    def name(self) -> str:
        return self._segment.name

    @property
    def slots(self) -> int:
        return self._slots

    @property
    def slot_capacity(self) -> int:
        return self._capacity

    def produced_seq(self) -> int:
        """Sequence of the newest published frame (producer watermark)."""
        return int(self._produced[0])

    def consumed_seq(self) -> int:
        """Sequence of the newest fully *applied* frame.

        Because the consumer commits only after the frame has been
        WAL-logged and ingested, this is the cluster's applied-frame
        watermark, readable by the acceptor without any message.
        """
        return int(self._consumed[0])

    # -- producer --------------------------------------------------------------

    def has_space(self) -> bool:
        """True when the next frame's slot has been released."""
        return (
            self.produced_seq() - self.consumed_seq() < self._slots
        )

    def write(self, tenant_id: int, items, weights) -> int:
        """Publish one frame; returns its sequence number.

        The caller must have confirmed :meth:`has_space` (the pool
        awaits it — that wait *is* the cross-process backpressure) and
        ``len(items) <= slot_capacity``.  Payload first, header last.
        """
        n = len(items)
        if n > self._capacity:
            raise InvalidParameterError(
                f"frame of {n} updates exceeds the slot capacity "
                f"{self._capacity}; chunk before writing"
            )
        seq = self.produced_seq() + 1
        index = (seq - 1) % self._slots
        self._slot_items[index][:n] = items
        self._slot_weights[index][:n] = weights
        self._slot_meta[index][:] = (tenant_id, n)
        self._slot_seq[index][0] = seq  # publish
        self._produced[0] = seq
        return seq

    # -- consumer --------------------------------------------------------------

    def peek(self) -> Optional[tuple[int, int, np.ndarray, np.ndarray]]:
        """The next unconsumed frame as zero-copy views, or ``None``.

        Returns ``(seq, tenant_id, items_view, weights_view)``; the
        views alias the slot until :meth:`commit` releases it, so the
        consumer must apply (or copy) before committing.
        """
        seq = self.consumed_seq() + 1
        index = (seq - 1) % self._slots
        if int(self._slot_seq[index][0]) != seq:
            return None
        tenant_id, count = (int(x) for x in self._slot_meta[index])
        return (
            seq,
            tenant_id,
            self._slot_items[index][:count],
            self._slot_weights[index][:count],
        )

    def commit(self, seq: int) -> None:
        """Mark ``seq`` applied, releasing its slot for reuse."""
        if seq != self.consumed_seq() + 1:
            raise ClusterError(
                f"frame commit out of order: expected "
                f"{self.consumed_seq() + 1}, got {seq}"
            )
        self._consumed[0] = seq

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Drop the numpy views and unmap (unlink too, when owner).

        Views must be released before the buffer can be unmapped; the
        caller is responsible for no longer holding frame views (the
        worker stops its pipelines — which drop queued views — first).
        """
        self._magic = self._geometry = None  # type: ignore[assignment]
        self._produced = self._consumed = None  # type: ignore[assignment]
        self._slot_seq = self._slot_meta = []  # type: ignore[assignment]
        self._slot_items = self._slot_weights = []  # type: ignore[assignment]
        try:
            self._segment.close()
        except BufferError:  # pragma: no cover - stray view still alive
            import gc

            gc.collect()
            try:
                self._segment.close()
            except BufferError:
                return  # leak the mapping rather than crash shutdown
        if self._owner:
            try:
                self._segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
