"""The shared-memory frame ring: layout, SPSC protocol, zero-copy views.

All in-process (producer and consumer are the same process mapping the
same segment) — the cross-process behaviour rides on the cluster suites.
The byte-offset test pins the RSHM layout documented in
``docs/serialization.md``: moving a field is a format break and must
show up here.
"""

import asyncio

import numpy as np
import pytest

from repro.errors import ClusterError, InvalidParameterError
from repro.service import cluster
from repro.service.frames import (
    RING_HEADER_SIZE,
    RING_MAGIC,
    RING_VERSION,
    SLOT_HEADER_SIZE,
    SharedFrameRing,
    ring_segment_size,
    shared_memory_available,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable",
)


@pytest.fixture
def ring():
    ring = SharedFrameRing.create(slots=4, slot_capacity=8)
    yield ring
    ring.close()


def frame(n, tenant=1, start=0):
    items = np.arange(start, start + n, dtype=np.uint64)
    weights = np.linspace(1.0, 2.0, n)
    return tenant, items, weights


def test_segment_size():
    assert ring_segment_size(4, 8) == (
        RING_HEADER_SIZE + 4 * (SLOT_HEADER_SIZE + 16 * 8)
    )


def test_roundtrip_one_frame(ring):
    tenant, items, weights = frame(5, tenant=3)
    seq = ring.write(tenant, items, weights)
    assert seq == 1
    got = ring.peek()
    assert got is not None
    got_seq, got_tenant, got_items, got_weights = got
    assert (got_seq, got_tenant) == (1, 3)
    np.testing.assert_array_equal(got_items, items)
    np.testing.assert_array_equal(got_weights, weights)
    ring.commit(1)
    assert ring.peek() is None
    assert ring.consumed_seq() == 1


def test_empty_ring_peeks_none(ring):
    assert ring.peek() is None
    assert ring.produced_seq() == 0
    assert ring.consumed_seq() == 0


def test_fill_drain_wraparound(ring):
    # Three full laps around a 4-slot ring.
    next_read = 1
    for seq in range(1, 13):
        assert ring.has_space()
        ring.write(*frame(seq % 8 + 1, tenant=seq, start=seq))
        if seq % 2 == 0:  # drain two at a time
            for _ in range(2):
                got = ring.peek()
                assert got is not None and got[0] == next_read
                assert got[1] == next_read  # tenant stamped per frame
                ring.commit(next_read)
                next_read += 1
    assert ring.produced_seq() == 12
    assert ring.consumed_seq() == 12


def test_backpressure_when_full(ring):
    for seq in range(1, 5):
        ring.write(*frame(2, start=seq))
    assert not ring.has_space()
    ring.commit(ring.peek()[0])
    assert ring.has_space()


def test_out_of_order_commit_rejected(ring):
    ring.write(*frame(2))
    ring.write(*frame(2))
    with pytest.raises(ClusterError):
        ring.commit(2)


def test_oversized_frame_rejected(ring):
    tenant, items, weights = frame(9)
    with pytest.raises(InvalidParameterError):
        ring.write(tenant, items, weights)


def test_degenerate_geometry_rejected():
    with pytest.raises(InvalidParameterError):
        SharedFrameRing.create(slots=0, slot_capacity=8)
    with pytest.raises(InvalidParameterError):
        SharedFrameRing.create(slots=4, slot_capacity=0)


def test_attach_sees_writes(ring):
    tenant, items, weights = frame(4, tenant=7)
    ring.write(tenant, items, weights)
    attached = SharedFrameRing.attach(ring.name)
    try:
        assert attached.slots == ring.slots
        assert attached.slot_capacity == ring.slot_capacity
        got = attached.peek()
        assert got is not None and got[1] == 7
        np.testing.assert_array_equal(got[2], items)
        attached.commit(got[0])
        # The consumed watermark is visible to the creator immediately.
        assert ring.consumed_seq() == 1
    finally:
        # Views must die before the unmap (close() would otherwise have
        # to leak the mapping) — exactly the discipline the worker keeps.
        del got
        attached.close()


def test_attach_rejects_foreign_segment():
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(create=True, size=256)
    try:
        with pytest.raises(ClusterError):
            SharedFrameRing.attach(segment.name)
    finally:
        segment.close()
        segment.unlink()


def test_views_are_zero_copy(ring):
    tenant, items, weights = frame(3)
    ring.write(tenant, items, weights)
    got = ring.peek()
    assert got[2].base is not None  # a view into the segment, not a copy
    assert got[3].base is not None
    assert not got[2].flags.owndata
    assert not got[3].flags.owndata


def test_documented_byte_offsets(ring):
    """Pin the RSHM byte layout of docs/serialization.md, offset by
    offset, against a raw view of the segment."""
    tenant, items, weights = frame(3, tenant=0xABCD)
    ring.write(tenant, items, weights)
    raw = bytes(ring._segment.buf)

    # Ring header.
    assert raw[0:4] == RING_MAGIC                                  # magic @ 0
    assert int.from_bytes(raw[4:8], "little") == RING_VERSION      # version @ 4
    assert int.from_bytes(raw[8:12], "little") == ring.slots       # slots @ 8
    assert int.from_bytes(raw[12:16], "little") == ring.slot_capacity  # @ 12
    assert int.from_bytes(raw[16:24], "little") == 1               # produced @ 16
    assert int.from_bytes(raw[24:32], "little") == 0               # consumed @ 24

    # Slot 0 (sequence 1): header then payload arrays.
    base = RING_HEADER_SIZE
    assert int.from_bytes(raw[base : base + 8], "little") == 1     # frame_seq @ +0
    assert int.from_bytes(raw[base + 8 : base + 12], "little") == 0xABCD  # tenant @ +8
    assert int.from_bytes(raw[base + 12 : base + 16], "little") == 3      # count @ +12
    payload = base + SLOT_HEADER_SIZE
    np.testing.assert_array_equal(
        np.frombuffer(raw, dtype="<u8", count=3, offset=payload), items
    )
    np.testing.assert_array_equal(
        np.frombuffer(
            raw, dtype="<f8", count=3,
            offset=payload + 8 * ring.slot_capacity,
        ),
        weights,
    )

    # Slot 1 begins one header + one payload stride later.
    slot_stride = SLOT_HEADER_SIZE + 16 * ring.slot_capacity
    ring.write(*frame(2, tenant=5))
    raw = bytes(ring._segment.buf)
    base1 = RING_HEADER_SIZE + slot_stride
    assert int.from_bytes(raw[base1 : base1 + 8], "little") == 2
    assert int.from_bytes(raw[base1 + 8 : base1 + 12], "little") == 5


def test_pool_refuses_to_start_without_shared_memory(monkeypatch):
    """The ring is the only frame transport: without shared memory the
    pool raises a typed error before it forks a single worker."""
    monkeypatch.setattr(cluster, "shared_memory_available", lambda: False)
    pool = cluster.WorkerPool(cluster.ClusterConfig(num_workers=1))
    with pytest.raises(ClusterError, match="shared_memory"):
        asyncio.run(pool.start())
    assert pool.stats()["workers"] == []
