"""The asyncio ingest loop: bounded intake, micro-batching, durability.

:class:`IngestPipeline` is the always-on deployment shape of the sketch:
any number of concurrent producers push array batches through
:meth:`~IngestPipeline.submit`, a single drain task coalesces whatever
has accumulated into *micro-batches* — flushed when they reach
``max_batch_items`` or when ``flush_interval`` elapses, whichever comes
first — and applies each micro-batch through the sketch's vectorized
``update_batch`` engine.  Three properties fall out of the design:

**Backpressure.**  The intake queue is bounded by ``max_pending_items``
(counted in updates, not submissions).  ``submit`` awaits until the
backlog fits, so a burst of producers slows to the sketch's sustainable
ingest rate instead of growing memory without bound.  A submission
larger than the whole bound is admitted alone once the queue is empty.

**Consistent queries without stalling ingest.**  Each micro-batch is
applied in one synchronous call on the event loop, so every coroutine —
query handlers included — only ever observes the sketch *between*
micro-batches.  Queries are plain method calls; they never block ingest
beyond their own running time and need no locks.

**Durability.**  With a :class:`~repro.service.snapshot.SnapshotManager`
attached, every micro-batch is appended to the write-ahead log before it
is applied, and a checkpoint (sketch wire format + PRNG states) is
published every ``snapshot_every_batches`` micro-batches.  Because
recovery replays the logged batches through the same engine with the
same boundaries, a recovered pipeline is bit-identical — serialized
bytes and future sampling decisions — to one that never stopped.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import (
    InvalidParameterError,
    ReadOnlyReplicaError,
    ReplicationError,
    ServiceClosedError,
)
from repro.service.snapshot import SnapshotManager, encode_wal_record
from repro.streams.model import as_batch

#: Cap on remembered client resume sessions; oldest are evicted first.
#: Each entry is ~100 bytes, so the bound is memory safety, not policy.
MAX_RESUME_SESSIONS = 1024


@dataclass
class PipelineConfig:
    """Tuning knobs for one :class:`IngestPipeline`.

    Attributes
    ----------
    max_batch_items:
        Size trigger: a micro-batch is flushed once it holds at least
        this many updates.  Larger batches amortize the per-call engine
        cost further; the default matches the bench sweet spot.
    flush_interval:
        Time trigger, in seconds: a non-empty micro-batch is flushed at
        most this long after its first update arrived, bounding the
        staleness queries can observe under light traffic.
    max_pending_items:
        Backpressure bound on queued-but-unapplied updates; ``submit``
        awaits while the backlog would exceed it.
    snapshot_every_batches:
        With a snapshot manager attached, publish a checkpoint every
        this many applied micro-batches (the WAL covers the tail).
    """

    max_batch_items: int = 8_192
    flush_interval: float = 0.01
    max_pending_items: int = 131_072
    snapshot_every_batches: int = 64

    def __post_init__(self) -> None:
        if self.max_batch_items < 1:
            raise InvalidParameterError(
                f"max_batch_items must be positive, got {self.max_batch_items}"
            )
        if self.flush_interval <= 0:
            raise InvalidParameterError(
                f"flush_interval must be positive, got {self.flush_interval}"
            )
        if self.max_pending_items < 1:
            raise InvalidParameterError(
                f"max_pending_items must be positive, got {self.max_pending_items}"
            )
        if self.snapshot_every_batches < 1:
            raise InvalidParameterError(
                "snapshot_every_batches must be positive, got "
                f"{self.snapshot_every_batches}"
            )


@dataclass
class ServiceStats:
    """Operational counters for one pipeline (monotonic since start)."""

    submitted_batches: int = 0
    submitted_items: int = 0
    applied_batches: int = 0
    applied_items: int = 0
    size_flushes: int = 0
    time_flushes: int = 0
    backpressure_waits: int = 0
    peak_pending_items: int = 0
    wal_records: int = 0
    wal_bytes: int = 0
    snapshots_written: int = 0

    def as_dict(self) -> dict:
        return {
            "submitted_batches": self.submitted_batches,
            "submitted_items": self.submitted_items,
            "applied_batches": self.applied_batches,
            "applied_items": self.applied_items,
            "size_flushes": self.size_flushes,
            "time_flushes": self.time_flushes,
            "backpressure_waits": self.backpressure_waits,
            "peak_pending_items": self.peak_pending_items,
            "wal_records": self.wal_records,
            "wal_bytes": self.wal_bytes,
            "snapshots_written": self.snapshots_written,
        }


class IngestPipeline:
    """Concurrent producers in, micro-batched sketch updates out.

    Parameters
    ----------
    sketch:
        The summary to serve — a flat ``FrequentItemsSketch``, a
        ``ShardedFrequentItemsSketch``, or anything else exposing
        ``update_batch(items, weights)`` plus the query surface
        (``estimate`` / ``estimate_batch`` / ``heavy_hitters`` / ...).
        Snapshotting additionally requires the flat or sharded wire
        format (the time-fading sketch can ride the pipeline, but not
        checkpoint yet).
    config:
        A :class:`PipelineConfig`; defaults throughout when omitted.
    snapshots:
        An optional :class:`~repro.service.snapshot.SnapshotManager`.
        When given, :meth:`start` publishes a baseline checkpoint (so a
        WAL segment always exists) and every applied micro-batch is
        WAL-logged first.

    Examples
    --------
    >>> import asyncio
    >>> import numpy as np
    >>> from repro import FrequentItemsSketch
    >>> async def demo():
    ...     pipeline = IngestPipeline(FrequentItemsSketch(64, seed=1))
    ...     async with pipeline:
    ...         await pipeline.submit(np.array([7, 7, 8], dtype=np.uint64))
    ...         await pipeline.drain()
    ...         return pipeline.estimate(7)
    >>> asyncio.run(demo())
    2.0
    """

    def __init__(
        self,
        sketch,
        *,
        config: Optional[PipelineConfig] = None,
        snapshots: Optional[SnapshotManager] = None,
        applied_seq: int = 0,
        replication=None,
        replica: bool = False,
    ) -> None:
        self._sketch = sketch
        self._config = config if config is not None else PipelineConfig()
        self._snapshots = snapshots
        self._replication = replication
        self._replica = replica
        self._epoch = 0
        self._applied_seq = applied_seq
        #: ``{session_id: highest applied frame_seq}`` — the BINS dedup
        #: registry.  It lives on the pipeline (not the server) because
        #: replicated frames carry the stamps: a promoted follower knows
        #: every frame the old leader applied, so client resubmits after
        #: a failover stay exactly-once.
        self.resume_sessions: dict = {}
        self._last_snapshot_seq = applied_seq
        self._queue: deque = deque()
        self._pending_items = 0
        self._stats = ServiceStats()
        self._running = False
        self._stopping = False
        self._flush_asap = False
        self._fault: Optional[BaseException] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._data_event: Optional[asyncio.Event] = None
        self._space_event: Optional[asyncio.Event] = None
        self._idle_event: Optional[asyncio.Event] = None

    # -- construction helpers --------------------------------------------------

    @classmethod
    def recover(
        cls,
        snapshots: SnapshotManager,
        *,
        config: Optional[PipelineConfig] = None,
        replication=None,
        replica: bool = False,
    ) -> "IngestPipeline":
        """A pipeline resuming from ``snapshots``'s newest checkpoint.

        Raises :class:`~repro.errors.SerializationError` via the manager
        on corrupt state; raises ``ServiceClosedError`` when the
        directory has no checkpoint to resume from.
        """
        recovered = snapshots.recover()
        if recovered is None:
            raise ServiceClosedError(
                f"no snapshot to recover from in {snapshots.directory!r}"
            )
        sketch, seq = recovered
        return cls(
            sketch, config=config, snapshots=snapshots, applied_seq=seq,
            replication=replication, replica=replica,
        )

    # -- introspection ---------------------------------------------------------

    @property
    def sketch(self):
        """The served summary (consistent between micro-batches)."""
        return self._sketch

    @property
    def config(self) -> PipelineConfig:
        return self._config

    @property
    def stats(self) -> ServiceStats:
        return self._stats

    def stats_dict(self) -> dict:
        """The ``STATS`` payload: role, watermarks, sketch size and error
        bound, then the :class:`ServiceStats` counters."""
        sketch = self._sketch
        return {
            "role": self.role,
            "applied_seq": self._applied_seq,
            "pending_items": self._pending_items,
            "stream_weight": sketch.stream_weight,
            "num_active": getattr(sketch, "num_active", None),
            "maximum_error": sketch.maximum_error,
            **self._stats.as_dict(),
        }

    @property
    def applied_seq(self) -> int:
        """Sequence number of the last applied micro-batch."""
        return self._applied_seq

    @property
    def pending_items(self) -> int:
        """Updates submitted but not yet applied."""
        return self._pending_items

    @property
    def is_running(self) -> bool:
        return self._running and not self._stopping

    @property
    def is_replica(self) -> bool:
        """True while this pipeline only accepts replicated frames."""
        return self._replica

    @property
    def fault(self) -> Optional[BaseException]:
        """The error that killed the drain task, if it died (else None).

        A faulted pipeline fails every submit; health checks (the
        failover coordinator's self-fencing, tests) read this instead of
        provoking a write.
        """
        return self._fault

    @property
    def role(self) -> str:
        return "follower" if self._replica else "leader"

    @property
    def epoch(self) -> int:
        """The leadership epoch this pipeline last observed.

        Zero until a :class:`~repro.service.failover.FailoverCoordinator`
        (or an epoch-aware replication handshake) stamps it.  A leader
        publishes every frame under its epoch; a follower rejects frames
        from any lower epoch — the fence that keeps a deposed leader's
        writes out.
        """
        return self._epoch

    @epoch.setter
    def epoch(self, value: int) -> None:
        if value < 0:
            raise InvalidParameterError(f"epoch must be >= 0, got {value}")
        self._epoch = value
        if self._replication is not None:
            self._replication.epoch = value

    @property
    def replication(self):
        """The attached leader-side replication manager, if any."""
        return self._replication

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> "IngestPipeline":
        """Start the drain task (idempotent); returns self."""
        if self._running:
            return self
        self._data_event = asyncio.Event()
        self._space_event = asyncio.Event()
        self._idle_event = asyncio.Event()
        self._idle_event.set()
        self._running = True
        self._stopping = False
        if self._snapshots is not None:
            # Establish the baseline checkpoint + WAL segment.  On a fresh
            # directory this is the empty-sketch snapshot at sequence 0; on
            # recovery it compacts the replayed WAL into a new baseline.
            self._snapshots.write_snapshot(self._sketch, self._applied_seq)
            self._last_snapshot_seq = self._applied_seq
            self._stats.snapshots_written += 1
        self._drain_task = asyncio.get_running_loop().create_task(
            self._drain_loop(), name="repro-ingest-drain"
        )
        return self

    async def stop(self, *, final_snapshot: bool = True) -> None:
        """Drain queued work, optionally checkpoint, and shut down.

        With ``final_snapshot=False`` the pipeline stops exactly as a
        crash would leave it (modulo OS buffers): applied batches are in
        the WAL, no fresh checkpoint is taken — the recovery tests use
        this to simulate kill-at-arbitrary-point.  If the drain task
        died of an unexpected error, that error re-raises here (and no
        final checkpoint is taken — the sketch may hold a partially
        applied batch; the WAL is the source of truth).
        """
        if not self._running:
            if self._fault is not None:
                raise ServiceClosedError(
                    f"pipeline failed: {self._fault!r}"
                ) from self._fault
            return
        self._stopping = True
        assert self._data_event is not None
        self._data_event.set()
        try:
            if self._drain_task is not None:
                task = self._drain_task
                self._drain_task = None
                await task
        finally:
            self._running = False
            if self._snapshots is not None:
                if final_snapshot and self._fault is None:
                    self._snapshots.write_snapshot(
                        self._sketch, self._applied_seq
                    )
                    self._last_snapshot_seq = self._applied_seq
                    self._stats.snapshots_written += 1
                self._snapshots.close()

    async def __aenter__(self) -> "IngestPipeline":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # -- intake ----------------------------------------------------------------

    async def submit(
        self, items, weights=None, *, wait_applied: bool = False, stamp=None
    ):
        """Enqueue one batch of weighted updates.

        Validates exactly like ``update_batch`` (a rejected batch is a
        no-op), then awaits until the backlog has room — that await *is*
        the backpressure.  With ``wait_applied=True`` the call returns
        only after the micro-batch containing these updates has been
        applied (and, when durability is on, WAL-logged).  ``stamp`` is
        an optional ``(session_id, frame_seq)`` client idempotency stamp
        (the ``BINS`` path): it is recorded in :attr:`resume_sessions`
        at apply time and shipped with the replicated frame, so a
        resubmit of the same frame — to this node or to a promoted
        follower — is recognized as a duplicate.
        """
        if self._replica:
            raise ReadOnlyReplicaError(
                "this pipeline is a read replica; writes go to the leader "
                "(promote() lifts the restriction)"
            )
        if not self.is_running:
            raise ServiceClosedError("pipeline is not accepting updates")
        items, weights = as_batch(items, weights)
        n = items.shape[0]
        if n == 0:
            return
        assert self._space_event is not None and self._data_event is not None
        config = self._config
        waited = False
        while self._pending_items and (
            self._pending_items + n > config.max_pending_items
        ):
            if not self.is_running:
                raise ServiceClosedError("pipeline stopped while awaiting space")
            waited = True
            self._space_event.clear()
            await self._space_event.wait()
        if waited:
            self._stats.backpressure_waits += 1
        if not self.is_running:
            # The pipeline stopped while this producer held its place in
            # line; enqueueing now would lose the batch silently.
            raise ServiceClosedError("pipeline stopped while awaiting space")
        future: Optional[asyncio.Future] = None
        if wait_applied:
            future = asyncio.get_running_loop().create_future()
        self._queue.append((items, weights, future, stamp))
        self._pending_items += n
        if self._pending_items > self._stats.peak_pending_items:
            self._stats.peak_pending_items = self._pending_items
        self._stats.submitted_batches += 1
        self._stats.submitted_items += n
        assert self._idle_event is not None
        self._idle_event.clear()
        self._data_event.set()
        if future is not None:
            await future

    async def update(self, item: int, weight: float = 1.0) -> None:
        """Scalar convenience wrapper over :meth:`submit`."""
        await self.submit(
            np.array([item], dtype=np.uint64), np.array([weight], dtype=np.float64)
        )

    async def drain(self) -> None:
        """Await until every submitted update has been applied.

        Drain cuts the coalescing window short: a pending micro-batch is
        applied as soon as the intake queue empties instead of waiting
        out ``flush_interval``.
        """
        if self._idle_event is None:
            raise ServiceClosedError("pipeline is not started")
        if self._fault is not None:
            raise ServiceClosedError(
                f"pipeline failed: {self._fault!r}"
            ) from self._fault
        if self._idle_event.is_set():
            return
        self._flush_asap = True
        assert self._data_event is not None
        self._data_event.set()
        try:
            await self._idle_event.wait()
        finally:
            self._flush_asap = False
        if self._fault is not None:
            raise ServiceClosedError(
                f"pipeline failed: {self._fault!r}"
            ) from self._fault

    # -- the drain task --------------------------------------------------------

    async def _drain_loop(self) -> None:
        """Run the drain loop; on an unexpected error, fail fast and loud.

        A dying drain task must not wedge the pipeline: the fault flips
        the pipeline to stopped (so new submits raise), fails every
        queued and in-flight ``wait_applied`` future, and wakes all
        waiters.  The error itself re-raises so :meth:`stop` (or the
        task's own traceback, if stop is never called) surfaces it.
        """
        try:
            await self._drain_loop_inner()
        except BaseException as exc:
            self._fault = exc
            self._stopping = True
            failure = ServiceClosedError(f"pipeline failed: {exc!r}")
            while self._queue:
                items, _weights, future, _stamp = self._queue.popleft()
                self._pending_items -= items.shape[0]
                if future is not None and not future.done():
                    future.set_exception(failure)
            assert self._space_event is not None and self._idle_event is not None
            self._space_event.set()
            self._idle_event.set()
            raise

    async def _drain_loop_inner(self) -> None:
        config = self._config
        queue = self._queue
        data = self._data_event
        loop = asyncio.get_running_loop()
        assert data is not None
        expired = False

        def expire() -> None:
            # The flag, not loop.time(), is the verdict: asyncio may run
            # a timer up to clock_resolution before its deadline.
            nonlocal expired
            expired = True
            data.set()

        while True:
            if not queue:
                if self._stopping:
                    break
                data.clear()
                if not queue:  # re-check: submit may have landed before clear
                    await data.wait()
                continue
            parts = []
            total = 0
            size_flush = False
            # One deadline per micro-batch window, armed after the flag
            # is reset and cancelled however the window closes, so no
            # stale timer can cut a later window short.
            expired = False
            timer = loop.call_at(loop.time() + config.flush_interval, expire)
            try:
                while True:
                    while queue and total < config.max_batch_items:
                        part = queue.popleft()
                        parts.append(part)
                        total += part[0].shape[0]
                    if total >= config.max_batch_items:
                        size_flush = True
                        break
                    if self._stopping or expired:
                        break
                    if not queue and (
                        self._flush_asap
                        or any(part[2] is not None for part in parts)
                    ):
                        # Someone is awaiting application (wait_applied
                        # futures or a drain() call): making them sit out
                        # the rest of the coalescing window would buy
                        # nothing — the queue is already empty.
                        break
                    # No await since the pop loop drained it, so the queue
                    # is empty here; wait for more data or the deadline.
                    data.clear()
                    await data.wait()
            finally:
                timer.cancel()
            self._apply(parts, total, size_flush)
        # The loop only exits with the queue empty and every collected
        # part applied: submits after _stopping raise ServiceClosedError,
        # so nothing can straggle in behind the final _apply.

    def _apply(self, parts: list, total: int, size_flush: bool) -> None:
        """Apply one coalesced micro-batch synchronously (atomic on the loop)."""
        if not parts:
            return
        if len(parts) == 1:
            items, weights, _future, _stamp = parts[0]
        else:
            items = np.concatenate([part[0] for part in parts])
            weights = np.concatenate([part[1] for part in parts])
        stamps = tuple(part[3] for part in parts if part[3] is not None)
        seq = self._applied_seq + 1

        def settle() -> None:
            self._pending_items -= total
            stats = self._stats
            if size_flush:
                stats.size_flushes += 1
            else:
                stats.time_flushes += 1
            for part in parts:
                future = part[2]
                if future is not None and not future.done():
                    future.set_result(seq)
            assert self._space_event is not None and self._idle_event is not None
            self._space_event.set()
            if not self._queue:
                self._idle_event.set()

        try:
            self._commit(seq, items, weights, stamps, settle)
        except BaseException as exc:
            if self._applied_seq != seq:
                # Nothing was applied, and these parts are no longer in
                # the queue, so the fault handler cannot see them:
                # settle their accounting here.
                self._pending_items -= total
                failure = ServiceClosedError(f"pipeline failed: {exc!r}")
                for part in parts:
                    future = part[2]
                    if future is not None and not future.done():
                        future.set_exception(failure)
            raise

    def _commit(self, seq: int, items, weights, stamps, settle=None) -> None:
        """The one commit step of a micro-batch, on any node or worker.

        In order: WAL append, one ``update_batch`` call, the applied
        sequence and counters, the idempotency stamps, the replication
        publish, ``settle`` (the leader answers its waiters here), and
        the checkpoint when the cadence is due.  Recovery replays the
        logged batches through the same engine with the same
        boundaries, which is what makes it bit-identical.  The RWAL
        record is encoded once, here, and the same bytes go to the WAL
        and into the replication frame.
        """
        stats = self._stats
        record = None
        if self._snapshots is not None or self._replication is not None:
            record = encode_wal_record(seq, items, weights)
        if self._snapshots is not None:
            stats.wal_bytes += self._snapshots.append_wal(record)
            stats.wal_records += 1
        self._sketch.update_batch(items, weights)
        self._applied_seq = seq
        stats.applied_batches += 1
        stats.applied_items += items.shape[0]
        for session, frame_seq in stamps:
            self.note_stamp(session, frame_seq)
        if self._replication is not None:
            # Publish the applied micro-batch with its exact boundaries:
            # followers replay the identical update_batch calls, which is
            # what makes replica state byte-identical to the leader's.
            # A follower publishes too, to feed its own followers.
            self._replication.publish(seq, record, stamps)
        if settle is not None:
            settle()
        if (
            self._snapshots is not None
            and seq - self._last_snapshot_seq >= self._config.snapshot_every_batches
        ):
            self.snapshot_now()

    # -- replication (follower side) -------------------------------------------

    def note_stamp(self, session: str, frame_seq: int) -> None:
        """Record a ``(session, frame_seq)`` idempotency stamp.

        The registry keeps the highest applied frame sequence per client
        session, bounded at :data:`MAX_RESUME_SESSIONS` entries with
        oldest-first eviction.
        """
        sessions = self.resume_sessions
        if session not in sessions and len(sessions) >= MAX_RESUME_SESSIONS:
            sessions.pop(next(iter(sessions)))
        if sessions.get(session, -1) < frame_seq:
            sessions[session] = frame_seq

    def seen_stamp(self, session: str, frame_seq: int) -> bool:
        """True when this frame (or a later one) was already applied."""
        return self.resume_sessions.get(session, -1) >= frame_seq

    def apply_frame(self, seq: int, items, weights, stamps=()) -> bool:
        """Commit one micro-batch whose boundaries were fixed elsewhere.

        Followers call this with the leader's replicated frames, and
        cluster workers with the acceptor's fixed-size ring frames.  It
        runs the coalescing path's commit step (:meth:`_commit`):
        WAL-append first, then one synchronous ``update_batch`` call —
        so the snapshot directory recovers exactly like a leader's
        would.  A frame at or below the applied sequence is a duplicate
        delivery (the leader resent after a reconnect) and is skipped,
        returning ``False``; a frame beyond ``applied_seq + 1`` is a gap
        and raises :class:`~repro.errors.ReplicationError` — applying it
        would silently diverge from the leader.
        """
        if seq <= self._applied_seq:
            return False
        if seq != self._applied_seq + 1:
            raise ReplicationError(
                f"replication gap: expected frame {self._applied_seq + 1}, "
                f"got {seq}"
            )
        self._commit(seq, items, weights, stamps)
        return True

    def install_snapshot(self, sketch, seq: int) -> None:
        """Replace the served sketch with a leader-shipped checkpoint.

        Used for follower bootstrap and seq-gap catch-up.  The installed
        state is immediately re-checkpointed locally (when durability is
        on), so the follower's own directory stays recoverable.  Refuses
        to rewind: a snapshot at or below the applied sequence would
        silently discard applied frames.
        """
        if seq < self._applied_seq:
            raise ReplicationError(
                f"refusing to install snapshot at seq {seq} below "
                f"applied seq {self._applied_seq}"
            )
        self._sketch = sketch
        self._applied_seq = seq
        if self._snapshots is not None:
            self._snapshots.write_snapshot(sketch, seq)
            self._last_snapshot_seq = seq
            self._stats.snapshots_written += 1

    def reset_to_snapshot(self, sketch, seq: int) -> None:
        """Adopt a new leader's checkpoint, rewinding if necessary.

        The fenced-rejoin twin of :meth:`install_snapshot`: a deposed
        ex-leader demoting into a newer epoch may hold a *diverged*
        suffix (frames it applied that the new leader never shipped), so
        the adopted snapshot is allowed to land below ``applied_seq``
        and the local durability timeline is wiped and re-based on it —
        old WAL segments could replay the diverged records otherwise.
        """
        self._sketch = sketch
        self._applied_seq = seq
        if self._snapshots is not None:
            self._snapshots.reset_timeline(sketch, seq)
            self._last_snapshot_seq = seq
            self._stats.snapshots_written += 1

    def promote(self) -> int:
        """Lift the read-replica restriction; returns the applied seq.

        Idempotent: promoting a pipeline that already leads is a no-op.
        The caller (normally :class:`~repro.service.replication.
        FollowerService`) is responsible for having stopped the
        replication stream first — a promoted pipeline accepting both
        client writes and leader frames would fork.
        """
        self._replica = False
        return self._applied_seq

    def demote(self) -> int:
        """Flip this pipeline back to read-replica mode; returns the seq.

        The fencing half of a leadership change: a deposed leader must
        stop accepting writes *before* it adopts the new leader's
        timeline, or a late client write would fork it again.  Queued
        (not yet applied) submissions still drain — they were accepted
        while this node led and are about to be discarded anyway when
        the new timeline is adopted.  Idempotent on a follower.
        """
        self._replica = True
        return self._applied_seq

    # -- durability ------------------------------------------------------------

    def snapshot_now(self) -> Optional[str]:
        """Publish a checkpoint at the current applied sequence.

        Safe to call from any coroutine: applies are synchronous on the
        event loop, so the sketch is always between micro-batches here.
        Returns the published path, or ``None`` without a manager.
        """
        if self._snapshots is None:
            return None
        path = self._snapshots.write_snapshot(self._sketch, self._applied_seq)
        self._last_snapshot_seq = self._applied_seq
        self._stats.snapshots_written += 1
        return path

    # -- queries (consistent between micro-batches) ----------------------------

    def estimate(self, item: int) -> float:
        return self._sketch.estimate(item)

    def estimate_batch(self, items) -> np.ndarray:
        return self._sketch.estimate_batch(items)

    def lower_bound(self, item: int) -> float:
        return self._sketch.lower_bound(item)

    def upper_bound(self, item: int) -> float:
        return self._sketch.upper_bound(item)

    def heavy_hitters(self, phi: float, *args, **kwargs):
        return self._sketch.heavy_hitters(phi, *args, **kwargs)

    def frequent_items(self, *args, **kwargs):
        return self._sketch.frequent_items(*args, **kwargs)

    def to_rows(self):
        return self._sketch.to_rows()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IngestPipeline(seq={self._applied_seq}, "
            f"pending={self._pending_items}, running={self.is_running}, "
            f"sketch={self._sketch!r})"
        )
