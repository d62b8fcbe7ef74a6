"""Leader/follower replication for the streaming ingest service.

The durability layer (PR 5) proved that a snapshot plus a WAL replayed
with the same micro-batch boundaries reproduces a pipeline's state to
the serialized byte — PRNG words included.  Replication is that same
property stretched over a socket: the leader publishes every applied
micro-batch as a binary frame in the exact RWAL record format, a
follower applies the identical ``update_batch`` calls in the identical
order, and replica correctness reduces to blob equality.  Mergeable
summaries make the fan-out cheap (the FDCMSS line of work leans on the
same composability); deterministic replay is what makes it *testable*.

Two halves:

:class:`ReplicationManager` — leader side, one per pipeline, beside the
:class:`~repro.service.snapshot.SnapshotManager`.  Keeps a bounded
in-memory ring of recently applied frames, a registry of subscribed
followers with per-follower ack tracking, and streams frames to each
follower over the connection it subscribed on (``REPL HELLO``).  A
follower whose next sequence has fallen out of the ring — a fresh
bootstrap, a long disconnect, or a consumer slower than the ring is
long — is caught up with a full snapshot (seq-gap triggered), then
rejoins the frame stream.  Two backpressure mechanisms bound leader
memory: ``writer.drain()`` (TCP flow control) and an unacked-frame
window that pauses sending to a follower that stops acknowledging.

:class:`FollowerService` — follower side.  Connects to the leader with
bounded exponential-backoff retries, subscribes from its pipeline's
last applied sequence, and applies whatever arrives: ``F`` frames go
through :meth:`~repro.service.pipeline.IngestPipeline.apply_frame`
(duplicate frames are skipped, gaps refuse), ``S`` frames install a
shipped checkpoint.  Every applied frame is acknowledged, and — with a
local :class:`~repro.service.snapshot.SnapshotManager` attached —
written to the follower's own WAL, so a killed follower recovers
locally and re-subscribes from where it died.
:meth:`FollowerService.promote` detaches from the leader and lifts the
pipeline's read-only restriction: the follower becomes a leader.

Any corrupt or truncated frame raises
:class:`~repro.errors.ReplicationError`; the follower's response is
always the same — drop the connection and re-subscribe from its last
applied sequence.  Duplicated delivery after a reconnect is harmless by
construction (frames at or below the applied sequence are skipped), so
the stream needs no exactly-once transport, only exactly-once *apply*.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import (
    ReplicationError,
    ServiceClosedError,
    ServiceUnavailableError,
)
from repro.service import protocol
from repro.service.client import RetryBudget, RetryPolicy
from repro.service.pipeline import IngestPipeline
from repro.service.snapshot import decode_snapshot, encode_snapshot


@dataclass
class ReplicationConfig:
    """Tuning for both halves of the replication stream.

    Attributes
    ----------
    ring_frames:
        How many applied frames the leader retains for replay.  A
        follower needing anything older is caught up with a snapshot.
    max_unacked_frames:
        Per-follower backpressure window: sending pauses once this many
        frames are in flight unacknowledged.
    heartbeat_interval:
        Seconds between ``H`` frames to an idle, caught-up follower.
    retry:
        The follower's reconnect :class:`~repro.service.client.
        RetryPolicy` (8 attempts, backoff capped at 2.0 s by default).
        Out of attempts or past its ``deadline``, the follower stops
        (``exhausted``) and stays up for reads; a successful
        subscription starts a fresh budget.
    """

    ring_frames: int = 512
    max_unacked_frames: int = 256
    heartbeat_interval: float = 0.5
    retry: RetryPolicy = RetryPolicy(max_retries=8, backoff_max=2.0)


class _FollowerHandle:
    """Leader-side bookkeeping for one subscribed follower."""

    __slots__ = ("peer", "acked_seq", "sent_seq", "wake", "snapshots_sent")

    def __init__(self, peer: str, acked_seq: int) -> None:
        self.peer = peer
        self.acked_seq = acked_seq
        self.sent_seq = acked_seq
        self.snapshots_sent = 0
        self.wake = asyncio.Event()


class ReplicationManager:
    """Leader-side frame fan-out, follower registry, and ack tracking.

    Attach to an :class:`~repro.service.pipeline.IngestPipeline` via its
    ``replication=`` parameter; the pipeline calls :meth:`publish` for
    every applied micro-batch, and the server hands subscribed
    connections to :meth:`stream`.
    """

    def __init__(self, config: Optional[ReplicationConfig] = None) -> None:
        self._config = config if config is not None else ReplicationConfig()
        self._ring: deque[tuple[int, bytes]] = deque(
            maxlen=self._config.ring_frames
        )
        self._followers: dict[int, _FollowerHandle] = {}
        self._next_handle = 0
        #: The leadership epoch stamped onto every published frame.  The
        #: pipeline's epoch setter keeps this in sync; a coordinator
        #: bumps it on election.  Followers refuse frames below their
        #: own epoch, which is what fences a deposed leader.
        self.epoch = 0
        self.frames_published = 0
        self.bytes_published = 0
        self.snapshots_shipped = 0

    @property
    def config(self) -> ReplicationConfig:
        return self._config

    def oldest_ring_seq(self) -> Optional[int]:
        return self._ring[0][0] if self._ring else None

    def status(self) -> dict:
        """The follower registry as JSON-ready rows (for ``REPL STATUS``)."""
        newest = self._ring[-1][0] if self._ring else None
        return {
            "followers": [
                {
                    "peer": handle.peer,
                    "acked_seq": handle.acked_seq,
                    "sent_seq": handle.sent_seq,
                    "lag": (newest - handle.acked_seq) if newest else 0,
                    "snapshots_sent": handle.snapshots_sent,
                }
                for handle in self._followers.values()
            ],
            "ring_oldest": self.oldest_ring_seq(),
            "ring_newest": newest,
            "frames_published": self.frames_published,
            "bytes_published": self.bytes_published,
            "snapshots_shipped": self.snapshots_shipped,
        }

    # -- publishing ------------------------------------------------------------

    def publish(self, seq: int, record: bytes, stamps=()) -> None:
        """Record one applied micro-batch and wake every follower stream.

        Called synchronously from the pipeline's apply path, so the ring
        always reflects a between-batches state.  The frame is encoded
        once and shared by every follower.  Frames go out in the fenced
        ``F`` format: stamped with this manager's epoch plus any client
        ``(session, frame_seq)`` idempotency stamps the micro-batch
        coalesced (capped; overflow stamps are dropped from the frame —
        they only speed up duplicate detection, correctness comes from
        the seq-based skip).
        """
        if len(stamps) > protocol.MAX_FRAME_STAMPS:
            stamps = tuple(stamps)[-protocol.MAX_FRAME_STAMPS:]
        frame = protocol.encode_repl_fenced_frame(self.epoch, stamps, record)
        self._ring.append((seq, frame))
        self.frames_published += 1
        self.bytes_published += len(frame)
        for handle in self._followers.values():
            handle.wake.set()

    # -- per-connection streaming ----------------------------------------------

    async def stream(
        self,
        pipeline: IngestPipeline,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        last_seq: int,
        hello_epoch: int = 0,
    ) -> None:
        """Serve one subscribed follower until its connection drops.

        ``last_seq`` is the follower's last applied sequence from its
        ``REPL HELLO``; ``hello_epoch`` is the epoch it subscribed
        under.  Frames the ring still holds are replayed from there;
        anything older — or a follower arriving from a *stale epoch*,
        whose high sequences may cover diverged records — triggers a
        snapshot catch-up.  Runs on the server's connection handler;
        returning closes the connection.
        """
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        handle = _FollowerHandle(peer, last_seq)
        key = self._next_handle
        self._next_handle += 1
        self._followers[key] = handle
        ack_task = asyncio.get_running_loop().create_task(
            self._read_acks(reader, handle), name="repro-repl-acks"
        )
        try:
            await self._stream_frames(
                pipeline, writer, handle, ack_task,
                # A stale-epoch follower, or one claiming to be *ahead*
                # of this leader, may hold a diverged suffix — its
                # sequence number cannot index our timeline.
                force_bootstrap=(
                    hello_epoch < self.epoch
                    or last_seq > pipeline.applied_seq
                ),
            )
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass  # follower vanished; it will reconnect and re-subscribe
        finally:
            del self._followers[key]
            ack_task.cancel()
            with contextlib.suppress(
                asyncio.CancelledError, ConnectionError, OSError
            ):
                await ack_task

    async def _stream_frames(
        self, pipeline, writer, handle, ack_task, *,
        force_bootstrap: bool = False,
    ) -> None:
        config = self._config
        next_seq = handle.acked_seq + 1
        # A follower subscribing from sequence 0 has *some* fresh sketch,
        # not necessarily a twin of the leader's initial state (different
        # seed, k, backend...).  Replaying WAL frames onto it would
        # silently diverge, so bootstrap always starts from a shipped
        # checkpoint; only an already-synced follower may resume from the
        # frame ring.  A follower from a stale epoch is forced through
        # the same path: its applied sequence counts records this
        # timeline may never have shipped (a deposed leader's diverged
        # suffix), so its number cannot be trusted to index the ring.
        bootstrap = handle.acked_seq == 0 or force_bootstrap
        while True:
            if ack_task.done():
                return  # EOF or garbage on the ack channel: drop the link
            # Backpressure: a follower that stops acking stops receiving.
            while (
                handle.sent_seq - handle.acked_seq >= config.max_unacked_frames
            ):
                handle.wake.clear()
                if ack_task.done():
                    return
                await self._wait_wake(handle, config.heartbeat_interval)
                if ack_task.done():
                    return
            target = pipeline.applied_seq
            oldest = self.oldest_ring_seq()
            if bootstrap or (next_seq <= target and (
                oldest is None or next_seq < oldest
            )):
                # Bootstrap, or a seq gap: the ring no longer reaches
                # back far enough.  Ship a full checkpoint (always
                # between micro-batches here — applies are synchronous
                # on this loop).
                blob = encode_snapshot(pipeline.sketch, target)
                writer.write(protocol.encode_repl_snapshot_frame(blob))
                await writer.drain()
                bootstrap = False
                handle.snapshots_sent += 1
                self.snapshots_shipped += 1
                handle.sent_seq = target
                next_seq = target + 1
                continue
            if next_seq > target:
                # Caught up: heartbeat while idle so the follower can
                # measure staleness and detect a silent half-open link.
                handle.wake.clear()
                if pipeline.applied_seq >= next_seq:
                    continue  # published between the check and the clear
                if not await self._wait_wake(handle, config.heartbeat_interval):
                    writer.write(
                        protocol.encode_repl_heartbeat(pipeline.applied_seq)
                    )
                    await writer.drain()
                continue
            index = next_seq - oldest
            if index >= len(self._ring):  # pragma: no cover - defensive
                continue
            seq, frame = self._ring[index]
            writer.write(frame)
            await writer.drain()
            handle.sent_seq = seq
            next_seq = seq + 1

    @staticmethod
    async def _wait_wake(handle: _FollowerHandle, timeout: float) -> bool:
        """Await the handle's wake event; False on timeout."""
        try:
            await asyncio.wait_for(handle.wake.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def _read_acks(self, reader, handle: _FollowerHandle) -> None:
        """Consume ``ACK <seq>`` lines; return on EOF or a garbled line.

        Returning always wakes the stream loop — it checks this task's
        doneness before every wait, so a dropped or misbehaving follower
        is torn down promptly instead of lingering until the next
        heartbeat.
        """
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                parts = line.split()
                if len(parts) != 2 or parts[0] != b"ACK":
                    return  # protocol violation: returning drops the link
                try:
                    acked = int(parts[1])
                except ValueError:
                    return
                if acked > handle.acked_seq:
                    handle.acked_seq = acked
                handle.wake.set()
        finally:
            handle.wake.set()


class FollowerService:
    """Subscribe a replica pipeline to a leader and keep it in sync.

    Parameters
    ----------
    pipeline:
        A *replica-mode* pipeline (``IngestPipeline(..., replica=True)``)
        this service applies the leader's frames to.  It may carry its
        own :class:`~repro.service.snapshot.SnapshotManager`: replicated
        frames are then WAL-logged locally, so the follower itself
        recovers from a crash and re-subscribes from where it died.
    host, port:
        The leader's service address (the normal protocol port —
        replication shares it via ``REPL HELLO``).
    config:
        A :class:`ReplicationConfig`; only its ``retry`` policy is
        used here.
    on_epoch:
        Optional callback invoked with the new epoch whenever the leader
        teaches this follower a higher one (handshake or fenced frame).
        A :class:`~repro.service.failover.FailoverCoordinator` uses it
        to persist the observation.
    """

    def __init__(
        self,
        pipeline: IngestPipeline,
        host: str,
        port: int,
        *,
        config: Optional[ReplicationConfig] = None,
        on_epoch: Optional[Callable[[int], None]] = None,
        allow_rewind: bool = False,
    ) -> None:
        self._pipeline = pipeline
        self._host = host
        self._port = port
        self._config = config if config is not None else ReplicationConfig()
        self._on_epoch = on_epoch
        self._task: Optional[asyncio.Task] = None
        self._stopping = False
        self._connected = False
        self._exhausted = False
        # True once this follower may adopt a snapshot *below* its own
        # applied sequence: armed by crossing into a higher epoch, or at
        # construction by a coordinator demoting a deposed leader (whose
        # suffix is presumed diverged).
        self._allow_rewind = allow_rewind
        self._leader_seq: Optional[int] = None
        self._last_heard: Optional[float] = None
        self._last_error: Optional[BaseException] = None
        self._progress: Optional[asyncio.Event] = None
        self.frames_applied = 0
        self.frames_skipped = 0
        self.snapshots_installed = 0
        self.reconnects = 0

    # -- introspection ---------------------------------------------------------

    @property
    def pipeline(self) -> IngestPipeline:
        return self._pipeline

    @property
    def connected(self) -> bool:
        return self._connected

    @property
    def exhausted(self) -> bool:
        """True once the bounded retry budget ran out (reads still work)."""
        return self._exhausted

    @property
    def leader_seq(self) -> Optional[int]:
        """The leader's applied sequence as last observed (handshake or
        heartbeat); ``leader_seq - pipeline.applied_seq`` is staleness."""
        return self._leader_seq

    @property
    def last_error(self) -> Optional[BaseException]:
        return self._last_error

    def silence(self) -> Optional[float]:
        """Seconds since the leader was last heard from, or ``None``.

        The failure detector's input: a silence beyond the configured
        miss window means the leader (or the path to it) is dead.
        """
        if self._last_heard is None:
            return None
        return asyncio.get_running_loop().time() - self._last_heard

    def status(self) -> dict:
        return {
            "leader": f"{self._host}:{self._port}",
            "connected": self._connected,
            "exhausted": self._exhausted,
            "epoch": self._pipeline.epoch,
            "leader_seq": self._leader_seq,
            "applied_seq": self._pipeline.applied_seq,
            "frames_applied": self.frames_applied,
            "frames_skipped": self.frames_skipped,
            "snapshots_installed": self.snapshots_installed,
            "reconnects": self.reconnects,
        }

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> "FollowerService":
        """Launch the replication task (idempotent); returns self."""
        if self._task is not None and not self._task.done():
            return self
        self._stopping = False
        self._exhausted = False
        self._progress = asyncio.Event()
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name="repro-repl-follower"
        )
        return self

    async def stop(self) -> None:
        """Stop replicating (the pipeline and its reads are untouched)."""
        self._stopping = True
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None
        self._connected = False

    async def __aenter__(self) -> "FollowerService":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    async def promote(self) -> int:
        """Detach from the leader and make the pipeline writable.

        Returns the applied sequence at promotion.  The stream stops
        *before* the restriction lifts, so no leader frame can land on a
        pipeline that is also taking client writes.
        """
        await self.stop()
        return self._pipeline.promote()

    async def wait_for_seq(self, seq: int, timeout: float = 10.0) -> None:
        """Await until the pipeline has applied ``seq`` (deadline-based,
        no sleep-loop): raises ``TimeoutError`` with a diagnostic if the
        stream cannot get there in time."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while self._pipeline.applied_seq < seq:
            if self._progress is None:
                raise ServiceClosedError("follower service is not started")
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise TimeoutError(
                    f"follower stuck at seq {self._pipeline.applied_seq} "
                    f"waiting for {seq} (connected={self._connected}, "
                    f"last_error={self._last_error!r})"
                )
            self._progress.clear()
            if self._pipeline.applied_seq >= seq:
                break
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._progress.wait(), remaining)

    # -- the replication loop --------------------------------------------------

    async def _run(self) -> None:
        budget = RetryBudget(self._config.retry)
        while not self._stopping:
            writer = None
            try:
                reader, writer = await asyncio.open_connection(
                    self._host, self._port, limit=protocol.MAX_LINE_BYTES
                )
                await self._subscribe(reader, writer)
                # A successful subscription starts a fresh retry budget.
                budget = RetryBudget(self._config.retry)
                await self._consume(reader, writer)
            except asyncio.CancelledError:
                raise
            except (
                ReplicationError,
                ConnectionError,
                OSError,
                asyncio.IncompleteReadError,
                ValueError,  # SerializationError from a corrupt snapshot
            ) as exc:
                self._last_error = exc
            finally:
                self._connected = False
                if writer is not None:
                    writer.close()
            if self._stopping:
                return
            try:
                await budget.backoff(
                    f"no leader reachable at {self._host}:{self._port}"
                )
            except ServiceUnavailableError as exc:
                self._last_error = exc
                self._exhausted = True
                return
            except ServiceClosedError:
                # Out of attempts: last_error keeps the final failure.
                self._exhausted = True
                return
            self.reconnects += 1

    async def _subscribe(self, reader, writer) -> None:
        writer.write(
            f"REPL HELLO {self._pipeline.applied_seq} "
            f"{self._pipeline.epoch}\n".encode("ascii")
        )
        await writer.drain()
        line = await reader.readline()
        parts = line.split()
        if len(parts) not in (2, 3) or parts[0] != b"OK":
            raise ReplicationError(
                f"leader rejected subscription: {line!r}"
            )
        try:
            self._leader_seq = int(parts[1])
            leader_epoch = int(parts[2]) if len(parts) == 3 else 0
        except ValueError as exc:
            raise ReplicationError(
                f"malformed subscription reply: {line!r}"
            ) from exc
        self._observe_epoch(leader_epoch)
        self._connected = True
        self._last_heard = asyncio.get_running_loop().time()

    def _observe_epoch(self, epoch: int) -> None:
        """Adopt a higher leader epoch; reject would happen elsewhere.

        Crossing into a higher epoch arms exactly one rewind: the next
        shipped snapshot may land *below* our applied sequence (we might
        hold a diverged suffix the new leader never shipped) and is
        allowed to reset the local timeline.
        """
        if epoch > self._pipeline.epoch:
            self._pipeline.epoch = epoch
            self._allow_rewind = True
            if self._on_epoch is not None:
                self._on_epoch(epoch)

    async def _consume(self, reader, writer) -> None:
        pipeline = self._pipeline
        loop = asyncio.get_running_loop()
        while True:
            frame = await protocol.read_repl_frame(reader)
            if frame is None:
                raise ConnectionResetError("leader closed the stream")
            self._last_heard = loop.time()
            kind = frame[0]
            if kind == "fenced":
                _kind, epoch, stamps, seq, items, weights = frame
                if epoch < pipeline.epoch:
                    # The fence: a deposed leader (or a frame queued
                    # before its deposition) must never land.
                    raise ReplicationError(
                        f"fenced frame from stale epoch {epoch} "
                        f"(ours is {pipeline.epoch}); dropping the link"
                    )
                self._observe_epoch(epoch)
                if pipeline.apply_frame(seq, items, weights, stamps):
                    self.frames_applied += 1
                else:
                    self.frames_skipped += 1  # duplicate delivery
                self._leader_seq = max(self._leader_seq or 0, seq)
            elif kind == "snapshot":
                sketch, seq = decode_snapshot(frame[1])
                if seq < pipeline.applied_seq and self._allow_rewind:
                    # Fenced rejoin: we crossed into a higher epoch, so
                    # our high sequences may be a diverged suffix.  Adopt
                    # the new leader's checkpoint and re-base the local
                    # durability timeline on it.
                    pipeline.reset_to_snapshot(sketch, seq)
                    self.snapshots_installed += 1
                elif seq >= pipeline.applied_seq:
                    # >=, not >: a bootstrap snapshot at the follower's
                    # own sequence still replaces its (arbitrary) fresh
                    # sketch with the leader's canonical state.
                    pipeline.install_snapshot(sketch, seq)
                    self.snapshots_installed += 1
                self._allow_rewind = False
                self._leader_seq = max(self._leader_seq or 0, seq)
            else:  # heartbeat
                self._leader_seq = frame[1]
                continue
            writer.write(f"ACK {pipeline.applied_seq}\n".encode("ascii"))
            await writer.drain()
            if self._progress is not None:
                self._progress.set()
