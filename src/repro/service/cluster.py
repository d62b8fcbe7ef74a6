"""Multi-process tenant-sharded ingest: a worker pool behind one acceptor.

One process cannot outrun its interpreter: the single-loop service tops
out at one core no matter how fast the kernels underneath are.  The
paper's summaries are mergeable (§2.3 — merging preserves the §2.3.1
error guarantees), which licenses the classic scale-out shape:

* a :class:`WorkerPool` forks ``N`` worker processes, each running its
  own :class:`~repro.service.pipeline.IngestPipeline` +
  :class:`~repro.service.snapshot.SnapshotManager` per tenant stream it
  owns, over per-tenant WAL/snapshot directories;
* the asyncio acceptor becomes a thin router: a **tenant registry**
  names the streams, a seeded hash partition (the same
  :func:`~repro.sharded.partition.shard_of` that splits sharded tenants)
  maps each tenant substream to its owning worker, and ingest batches
  cross the process boundary as zero-copy
  :class:`~repro.service.frames.SharedFrameRing` frames, one ring per
  worker, with a doorbell pipe to wake it;
* per-tenant queries route to the owning worker; **global views**
  (``QEST``/``QHH`` over everything, or a sharded tenant's merged view)
  decode worker snapshot blobs and fold them with the existing
  ``merge`` machinery, under a cache invalidated by per-worker
  applied-sequence watermarks.

Determinism is load-bearing, not incidental: the acceptor chunks every
submission at a fixed ``slot_capacity`` *before* routing, each frame is
committed by its worker as exactly one micro-batch (one WAL record), and
sharded tenants split with the same seeded partition the in-process
sharded sketch uses.  A tenant's byte-for-byte state — wire blob and
xoroshiro PRNG words — therefore depends only on the submitted op
sequence, never on how many workers the pool happens to run.  The
differential tests hold a 4-worker cluster to bit-identity with a
1-worker one.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import shutil
import signal
import traceback
from dataclasses import dataclass, field
from typing import Any, Optional

from repro import native
from repro.core.frequent_items import FrequentItemsSketch
from repro.core.merge import merge_linear
from repro.core.row import HeavyHitterRow
from repro.errors import ClusterError, InvalidParameterError
from repro.service import protocol
from repro.service.frames import SharedFrameRing, shared_memory_available
from repro.service.frontend import (
    CloseConnection,
    LineServer,
    Reply,
    hh_reply,
    json_reply,
    ok_reply,
    one_update,
    read_bin,
    usage,
)
from repro.service.pipeline import IngestPipeline, PipelineConfig
from repro.service.snapshot import SnapshotManager, decode_snapshot, encode_snapshot
from repro.sharded.partition import shard_ids, shard_of
from repro.sharded.sketch import _shard_seed
from repro.streams.model import as_batch
from repro.table import BACKEND_NAMES, loadable_backend

#: Sleep between checks for a released ring slot while a worker's ring
#: is full.  Only a saturated worker makes the acceptor wait here.
_RING_FULL_POLL = 0.0005

#: How often an idle worker wakes to check that its acceptor is still
#: alive.  Frames and control messages wake it at once; this timer is
#: the only wake-up an idle worker has.
_ORPHAN_CHECK_INTERVAL = 1.0

#: How long pool shutdown waits for a worker to exit before killing it.
_JOIN_TIMEOUT = 5.0

#: The tenant behind the single-tenant verbs (``UPDATE``, ``EST``, ...).
DEFAULT_TENANT = "default"

_REGISTRY_NAME = "tenants.json"
_REGISTRY_VERSION = 1


def tenant_directory(data_dir: str, substream: str) -> str:
    """Where one tenant substream keeps its WAL/snapshot files.

    Per-*tenant* (not per-worker) directories let any owner recover any
    tenant: the seeded hash partition may route a substream to another
    worker when the pool restarts with a different worker count, and
    the new owner recovers from the same directory.
    """
    return os.path.join(data_dir, "tenants", substream)


@dataclass(frozen=True)
class TenantSpec:
    """One registered tenant stream: its sketch shape and seeding.

    A tenant with ``shards == 0`` is a single flat sketch (one
    substream, named like the tenant).  With ``shards == M`` the tenant
    is ``M`` substreams ``name#0 .. name#M-1``: items split with the
    seeded partition of :mod:`repro.sharded.partition` and each
    substream seeds its sketch with the same derived per-shard seed the
    in-process :class:`~repro.sharded.sketch.ShardedFrequentItemsSketch`
    would use — so a sharded tenant's substreams can land on different
    workers and still match the single-machine sharded sketch state
    for state.
    """

    name: str
    k: int = 4096
    backend: str = "probing"
    seed: int = 0
    shards: int = 0

    def __post_init__(self) -> None:
        if not protocol.valid_tenant_name(self.name):
            raise InvalidParameterError(
                f"invalid tenant name {self.name!r}; names match "
                f"{protocol.TENANT_NAME_PATTERN}"
            )
        if self.k < 2:
            raise InvalidParameterError(
                f"tenant {self.name!r}: k must be at least 2, got {self.k}"
            )
        if self.shards < 0:
            raise InvalidParameterError(
                f"tenant {self.name!r}: shards must be >= 0, got {self.shards}"
            )
        if self.backend not in BACKEND_NAMES:
            raise InvalidParameterError(
                f"tenant {self.name!r}: backend must be one of "
                f"{BACKEND_NAMES}, got {self.backend!r}"
            )

    def substreams(self) -> list[str]:
        """The substream names, in shard order (one for a flat tenant)."""
        if self.shards <= 0:
            return [self.name]
        return [f"{self.name}#{index}" for index in range(self.shards)]

    def substream_seed(self, index: int) -> int:
        """The sketch seed of substream ``index``."""
        if self.shards <= 0:
            return self.seed
        return _shard_seed(self.seed, index)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "k": self.k,
            "backend": self.backend,
            "seed": self.seed,
            "shards": self.shards,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TenantSpec":
        return cls(
            name=payload["name"],
            k=int(payload["k"]),
            backend=payload["backend"],
            seed=int(payload["seed"]),
            shards=int(payload["shards"]),
        )


@dataclass
class ClusterConfig:
    """Shape of one :class:`WorkerPool`.

    Attributes
    ----------
    num_workers:
        Worker processes to fork.  ``1`` is the degenerate (but valid)
        cluster the differential tests compare against.
    data_dir:
        Root of durability: the tenant registry plus one WAL/snapshot
        directory per tenant substream live under it.  ``None`` disables
        durability entirely (benchmarks).
    ring_slots / slot_capacity:
        Geometry of each worker's frame ring: ``ring_slots`` in-flight
        frames of up to ``slot_capacity`` updates.  The capacity is also
        the acceptor's fixed chunk size — frame boundaries must not
        depend on worker count.
    snapshot_every_batches:
        Per-tenant checkpoint cadence, in applied frames.
    default_k / default_backend / default_seed / default_shards:
        The spec used for tenants created without explicit parameters
        (including the implicit ``default`` tenant behind the legacy
        single-tenant protocol verbs).
    """

    num_workers: int = 1
    data_dir: Optional[str] = None
    ring_slots: int = 64
    slot_capacity: int = 16_384
    snapshot_every_batches: int = 256
    default_k: int = 4096
    default_backend: str = "probing"
    default_seed: int = 0
    default_shards: int = 0

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise InvalidParameterError(
                f"num_workers must be positive, got {self.num_workers}"
            )
        if self.ring_slots < 1 or self.slot_capacity < 1:
            raise InvalidParameterError(
                f"ring geometry must be positive, got ring_slots="
                f"{self.ring_slots}, slot_capacity={self.slot_capacity}"
            )
        if self.slot_capacity > protocol.MAX_BIN_ITEMS:
            raise InvalidParameterError(
                f"slot_capacity {self.slot_capacity} exceeds the protocol "
                f"frame cap {protocol.MAX_BIN_ITEMS}"
            )


# ---------------------------------------------------------------------------
# The worker process
# ---------------------------------------------------------------------------


class _WorkerRuntime:
    """Everything a worker process does, on its own asyncio loop.

    Frames arrive on the worker's shared-memory ring; control RPCs
    arrive on the pipe.  The acceptor rings a *doorbell* — one byte on a
    per-worker pipe — after publishing each ring frame, so a worker
    sleeps until a frame, a message or the orphan check wakes it, and
    never polls the ring.  Every frame is committed as exactly one
    micro-batch (one WAL record) by one synchronous
    :meth:`~repro.service.pipeline.IngestPipeline.apply_frame` call, and
    the ring slot is released only after that commit, so the acceptor's
    watermark is an *applied* watermark.
    Query handlers consume all published frames first: anything the
    acceptor shipped before asking is visible in the answer
    (read-your-writes).
    """

    def __init__(
        self,
        worker_id: int,
        conn,
        ring_name: str,
        bell,
        data_dir: Optional[str],
        snapshot_every: int,
    ) -> None:
        self._worker_id = worker_id
        # Recorded by the acceptor before the fork: the acceptor may die
        # before this process gets here, when getppid() is already 1.
        parent = multiprocessing.parent_process()
        self._acceptor_pid = os.getppid() if parent is None else parent.pid
        self._conn = conn
        self._ring = SharedFrameRing.attach(ring_name)
        self._bell = bell
        self._data_dir = data_dir
        self._snapshot_every = snapshot_every
        self._pipelines: dict[int, IngestPipeline] = {}
        self._running = True
        self._final_snapshot = True
        self._wake: Optional[asyncio.Event] = None

    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        loop.add_reader(self._conn.fileno(), self._wake.set)
        os.set_blocking(self._bell.fileno(), False)
        loop.add_reader(self._bell.fileno(), self._on_bell)
        try:
            while self._running:
                progressed = False
                while self._running and self._conn.poll():
                    progressed = True
                    await self._handle_message(self._conn.recv())
                if not self._running:
                    break
                if await self._consume_frames():
                    progressed = True
                if progressed:
                    continue
                # No wake-up is lost between the scan above and the wait
                # below: a frame published after the scan rings the bell
                # after publishing, and that byte stays unread until the
                # wait lets _on_bell run.  A message pending on the pipe
                # is caught by the poll after the clear.
                self._wake.clear()
                if self._conn.poll():
                    continue
                try:
                    await asyncio.wait_for(
                        self._wake.wait(), _ORPHAN_CHECK_INTERVAL
                    )
                except asyncio.TimeoutError:
                    if os.getppid() != self._acceptor_pid:
                        # Reparented: the acceptor died and no "stop" will
                        # come (forked processes hold copies of its pipe
                        # end, so no EOF either).  Stop as if it had asked.
                        await self._handle_rpc("stop", {"final_snapshot": True})
        finally:
            loop.remove_reader(self._conn.fileno())
            loop.remove_reader(self._bell.fileno())
            self._bell.close()
            for pipeline in self._pipelines.values():
                await pipeline.stop(final_snapshot=self._final_snapshot)
            self._pipelines.clear()
            self._ring.close()

    def _on_bell(self) -> None:
        """Read the doorbell dry, then wake the run loop.

        The bell is read here, before the pass that scans the ring, and
        not by that pass: a level-triggered fd left readable would make
        every turn of the event loop return at once while the pass
        awaits the frames it applies.
        """
        fd = self._bell.fileno()
        try:
            while os.read(fd, 4096):
                pass
            # EOF: every write end is closed, so the acceptor is gone.
            # Stop watching; the orphan check stops the worker.
            asyncio.get_running_loop().remove_reader(fd)
        except BlockingIOError:
            pass
        self._wake.set()

    # -- ingest ----------------------------------------------------------------

    async def _consume_frames(self) -> bool:
        """Apply every published ring frame; True when any was applied."""
        progressed = False
        while True:
            frame = self._ring.peek()
            if frame is None:
                return progressed
            seq, tid, items, weights = frame
            pipeline = self._pipelines.get(tid)
            if pipeline is None:
                raise ClusterError(
                    f"worker {self._worker_id} got a frame for unknown "
                    f"tenant id {tid}"
                )
            # One frame = one micro-batch = one WAL record; committing it
            # before releasing the slot is what keeps the zero-copy views
            # valid and the consumed watermark honest.
            try:
                pipeline.apply_frame(pipeline.applied_seq + 1, items, weights)
            except BaseException:
                # The sketch may hold part of the batch; the WAL is the
                # truth, so this tenant stops without a final checkpoint.
                del self._pipelines[tid]
                await pipeline.stop(final_snapshot=False)
                raise
            self._ring.commit(seq)
            progressed = True

    # -- control plane ---------------------------------------------------------

    async def _handle_message(self, message) -> None:
        kind = message[0]
        if kind != "c":
            raise ClusterError(
                f"worker {self._worker_id} got unknown message {kind!r}"
            )
        _kind, req_id, op, payload = message
        try:
            result = await self._handle_rpc(op, payload)
        except Exception as exc:  # reply, don't die: the acceptor decides
            self._conn.send(("e", req_id, type(exc).__name__, str(exc)))
            return
        self._conn.send(("r", req_id, result))

    async def _handle_rpc(self, op: str, payload) -> Any:
        if op == "tcreate":
            return await self._tcreate(payload)
        if op == "tdrop":
            return await self._tdrop(payload["tid"])
        if op in ("drain", "snapshot"):
            await self._consume_frames()
            if op == "snapshot":
                for pipeline in self._pipelines.values():
                    pipeline.snapshot_now()
            return {
                tid: pipeline.applied_seq
                for tid, pipeline in self._pipelines.items()
            }
        if op == "query":
            await self._consume_frames()
            return self._query(payload)
        if op == "blobs":
            await self._consume_frames()
            blobs = {}
            for tid in payload["tids"]:
                pipeline = self._required(tid)
                blobs[tid] = encode_snapshot(
                    pipeline.sketch, pipeline.applied_seq
                )
            return blobs
        if op == "stop":
            await self._consume_frames()
            self._final_snapshot = bool(payload["final_snapshot"])
            self._running = False
            return None
        raise ClusterError(f"unknown cluster RPC {op!r}")

    def _required(self, tid: int) -> IngestPipeline:
        pipeline = self._pipelines.get(tid)
        if pipeline is None:
            raise ClusterError(
                f"worker {self._worker_id} does not own tenant id {tid}"
            )
        return pipeline

    async def _tcreate(self, payload: dict) -> int:
        tid = payload["tid"]
        existing = self._pipelines.get(tid)
        if existing is not None:
            return existing.applied_seq
        config = PipelineConfig(snapshot_every_batches=payload["snapshot_every"])
        snapshots = None
        if self._data_dir is not None:
            directory = tenant_directory(self._data_dir, payload["name"])
            snapshots = SnapshotManager(directory)
            if snapshots.latest_snapshot_seq() is not None:
                pipeline = IngestPipeline.recover(snapshots, config=config)
                await pipeline.start()
                self._pipelines[tid] = pipeline
                return pipeline.applied_seq
        sketch = FrequentItemsSketch(
            payload["k"], backend=payload["backend"], seed=payload["seed"]
        )
        pipeline = IngestPipeline(sketch, config=config, snapshots=snapshots)
        await pipeline.start()
        self._pipelines[tid] = pipeline
        return pipeline.applied_seq

    async def _tdrop(self, tid: int) -> None:
        pipeline = self._pipelines.pop(tid, None)
        if pipeline is not None:
            # No farewell checkpoint: the pool deletes the directory.
            await pipeline.stop(final_snapshot=False)

    def _query(self, payload: dict):
        pipeline = self._required(payload["tid"])
        kind = payload["kind"]
        if kind == "est":
            return pipeline.estimate(payload["item"])
        if kind == "bounds":
            item = payload["item"]
            return (
                pipeline.lower_bound(item),
                pipeline.estimate(item),
                pipeline.upper_bound(item),
            )
        raise ClusterError(f"unknown query kind {kind!r}")


def _worker_process_main(
    worker_id: int,
    conn,
    ring_name: str,
    bell,
    data_dir: Optional[str],
    native_flag: bool,
    snapshot_every: int,
) -> None:
    """Entry point of one worker process (fork or spawn)."""
    try:
        # A forked child inherits the parent thread's "a loop is running"
        # marker; clear it or asyncio.run refuses to start.
        asyncio.events._set_running_loop(None)
    except AttributeError:  # pragma: no cover - future-python guard
        pass
    # ... and the acceptor's asyncio SIGTERM handler with its wakeup
    # descriptor.  Restore the default so SIGTERM (the pool's own
    # terminate(), a process-group kill) ends this worker, and a signal
    # delivered here never lands on the acceptor's event loop.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)
    runtime = _WorkerRuntime(
        worker_id, conn, ring_name, bell, data_dir, snapshot_every
    )
    try:
        # The explicit flag (not the env var) decides the ingest path, so
        # acceptor and workers agree even across a spawn boundary.
        with native.use_native(native_flag):
            asyncio.run(runtime.run())
    except (KeyboardInterrupt, BrokenPipeError):  # pragma: no cover
        pass
    except Exception:  # pragma: no cover - surfaced via the dead pipe
        traceback.print_exc()
        raise
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# The acceptor side
# ---------------------------------------------------------------------------


@dataclass
class _WorkerHandle:
    """Acceptor-side state for one worker process."""

    worker_id: int
    process: multiprocessing.process.BaseProcess
    conn: Any
    ring: SharedFrameRing
    #: Write end of the worker's doorbell pipe.
    bell: Any
    alive: bool = True
    next_req: int = 0
    pending: dict = field(default_factory=dict)
    send_lock: asyncio.Lock = field(default_factory=asyncio.Lock)


class WorkerPool:
    """N worker processes, one seeded hash partition, one tenant registry.

    The pool is the cluster's whole control plane: it forks the workers,
    owns the shared-memory rings, persists the registry, routes frames
    and queries, and assembles merged global views.  It must be driven
    from a single asyncio loop (the acceptor's).

    Examples
    --------
    >>> import asyncio, numpy as np
    >>> async def demo():
    ...     async with WorkerPool(ClusterConfig(num_workers=2)) as pool:
    ...         await pool.create_tenant("clicks")
    ...         await pool.submit("clicks", np.array([7, 7, 8], dtype=np.uint64))
    ...         await pool.drain()
    ...         return await pool.estimate("clicks", 7)
    >>> asyncio.run(demo())
    2.0
    """

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self._config = config if config is not None else ClusterConfig()
        self._workers: list[_WorkerHandle] = []
        self._specs: dict[str, TenantSpec] = {}
        self._tids: dict[str, int] = {}
        self._owners: dict[str, int] = {}
        self._next_tid = 0
        self._started = False
        self._view_cache: dict[str, tuple[tuple, FrequentItemsSketch]] = {}

    # -- introspection ---------------------------------------------------------

    @property
    def config(self) -> ClusterConfig:
        return self._config

    @property
    def num_workers(self) -> int:
        return self._config.num_workers

    def list_tenants(self) -> list[TenantSpec]:
        """Registered tenants, in creation order."""
        return list(self._specs.values())

    def owner_of(self, substream: str) -> int:
        """The worker id owning one registered substream."""
        return self._owners[substream]

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> "WorkerPool":
        """Fork the workers, then re-register any persisted tenants.

        Raises :class:`~repro.errors.ClusterError` on a platform without
        ``multiprocessing.shared_memory``: frames travel only on the
        shared-memory rings.
        """
        if self._started:
            return self
        if not shared_memory_available():
            raise ClusterError(
                "the worker pool needs multiprocessing.shared_memory for its "
                "frame rings, and this platform does not provide it"
            )
        config = self._config
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        loop = asyncio.get_running_loop()
        for worker_id in range(config.num_workers):
            ring = SharedFrameRing.create(config.ring_slots, config.slot_capacity)
            parent_conn, child_conn = context.Pipe(duplex=True)
            bell_reader, bell = context.Pipe(duplex=False)
            process = context.Process(
                target=_worker_process_main,
                args=(
                    worker_id,
                    child_conn,
                    ring.name,
                    bell_reader,
                    config.data_dir,
                    native.enabled(),
                    config.snapshot_every_batches,
                ),
                name=f"repro-cluster-worker-{worker_id}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            bell_reader.close()
            os.set_blocking(bell.fileno(), False)
            handle = _WorkerHandle(worker_id, process, parent_conn, ring, bell)
            loop.add_reader(
                parent_conn.fileno(), self._on_readable, handle
            )
            self._workers.append(handle)
        self._started = True
        for spec in self._load_registry():
            await self._register(spec, persist=False)
        return self

    async def stop(self, *, final_snapshot: bool = True) -> None:
        """Checkpoint (optionally), stop every worker, release the rings."""
        if not self._started:
            return
        for handle in self._workers:
            if not handle.alive:
                continue
            try:
                await self._rpc(handle, "stop", {"final_snapshot": final_snapshot})
            except ClusterError:
                pass  # a worker that died mid-stop is already stopped
        loop = asyncio.get_running_loop()
        for handle in self._workers:
            handle.process.join(timeout=_JOIN_TIMEOUT)
            if handle.process.is_alive():  # pragma: no cover - wedged worker
                handle.process.kill()
                handle.process.join(timeout=_JOIN_TIMEOUT)
            if handle.alive:
                loop.remove_reader(handle.conn.fileno())
                handle.alive = False
            handle.conn.close()
            handle.bell.close()
            handle.ring.close()
        self._workers.clear()
        self._started = False
        self._view_cache.clear()

    async def __aenter__(self) -> "WorkerPool":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    def kill_worker(self, worker_id: int) -> None:
        """SIGKILL one worker (fault-injection hook for the tests)."""
        handle = self._workers[worker_id]
        handle.process.kill()
        handle.process.join(timeout=_JOIN_TIMEOUT)

    # -- plumbing --------------------------------------------------------------

    def _on_readable(self, handle: _WorkerHandle) -> None:
        try:
            while handle.conn.poll():
                self._on_message(handle, handle.conn.recv())
        except (EOFError, OSError):
            self._mark_dead(handle)

    def _on_message(self, handle: _WorkerHandle, message) -> None:
        kind = message[0]
        if kind == "r":
            future = handle.pending.pop(message[1], None)
            if future is not None and not future.done():
                future.set_result(message[2])
            return
        if kind == "e":
            future = handle.pending.pop(message[1], None)
            if future is not None and not future.done():
                future.set_exception(
                    ClusterError(
                        f"worker {handle.worker_id} {message[2]}: {message[3]}"
                    )
                )
            return

    def _mark_dead(self, handle: _WorkerHandle) -> None:
        if not handle.alive:
            return
        handle.alive = False
        asyncio.get_running_loop().remove_reader(handle.conn.fileno())
        handle.bell.close()
        failure = ClusterError(
            f"worker {handle.worker_id} died; restart the pool over the same "
            "data_dir to recover its tenants"
        )
        for future in handle.pending.values():
            if not future.done():
                future.set_exception(failure)
        handle.pending.clear()

    def _check_alive(self, handle: _WorkerHandle) -> None:
        if not self._started:
            raise ClusterError("the worker pool is not running")
        if not handle.alive:
            raise ClusterError(
                f"worker {handle.worker_id} died; restart the pool over the "
                "same data_dir to recover its tenants"
            )

    async def _send(self, handle: _WorkerHandle, message) -> None:
        """Pickle one message to a worker without blocking the loop.

        ``Connection.send`` blocks when the pipe buffer is full; pushing
        it onto a thread keeps the acceptor responsive (its reader keeps
        draining worker replies, which is what guarantees the worker's
        own blocking sends always make progress — no deadlock).
        """
        async with handle.send_lock:
            self._check_alive(handle)
            try:
                await asyncio.get_running_loop().run_in_executor(
                    None, handle.conn.send, message
                )
            except (BrokenPipeError, OSError) as exc:
                self._mark_dead(handle)
                raise ClusterError(
                    f"worker {handle.worker_id} pipe closed mid-send"
                ) from exc

    async def _rpc(self, handle: _WorkerHandle, op: str, payload=None):
        self._check_alive(handle)
        req_id = handle.next_req
        handle.next_req += 1
        future = asyncio.get_running_loop().create_future()
        handle.pending[req_id] = future
        await self._send(handle, ("c", req_id, op, payload))
        return await future

    # -- tenant registry -------------------------------------------------------

    def _registry_path(self) -> Optional[str]:
        if self._config.data_dir is None:
            return None
        return os.path.join(self._config.data_dir, _REGISTRY_NAME)

    def _load_registry(self) -> list[TenantSpec]:
        path = self._registry_path()
        if path is None or not os.path.exists(path):
            return []
        with open(path, "r", encoding="ascii") as fh:
            payload = json.load(fh)
        if payload.get("version") != _REGISTRY_VERSION:
            raise ClusterError(
                f"unsupported tenant registry version in {path!r}"
            )
        # Registries written before a backend was retired still name it.
        return [
            TenantSpec.from_dict(
                {**entry, "backend": loadable_backend(entry["backend"])}
            )
            for entry in payload["tenants"]
        ]

    def _save_registry(self) -> None:
        path = self._registry_path()
        if path is None:
            return
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        payload = {
            "version": _REGISTRY_VERSION,
            "tenants": [spec.as_dict() for spec in self._specs.values()],
        }
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="ascii") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)

    def _spec_of(self, tenant: str) -> TenantSpec:
        spec = self._specs.get(tenant)
        if spec is None:
            raise ClusterError(f"unknown tenant {tenant!r}; TCREATE it first")
        return spec

    async def _register(self, spec: TenantSpec, *, persist: bool) -> None:
        for index, substream in enumerate(spec.substreams()):
            tid = self._next_tid
            self._next_tid += 1
            owner = shard_of(substream, self._config.num_workers)
            self._tids[substream] = tid
            self._owners[substream] = owner
            await self._rpc(
                self._workers[owner],
                "tcreate",
                {
                    "tid": tid,
                    "name": substream,
                    "k": spec.k,
                    "backend": spec.backend,
                    "seed": spec.substream_seed(index),
                    "snapshot_every": self._config.snapshot_every_batches,
                },
            )
        self._specs[spec.name] = spec
        self._view_cache.clear()
        if persist:
            self._save_registry()

    async def create_tenant(
        self,
        name: str,
        *,
        k: Optional[int] = None,
        backend: Optional[str] = None,
        seed: Optional[int] = None,
        shards: Optional[int] = None,
    ) -> TenantSpec:
        """Register one tenant and create its sketches on the owners.

        Re-creating an existing tenant with the identical spec is a
        no-op returning the registered spec; a conflicting spec raises.
        """
        config = self._config
        spec = TenantSpec(
            name=name,
            k=config.default_k if k is None else k,
            backend=config.default_backend if backend is None else backend,
            seed=config.default_seed if seed is None else seed,
            shards=config.default_shards if shards is None else shards,
        )
        existing = self._specs.get(name)
        if existing is not None:
            if existing != spec:
                raise InvalidParameterError(
                    f"tenant {name!r} already exists with a different spec; "
                    "TDROP it first"
                )
            return existing
        await self._register(spec, persist=True)
        return spec

    async def ensure_tenant(self, name: str) -> TenantSpec:
        """The spec of ``name``, creating it with defaults when missing."""
        existing = self._specs.get(name)
        if existing is not None:
            return existing
        return await self.create_tenant(name)

    async def drop_tenant(self, name: str) -> None:
        """Unregister a tenant, stop its sketches, delete its directories."""
        spec = self._spec_of(name)
        for substream in spec.substreams():
            tid = self._tids.pop(substream)
            owner = self._owners.pop(substream)
            handle = self._workers[owner]
            if handle.alive:
                await self._rpc(handle, "tdrop", {"tid": tid})
            if self._config.data_dir is not None:
                shutil.rmtree(
                    tenant_directory(self._config.data_dir, substream),
                    ignore_errors=True,
                )
        del self._specs[name]
        self._view_cache.clear()
        self._save_registry()

    # -- ingest ----------------------------------------------------------------

    async def submit(self, tenant: str, items, weights=None) -> int:
        """Route one batch of weighted updates to the owning workers.

        The batch is validated once (exactly like ``update_batch``),
        split by the tenant's seeded partition when sharded, and shipped
        in fixed ``slot_capacity`` chunks — the chunking, and therefore
        every micro-batch boundary, is independent of worker count.
        Returns the number of updates shipped.
        """
        spec = self._spec_of(tenant)
        items, weights = as_batch(items, weights)
        if items.shape[0] == 0:
            return 0
        if spec.shards > 0:
            owners = shard_ids(items, spec.shards, spec.seed)
            for index, substream in enumerate(spec.substreams()):
                mask = owners == index
                if mask.any():
                    await self._ship(substream, items[mask], weights[mask])
        else:
            await self._ship(spec.name, items, weights)
        return int(items.shape[0])

    async def _ship(self, substream: str, items, weights) -> None:
        tid = self._tids[substream]
        handle = self._workers[self._owners[substream]]
        capacity = self._config.slot_capacity
        for lo in range(0, items.shape[0], capacity):
            part_items = items[lo : lo + capacity]
            part_weights = weights[lo : lo + capacity]
            while not handle.ring.has_space():
                # The wait for a released slot IS the cross-process
                # backpressure; a dead worker never releases one, so
                # check liveness each turn instead of spinning forever.
                self._check_alive(handle)
                await asyncio.sleep(_RING_FULL_POLL)
            self._check_alive(handle)
            handle.ring.write(tid, part_items, part_weights)
            self._ring_bell(handle)

    def _ring_bell(self, handle: _WorkerHandle) -> None:
        """Wake a worker for the frame just published on its ring."""
        try:
            os.write(handle.bell.fileno(), b"\x01")
        except BlockingIOError:
            pass  # the pipe is full of unread bells: the worker will wake
        except OSError as exc:  # EPIPE: the worker is gone
            self._mark_dead(handle)
            raise ClusterError(
                f"worker {handle.worker_id} doorbell closed mid-send"
            ) from exc

    async def drain(self) -> dict[str, int]:
        """Await until every shipped frame is applied on its worker.

        Returns the per-substream applied sequence (frames applied since
        the substream was created) — the watermark vector the merged-view
        cache is keyed by.  The ``drain`` RPC applies every frame the
        worker's ring holds before it answers, and an RPC is sent after
        every frame already shipped to that worker.
        """
        return await self._applied_seqs("drain")

    async def _applied_seqs(self, op: str) -> dict[str, int]:
        """Run ``op`` on every live worker; the applied seqs it answers
        per tenant id, keyed by substream."""
        by_tid = {tid: substream for substream, tid in self._tids.items()}
        seqs: dict[str, int] = {}
        for handle in self._workers:
            if handle.alive:
                for tid, seq in (await self._rpc(handle, op)).items():
                    seqs[by_tid[tid]] = seq
        return seqs

    # -- per-tenant queries ----------------------------------------------------

    def _route_item(self, spec: TenantSpec, item: int) -> str:
        """The substream owning ``item`` — disjoint partition means one
        substream holds every occurrence, so point queries never merge."""
        if spec.shards <= 0:
            return spec.name
        return f"{spec.name}#{shard_of(int(item), spec.shards, spec.seed)}"

    async def _query(self, substream: str, kind: str, **payload):
        handle = self._workers[self._owners[substream]]
        return await self._rpc(
            handle, "query", {"tid": self._tids[substream], "kind": kind, **payload}
        )

    async def estimate(self, tenant: str, item: int) -> float:
        spec = self._spec_of(tenant)
        return await self._query(
            self._route_item(spec, item), "est", item=int(item)
        )

    async def bounds(self, tenant: str, item: int) -> tuple[float, float, float]:
        """``(lower, estimate, upper)`` for one item of one tenant."""
        spec = self._spec_of(tenant)
        result = await self._query(
            self._route_item(spec, item), "bounds", item=int(item)
        )
        return tuple(result)

    async def heavy_hitters(
        self, tenant: str, phi: float
    ) -> tuple[int, list[HeavyHitterRow]]:
        """``(watermark, rows)`` — the tenant's merged heavy hitters.

        For a sharded tenant this folds the owning workers' snapshot
        blobs through the merged-view cache; a flat tenant is the
        single-blob special case of the same path.
        """
        merged, stamp = await self._merged_view(tenant)
        assert merged is not None  # a registered tenant has >= 1 substream
        return sum(stamp), merged.heavy_hitters(phi)

    async def tenant_blobs(self, tenant: str) -> dict[str, bytes]:
        """Per-substream RSNP checkpoint blobs (sketch + PRNG states).

        This is the byte-exact comparison format the differential tests
        use: two clusters agree on a tenant iff these blobs agree.
        """
        return await self._blobs(self._spec_of(tenant).substreams())

    async def _blobs(self, substreams: list[str]) -> dict[str, bytes]:
        """The substreams' blobs, one ``blobs`` RPC per owning worker."""
        by_worker: dict[int, list[int]] = {}
        for sub in substreams:
            by_worker.setdefault(self._owners[sub], []).append(self._tids[sub])
        by_tid = {self._tids[sub]: sub for sub in substreams}
        blobs: dict[str, bytes] = {}
        for worker_id, tids in by_worker.items():
            result = await self._rpc(self._workers[worker_id], "blobs", {"tids": tids})
            for tid, blob in result.items():
                blobs[by_tid[tid]] = blob
        return blobs

    # -- global views ----------------------------------------------------------

    async def _merged_view(
        self, tenant: Optional[str]
    ) -> tuple[Optional[FrequentItemsSketch], tuple]:
        """The merged sketch over one tenant (or all of them) + stamp.

        The merge itself is the paper's Algorithm 5 fold; the cache is
        keyed by the substreams' applied-sequence watermark vector, so a
        quiet cluster answers repeated global queries without moving a
        single blob.  Merge order is sorted substream name — stable
        under any worker count, which the differential tests rely on.
        """
        if tenant is None:
            substreams = [
                sub for spec in self._specs.values() for sub in spec.substreams()
            ]
            key = "\x00*"  # NUL is not a valid tenant-name character
        else:
            substreams = self._spec_of(tenant).substreams()
            key = tenant
        if not substreams:
            return None, ()
        seqs = await self.drain()
        ordered = sorted(substreams)
        stamp = tuple(seqs[sub] for sub in ordered)
        cached = self._view_cache.get(key)
        if cached is not None and cached[0] == stamp:
            return cached[1], stamp
        blobs = await self._blobs(ordered)
        merged = merge_linear([decode_snapshot(blobs[sub])[0] for sub in ordered])
        self._view_cache[key] = (stamp, merged)
        return merged, stamp

    async def global_estimate(self, item: int) -> tuple[int, float]:
        """``(watermark, estimate)`` of one item across every tenant."""
        merged, stamp = await self._merged_view(None)
        if merged is None:
            return 0, 0.0
        return sum(stamp), merged.estimate(int(item))

    async def global_heavy_hitters(
        self, phi: float
    ) -> tuple[int, list[HeavyHitterRow]]:
        """``(watermark, rows)`` of the all-tenants merged summary."""
        merged, stamp = await self._merged_view(None)
        if merged is None:
            return 0, []
        return sum(stamp), merged.heavy_hitters(phi)

    # -- maintenance -----------------------------------------------------------

    async def snapshot_all(self) -> dict[str, int]:
        """Force a checkpoint of every tenant; returns applied seqs."""
        return await self._applied_seqs("snapshot")

    def stats(self) -> dict:
        """Cluster topology + per-worker watermarks, without any RPC."""
        workers = [
            {
                "worker": handle.worker_id,
                "alive": handle.alive,
                "pid": handle.process.pid,
                "produced_seq": handle.ring.produced_seq(),
                "applied_seq": handle.ring.consumed_seq(),
            }
            for handle in self._workers
        ]
        return {
            "num_workers": self._config.num_workers,
            "slot_capacity": self._config.slot_capacity,
            "tenants": [spec.as_dict() for spec in self._specs.values()],
            "substream_owners": dict(sorted(self._owners.items())),
            "workers": workers,
        }


# ---------------------------------------------------------------------------
# The TCP front end
# ---------------------------------------------------------------------------


class ClusterServer(LineServer):
    """Serve a :class:`WorkerPool` over the tenant-aware line protocol.

    Speaks every ``T``-prefixed tenant verb and ``DRAIN`` on top of the
    shared verbs (see the :mod:`repro.service.protocol` table).  The
    single-tenant verbs (``UPDATE``/``BATCH``/``BIN``/``EST``/``BOUNDS``/
    ``HH``) work against an implicitly created ``default`` tenant, so
    any existing client can point at a cluster unchanged; ``QEST``/
    ``QHH`` answer from the merged view over every tenant.  Start the
    pool *before* the server: worker processes must not inherit the
    listening socket.
    """

    def __init__(
        self, pool: WorkerPool, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        super().__init__(host, port)
        self._pool = pool

    @property
    def pool(self) -> WorkerPool:
        return self._pool

    # -- accessors for the shared verbs ----------------------------------------

    async def _submit(self, items, weights) -> int:
        await self._pool.ensure_tenant(DEFAULT_TENANT)
        return await self._pool.submit(DEFAULT_TENANT, items, weights)

    async def _estimate(self, item: int) -> float:
        await self._pool.ensure_tenant(DEFAULT_TENANT)
        return await self._pool.estimate(DEFAULT_TENANT, item)

    async def _bounds(self, item: int) -> tuple[float, float, float]:
        await self._pool.ensure_tenant(DEFAULT_TENANT)
        return await self._pool.bounds(DEFAULT_TENANT, item)

    async def _heavy_hitters(self, phi: float) -> list:
        await self._pool.ensure_tenant(DEFAULT_TENANT)
        _seq, rows = await self._pool.heavy_hitters(DEFAULT_TENANT, phi)
        return rows

    async def _stamped_estimate(self, item: int) -> tuple[int, float]:
        return await self._pool.global_estimate(item)

    async def _stamped_heavy_hitters(self, phi: float) -> tuple[int, list]:
        return await self._pool.global_heavy_hitters(phi)

    async def _snapshot(self) -> int:
        return sum((await self._pool.snapshot_all()).values())

    async def _stats(self) -> dict:
        return self._pool.stats()

    # -- tenant verbs ----------------------------------------------------------

    async def _verb_tcreate(self, args, reader, writer) -> Reply:
        if not 1 <= len(args) <= 5:
            return usage(
                "TCREATE <name> [k] [backend] [seed] [shards] "
                "(- = server default)"
            )
        # Positional optionals; "-" (or a missing tail) means the default.
        k, backend, seed, shards = (
            None if value == "-" else value
            for value in args[1:] + ["-"] * (5 - len(args))
        )
        spec = await self._pool.create_tenant(
            args[0],
            k=None if k is None else int(k),
            backend=backend,
            seed=None if seed is None else int(seed),
            shards=None if shards is None else int(shards),
        )
        return json_reply(spec.as_dict()), False

    async def _verb_tdrop(self, args, reader, writer) -> Reply:
        if len(args) != 1:
            return usage("TDROP <name>")
        await self._pool.drop_tenant(args[0])
        return b"OK\n", False

    async def _verb_tlist(self, args, reader, writer) -> Reply:
        return json_reply([spec.as_dict() for spec in self._pool.list_tenants()]), False

    async def _verb_tbin(self, args, reader, writer) -> Reply:
        if len(args) != 2:
            raise CloseConnection("usage: TBIN <name> <count>; closing")
        items, weights = await read_bin(reader, "TBIN", args[1])
        return ok_reply(await self._pool.submit(args[0], items, weights)), False

    async def _verb_tupdate(self, args, reader, writer) -> Reply:
        if len(args) not in (2, 3):
            return usage("TUPDATE <name> <item> [weight]")
        await self._pool.submit(args[0], *one_update(*args[1:]))
        return b"OK\n", False

    async def _verb_test(self, args, reader, writer) -> Reply:
        if len(args) != 2:
            return usage("TEST <name> <item>")
        return ok_reply(await self._pool.estimate(args[0], int(args[1]))), False

    async def _verb_tbounds(self, args, reader, writer) -> Reply:
        if len(args) != 2:
            return usage("TBOUNDS <name> <item>")
        return ok_reply(*await self._pool.bounds(args[0], int(args[1]))), False

    async def _verb_thh(self, args, reader, writer) -> Reply:
        if len(args) != 2:
            return usage("THH <name> <phi>")
        seq, rows = await self._pool.heavy_hitters(args[0], float(args[1]))
        return hh_reply(rows, seq), False

    async def _verb_drain(self, args, reader, writer) -> Reply:
        return ok_reply(sum((await self._pool.drain()).values())), False

    verbs = {
        **LineServer.verbs,
        "TCREATE": _verb_tcreate,
        "TDROP": _verb_tdrop,
        "TLIST": _verb_tlist,
        "TBIN": _verb_tbin,
        "TUPDATE": _verb_tupdate,
        "TEST": _verb_test,
        "TBOUNDS": _verb_tbounds,
        "THH": _verb_thh,
        "DRAIN": _verb_drain,
    }
