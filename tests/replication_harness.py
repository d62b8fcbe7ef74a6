"""Reusable leader/follower fault-injection harness.

Extracted from the kill-point machinery in ``test_service_recovery.py``
and stretched over a socket: a :class:`ReplicaCluster` runs a real
leader (pipeline + TCP server) and a real follower (replica pipeline +
``FollowerService``), each with its own snapshot/WAL directory, and lets
a test

- kill either node crash-like at any micro-batch boundary (no final
  checkpoint, file handles dropped) and restart it from its directory,
- cut the replication stream mid-frame through a byte-dropping TCP
  proxy (:class:`FlakyProxy`) and watch the follower resubscribe,
- promote the follower and compare *serialized bytes and PRNG state
  words* against the leader's.

Determinism comes from the same trick the durability suite uses: one
submission per micro-batch (``wait_applied=True`` plus an unreachable
size trigger), so the leader's frame boundaries — and therefore the
follower's replayed ``update_batch`` calls — are identical across runs
and byte-identity against a plain reference loop is a meaningful
assertion, not a flaky one.
"""

from __future__ import annotations

from typing import Optional

from repro import (
    IngestPipeline,
    PipelineConfig,
    SnapshotManager,
    StreamServer,
)
from repro.service.faults import NetworkFaultProxy
from repro.service.replication import (
    FollowerService,
    ReplicationConfig,
    ReplicationManager,
)
from repro.service.client import RetryPolicy

from test_service_recovery import (  # noqa: F401  (re-exported for tests)
    SKETCH_MAKERS,
    make_feed,
    reference_state,
    rng_states,
)

#: Deterministic micro-batch boundaries: one submission per batch.
CLUSTER_CFG = PipelineConfig(
    max_batch_items=1 << 30, flush_interval=30.0, snapshot_every_batches=5
)

#: Fast follower retries so kill/restart scenarios converge quickly.
FAST_RETRY = RetryPolicy(max_retries=200, backoff_initial=0.01, backoff_max=0.1)
FAST_REPL = ReplicationConfig(retry=FAST_RETRY, heartbeat_interval=0.1)


#: The mid-stream-cut proxy this harness used to define locally; PR 9's
#: fault plane absorbed it (same ``cut_after`` semantics, plus
#: partitions, delays, and chunk drop/duplication).
FlakyProxy = NetworkFaultProxy


class ReplicaCluster:
    """One leader + one follower, both restartable, both durable.

    Parameters
    ----------
    make_sketch:
        Zero-argument sketch factory (see ``SKETCH_MAKERS``); the
        follower starts from a *fresh* factory sketch and relies on the
        bootstrap snapshot, exactly like a real deployment would.
    tmp_path:
        Directory for the two nodes' snapshot/WAL subdirectories.
    via_proxy:
        Route the replication stream through a :class:`FlakyProxy`
        (required by ``drop_stream``).
    repl_config:
        The :class:`ReplicationConfig` for both halves; shrink
        ``ring_frames`` to force snapshot catch-up paths.
    """

    def __init__(
        self,
        make_sketch,
        tmp_path,
        *,
        via_proxy: bool = False,
        repl_config: Optional[ReplicationConfig] = None,
        config: PipelineConfig = CLUSTER_CFG,
    ) -> None:
        self._make_sketch = make_sketch
        self._config = config
        self._repl_config = (
            repl_config if repl_config is not None else FAST_REPL
        )
        self._leader_dir = str(tmp_path / "leader")
        self._follower_dir = str(tmp_path / "follower")
        self._via_proxy = via_proxy
        self.leader: Optional[IngestPipeline] = None
        self.server: Optional[StreamServer] = None
        self.follower_pipe: Optional[IngestPipeline] = None
        self.follower: Optional[FollowerService] = None
        self.proxy: Optional[FlakyProxy] = None
        self._leader_port: Optional[int] = None

    # -- leader ----------------------------------------------------------------

    async def start_leader(self) -> None:
        manager = SnapshotManager(self._leader_dir)
        if manager.latest_snapshot_seq() is not None:
            self.leader = IngestPipeline.recover(
                manager, config=self._config,
                replication=ReplicationManager(self._repl_config),
            )
        else:
            self.leader = IngestPipeline(
                self._make_sketch(), config=self._config, snapshots=manager,
                replication=ReplicationManager(self._repl_config),
            )
        await self.leader.start()
        self.server = StreamServer(
            self.leader, port=self._leader_port or 0
        )
        await self.server.start()
        self._leader_port = self.server.port
        if self._via_proxy and self.proxy is None:
            self.proxy = await FlakyProxy(
                "127.0.0.1", self._leader_port
            ).start()

    async def kill_leader(self) -> None:
        """Crash-equivalent: server gone, no final checkpoint."""
        await self.server.stop()
        await self.leader.stop(final_snapshot=False)
        self.server = None
        self.leader = None

    async def restart_leader(self) -> None:
        await self.start_leader()  # recovers from the directory, same port

    # -- follower --------------------------------------------------------------

    def _follower_addr(self) -> tuple[str, int]:
        if self._via_proxy:
            return "127.0.0.1", self.proxy.port
        return "127.0.0.1", self._leader_port

    async def start_follower(self) -> None:
        manager = SnapshotManager(self._follower_dir)
        if manager.latest_snapshot_seq() is not None:
            self.follower_pipe = IngestPipeline.recover(
                manager, config=self._config, replica=True
            )
        else:
            self.follower_pipe = IngestPipeline(
                self._make_sketch(), config=self._config, snapshots=manager,
                replica=True,
            )
        await self.follower_pipe.start()
        host, port = self._follower_addr()
        self.follower = FollowerService(
            self.follower_pipe, host, port, config=self._repl_config
        )
        await self.follower.start()

    async def kill_follower(self) -> None:
        """Crash-equivalent: stream dropped, no final checkpoint."""
        await self.follower.stop()
        await self.follower_pipe.stop(final_snapshot=False)
        self.follower = None
        self.follower_pipe = None

    async def restart_follower(self) -> None:
        await self.start_follower()  # recovers from its own directory

    # -- driving ---------------------------------------------------------------

    async def feed(self, batches) -> None:
        for items, weights in batches:
            await self.leader.submit(items, weights, wait_applied=True)

    async def sync(self, timeout: float = 20.0) -> None:
        """Await the follower catching up to the leader's applied seq."""
        await self.follower.wait_for_seq(
            self.leader.applied_seq, timeout=timeout
        )

    def drop_stream(self, budget: int = 13) -> None:
        """Cut the replication link after ``budget`` more bytes
        (defaults to mid-frame: an F frame is 27+ bytes)."""
        assert self.proxy is not None, "build the cluster with via_proxy=True"
        self.proxy.cut_after(budget)

    # -- observation -----------------------------------------------------------

    def leader_state(self):
        return self.leader.sketch.to_bytes(), rng_states(self.leader.sketch)

    def follower_state(self):
        return (
            self.follower_pipe.sketch.to_bytes(),
            rng_states(self.follower_pipe.sketch),
        )

    async def promote_follower(self) -> int:
        return await self.follower.promote()

    async def close(self) -> None:
        if self.follower is not None:
            await self.follower.stop()
        if self.follower_pipe is not None:
            await self.follower_pipe.stop()
        if self.proxy is not None:
            await self.proxy.stop()
        if self.server is not None:
            await self.server.stop()
        if self.leader is not None:
            await self.leader.stop()


async def run_fault_scenario(
    make_sketch, feed, *, fault: str, kill_at: int, tmp_path,
    ring_frames: int = 512,
) -> tuple:
    """One full scenario; returns (leader_state, follower_state) at the end.

    ``fault`` is one of ``kill-leader``, ``kill-follower``,
    ``drop-stream``, ``restart-catch-up``; ``kill_at`` is the micro-batch
    boundary (0..len(feed)) where it strikes.  After the fault the
    remaining feed is applied, the follower syncs, and the follower is
    promoted — so the returned states are both *writable leaders*,
    compared bytes-for-bytes by the caller.
    """
    repl = ReplicationConfig(
        ring_frames=ring_frames, retry=FAST_RETRY, heartbeat_interval=0.1,
    )
    cluster = ReplicaCluster(
        make_sketch, tmp_path, via_proxy=(fault == "drop-stream"),
        repl_config=repl,
    )
    try:
        await cluster.start_leader()
        await cluster.start_follower()
        await cluster.feed(feed[:kill_at])
        await cluster.sync()

        if fault == "kill-leader":
            await cluster.kill_leader()
            await cluster.restart_leader()
        elif fault == "kill-follower":
            await cluster.kill_follower()
            await cluster.restart_follower()
        elif fault == "drop-stream":
            cluster.drop_stream()
        elif fault == "restart-catch-up":
            # Follower offline while the leader advances past the replay
            # ring, forcing the snapshot catch-up path on return.
            await cluster.kill_follower()
            await cluster.feed(feed[kill_at:])
            await cluster.restart_follower()
            await cluster.sync()
            seq = await cluster.promote_follower()
            assert seq == cluster.leader.applied_seq
            return cluster.leader_state(), cluster.follower_state()
        else:
            raise ValueError(f"unknown fault kind {fault!r}")

        await cluster.feed(feed[kill_at:])
        await cluster.sync()
        seq = await cluster.promote_follower()
        assert seq == cluster.leader.applied_seq
        return cluster.leader_state(), cluster.follower_state()
    finally:
        await cluster.close()
