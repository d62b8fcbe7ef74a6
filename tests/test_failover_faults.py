"""Chaos matrix for automatic failover (ISSUE 9 acceptance).

Every scenario drives a real three-node replica set (quorum 2) through
a fault injected by :mod:`repro.service.faults` and then asserts the
strongest property the deterministic-replication design affords:
**promoted-leader state is byte-identical — serialized sketch bytes and
xoroshiro PRNG state words — to an uninterrupted single-node run** over
the surviving timeline.  The scenarios:

- *kill-leader-auto-promote* — crash the leader; followers detect the
  heartbeat silence, elect the most-caught-up replica, and the cluster
  keeps ingesting with no operator involved.
- *partitioned-minority-cannot-elect* — isolate one node; it stands for
  election but can never reach quorum, so **no split brain**: the
  majority side keeps the one true leader and the healed minority
  rejoins without ever having accepted a write.
- *fenced-ex-leader-rejoin* — partition the leader, let it keep
  accepting writes in its bubble (a *diverged* suffix), elect a new
  leader on the majority side; on heal the ex-leader is fenced by the
  higher epoch, self-demotes, rejects further writes, and truncates its
  diverged WAL suffix on disk while converging byte-identically.
- *disk-full-during-checkpoint* — ENOSPC on the leader's snapshot
  write: the acknowledged batch (replication precedes the checkpoint
  attempt) survives the failover even though the leader's own disk
  could no longer hold it.
- *failover-MTTR* — crash the leader under a retrying client: write
  availability, as the client sees it, returns within five heartbeat
  miss windows, with exactly one idempotent frame resubmit and exact
  counts on the promoted leader.

The standalone disk-fault tests at the bottom pin the durability
contract under injected write/fsync failures (*no torn-but-accepted
record*) and the corrupt-snapshot quarantine path.

The full matrix is ``slow`` (CI runs it under ``REPRO_NATIVE=1`` and
``=0``); a small cross-section stays in tier 1.
"""

from __future__ import annotations

import asyncio
import contextlib
import errno
import logging
import os

import numpy as np
import pytest

from repro import FrequentItemsSketch, IngestPipeline, SnapshotManager
from repro.errors import (
    ReadOnlyReplicaError,
    SerializationError,
    ServiceClosedError,
)
from repro.service import protocol
from repro.service.client import RetryPolicy, ServiceClient
from repro.service.faults import PERSISTENT, DiskFaultPlane

from failover_harness import (
    CLUSTER_CFG,
    FAST_FAILOVER,
    FailoverCluster,
    SKETCH_MAKERS,
    make_feed,
    reference_state,
    rng_states,
)

pytestmark = [pytest.mark.service, pytest.mark.replication]


def run(coroutine):
    return asyncio.run(coroutine)


# --------------------------------------------------------------------------
# Scenario drivers


async def kill_leader_scenario(make_sketch, feed, tmp_path, *, rejoin):
    """Crash the leader mid-feed; the cluster elects and continues."""
    reference = reference_state(make_sketch, feed)
    half = len(feed) // 2
    cluster = FailoverCluster(make_sketch, tmp_path)
    try:
        await cluster.start()
        await cluster.feed(feed[:half])
        await cluster.sync()
        await cluster.kill("n0")

        new_leader = await cluster.wait_for_leader(exclude={"n0"})
        coordinator = cluster.nodes[new_leader].coordinator
        assert coordinator.elections_won >= 1
        assert coordinator.epoch >= 1
        assert cluster.leader_ids() == [new_leader]

        await cluster.feed(feed[half:], node_id=new_leader)
        await cluster.sync()
        survivor = next(
            node_id for node_id in cluster.node_ids
            if node_id not in ("n0", new_leader)
        )
        assert cluster.state(new_leader) == reference
        assert cluster.state(survivor) == reference

        if rejoin:
            # The crashed ex-leader recovers from its own directory and
            # rejoins as a follower of the new epoch's leader.
            await cluster.restart("n0")
            await cluster.wait_state_equal("n0", reference)
            assert cluster.nodes["n0"].pipeline.is_replica
            assert cluster.leader_ids() == [new_leader]
    finally:
        await cluster.close()


async def partition_minority_scenario(make_sketch, feed, tmp_path):
    """An isolated minority of one can never elect itself."""
    third = len(feed) // 3
    cluster = FailoverCluster(make_sketch, tmp_path)
    try:
        await cluster.start()
        await cluster.feed(feed[:third])
        await cluster.sync()

        cluster.isolate("n2")
        # The majority side keeps serving writes throughout.
        await cluster.feed(feed[third:2 * third])
        await cluster.sync(["n1"])

        # Sample for four miss windows: the minority detects the
        # "dead" leader and stands, but must never win — quorum is 2
        # and it can reach only itself.
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 4 * FAST_FAILOVER.heartbeat_miss_window
        while loop.time() < deadline:
            assert cluster.leader_ids() == ["n0"], "split brain"
            await asyncio.sleep(0.05)
        minority = cluster.nodes["n2"].coordinator
        assert minority.elections_started >= 1
        assert minority.elections_won == 0
        assert cluster.nodes["n2"].pipeline.is_replica

        cluster.heal("n2")
        await cluster.feed(feed[2 * third:])
        await cluster.sync()
        # The healthy majority refused disruption: same leader, and the
        # established epoch never moved (the minority's failed stands
        # burned only its *own* persisted epoch counter).
        assert cluster.leader_ids() == ["n0"]
        assert cluster.nodes["n0"].pipeline.epoch == 0
        reference = reference_state(make_sketch, feed)
        for node_id in cluster.node_ids:
            assert cluster.state(node_id) == reference, node_id
    finally:
        await cluster.close()


async def fenced_rejoin_scenario(make_sketch, feed, tmp_path):
    """A deposed leader's diverged suffix is fenced and truncated."""
    third = len(feed) // 3
    cluster = FailoverCluster(make_sketch, tmp_path)
    try:
        await cluster.start()
        await cluster.feed(feed[:third])
        await cluster.sync()

        cluster.isolate("n0")
        new_leader = await cluster.wait_for_leader(exclude={"n0"})
        # The bubbled ex-leader keeps accepting writes — a *longer*
        # diverged suffix than the new timeline, so rejoin must rewind
        # (snapshot adoption + timeline reset), not replay forward.
        await cluster.feed(feed[third:], node_id="n0")
        await cluster.feed(feed[third:2 * third], node_id=new_leader)
        assert sorted(cluster.leader_ids()) == sorted(["n0", new_leader])

        cluster.heal("n0")
        # The ex-leader's own peer poll discovers the higher epoch and
        # fences it, even though every announcement was lost to the
        # partition.
        node0 = cluster.nodes["n0"]
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 15.0
        while not node0.pipeline.is_replica:
            assert loop.time() < deadline, "ex-leader was never fenced"
            await asyncio.sleep(0.02)
        assert node0.coordinator.demotions >= 1
        items, weights = feed[0]
        with pytest.raises(ReadOnlyReplicaError):
            await node0.pipeline.submit(items, weights)

        # Byte-identity restored to the *new* timeline: the diverged
        # suffix is discarded wholesale.
        reference = reference_state(make_sketch, feed[:2 * third])
        await cluster.wait_state_equal("n0", reference)

        # ... and gone from disk too: offline recovery of the ex-leader's
        # directory lands on the adopted timeline, not the diverged one.
        await cluster.kill("n0")
        recovered = SnapshotManager(node0.directory).recover()
        assert recovered is not None
        sketch, _seq = recovered
        assert (sketch.to_bytes(), rng_states(sketch)) == reference

        await cluster.feed(feed[2 * third:], node_id=new_leader)
        await cluster.sync()
        final = reference_state(make_sketch, feed)
        assert cluster.state(new_leader) == final
    finally:
        await cluster.close()


async def disk_full_checkpoint_scenario(make_sketch, feed, tmp_path):
    """ENOSPC on the leader's checkpoint: acked data survives failover."""
    cluster = FailoverCluster(make_sketch, tmp_path)
    try:
        await cluster.start()
        await cluster.feed(feed[:4])
        await cluster.sync()
        node0 = cluster.nodes["n0"]
        node0.disk.inject(
            "write", path_contains=".rsnap", count=PERSISTENT
        )
        # Batch 5 is WAL-appended, applied, *replicated and acked*
        # before its snapshot trigger (snapshot_every=5) hits the full
        # disk — exactly the ordering that makes the ack durable on the
        # replica set even though the leader's own checkpoint failed.
        await cluster.feed(feed[4:5])
        assert node0.disk.fired >= 1
        items, weights = feed[5]
        with pytest.raises(ServiceClosedError):
            await node0.pipeline.submit(items, weights, wait_applied=True)
        assert isinstance(node0.pipeline.fault, OSError)
        assert node0.pipeline.fault.errno == errno.ENOSPC

        # Replication heartbeats outlive the wounded drain loop, so
        # silence-based detection never fires; the orchestrator (here:
        # the test) puts the node down, as a supervisor would.
        await cluster.sync(["n1", "n2"], seq=5)
        await cluster.kill("n0")
        new_leader = await cluster.wait_for_leader(exclude={"n0"})
        await cluster.sync()
        assert cluster.state(new_leader) == reference_state(
            make_sketch, feed[:5]
        )

        await cluster.feed(feed[5:], node_id=new_leader)
        await cluster.sync()
        reference = reference_state(make_sketch, feed)
        survivor = next(
            node_id for node_id in cluster.node_ids
            if node_id not in ("n0", new_leader)
        )
        assert cluster.state(new_leader) == reference
        assert cluster.state(survivor) == reference
    finally:
        await cluster.close()


async def failover_mttr_scenario(tmp_path, seed=2016):
    """Kill the leader under a retrying client and time the outage.

    MTTR is the gap between the kill and the first batch the promoted
    leader acknowledges; detection latency is read off the winner's
    coordinator.  The stream is an exact-count oracle (a universe of 60
    items under k = 256, integer weights), so "no lost or duplicated
    update across the failover" is estimate == exact count for every
    item.
    """
    universe, k = 60, 256
    num_batches, batch_size = 12, 4_096
    rng = np.random.default_rng(seed)
    all_items = rng.integers(0, universe, num_batches * batch_size).astype(np.uint64)
    all_weights = rng.integers(1, 9, num_batches * batch_size).astype(np.float64)
    batches = [
        (all_items[lo : lo + batch_size], all_weights[lo : lo + batch_size])
        for lo in range(0, len(all_items), batch_size)
    ]
    exact: dict[int, float] = {}
    for item, weight in zip(all_items.tolist(), all_weights.tolist()):
        exact[item] = exact.get(item, 0.0) + weight

    cluster = FailoverCluster(lambda: FrequentItemsSketch(k, seed=seed), tmp_path)
    client = None
    try:
        await cluster.start()
        ports = {node_id: node.port for node_id, node in cluster.nodes.items()}
        client = ServiceClient(
            "127.0.0.1", ports["n0"],
            peers=[f"127.0.0.1:{ports['n1']}", f"127.0.0.1:{ports['n2']}"],
            retry=RetryPolicy(max_retries=400, backoff_initial=0.01, backoff_max=0.05),
        )
        half = num_batches // 2
        for items, weights in batches[:half]:
            await client.send_batch(items, weights)
        await cluster.sync()

        loop = asyncio.get_running_loop()
        killed_at = loop.time()
        await cluster.kill("n0")
        # A dead host refuses connections.  The mesh's proxies to n0 would
        # accept a dial and then close it, which a client must count as a
        # possible delivery; followers name n0 by its proxy address until
        # the election, so take those proxies down with it.
        for node in cluster.nodes.values():
            if "n0" in node.proxies:
                await node.proxies["n0"].stop()
        # The client keeps writing; the first post-kill ack ends the
        # write-unavailability window.
        await client.send_batch(*batches[half])
        mttr = loop.time() - killed_at
        for items, weights in batches[half + 1 :]:
            await client.send_batch(items, weights)

        (winner_id,) = cluster.leader_ids()
        await cluster.sync()
        winner = cluster.nodes[winner_id]
        detection = (winner.coordinator.last_detection_at or killed_at) - killed_at

        window = FAST_FAILOVER.heartbeat_miss_window
        assert mttr <= 5.0 * window, (
            f"failover MTTR {mttr:.2f}s exceeds 5x the {window}s miss window"
        )
        assert detection <= mttr
        assert winner.pipeline.epoch >= 1, "promotion must advance the epoch"
        # Exactly-once across the failover: the one in-flight frame the
        # crash ate is resubmitted once, and nothing is lost or double
        # counted.
        assert client.resubmits == 1
        assert all(
            winner.pipeline.estimate(item) == count for item, count in exact.items()
        )
        assert winner.pipeline.sketch.stream_weight == float(all_weights.sum())
        survivor = next(
            node_id for node_id in cluster.node_ids if node_id not in ("n0", winner_id)
        )
        assert cluster.state(survivor) == cluster.state(winner_id)
    finally:
        if client is not None:
            await client.close()
        await cluster.close()


# --------------------------------------------------------------------------
# The slow matrix (CI runs it under REPRO_NATIVE=1 and =0)


@pytest.mark.slow
@pytest.mark.parametrize("kind", sorted(SKETCH_MAKERS))
def test_kill_leader_auto_promotes_bit_identically(kind, tmp_path):
    run(kill_leader_scenario(
        SKETCH_MAKERS[kind], make_feed(), tmp_path, rejoin=True
    ))


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["flat-probing", "sharded"])
def test_partitioned_minority_cannot_elect(kind, tmp_path):
    run(partition_minority_scenario(
        SKETCH_MAKERS[kind], make_feed(), tmp_path
    ))


@pytest.mark.slow
@pytest.mark.parametrize("kind", sorted(SKETCH_MAKERS))
def test_fenced_ex_leader_rejoins_truncated(kind, tmp_path):
    run(fenced_rejoin_scenario(SKETCH_MAKERS[kind], make_feed(), tmp_path))


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["flat-probing", "sharded"])
def test_disk_full_during_checkpoint_fails_over(kind, tmp_path):
    run(disk_full_checkpoint_scenario(
        SKETCH_MAKERS[kind], make_feed(), tmp_path
    ))


@pytest.mark.slow
def test_failover_mttr_within_five_miss_windows(tmp_path):
    run(failover_mttr_scenario(tmp_path))


# --------------------------------------------------------------------------
# Tier-1 cross-section: one fast pass through the tentpole path


def test_kill_leader_cross_section(tmp_path):
    run(kill_leader_scenario(
        SKETCH_MAKERS["flat-probing"],
        make_feed(num_batches=10, batch_size=120),
        tmp_path,
        rejoin=False,
    ))


def test_kill_leader_elects_without_asyncio_timeout(tmp_path, monkeypatch):
    """Python 3.10 has no ``asyncio.timeout``: the failure detector and
    the vote RPCs must not depend on it, or no election ever starts."""
    monkeypatch.delattr(asyncio, "timeout", raising=False)
    run(kill_leader_scenario(
        SKETCH_MAKERS["flat-probing"],
        make_feed(num_batches=10, batch_size=120),
        tmp_path,
        rejoin=False,
    ))


# --------------------------------------------------------------------------
# Promotion idempotence and announcement fencing


def test_force_promote_is_idempotent(tmp_path):
    """Double-promote is a no-op: same seq, same epoch, one leader."""
    make_sketch = SKETCH_MAKERS["flat-probing"]
    feed = make_feed(num_batches=6, batch_size=120)

    async def scenario():
        cluster = FailoverCluster(make_sketch, tmp_path)
        try:
            await cluster.start()
            await cluster.feed(feed)
            await cluster.sync()
            coordinator = cluster.nodes["n1"].coordinator
            first = await coordinator.force_promote()
            epoch_after_first = coordinator.epoch
            assert not cluster.nodes["n1"].pipeline.is_replica
            # Promote-of-current-leader: answers, changes nothing.
            second = await coordinator.force_promote()
            assert second == first
            assert coordinator.epoch == epoch_after_first
            # The announcement fences the old leader.
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 10.0
            while not cluster.nodes["n0"].pipeline.is_replica:
                assert loop.time() < deadline
                await asyncio.sleep(0.02)
            assert cluster.leader_ids() == ["n1"]
        finally:
            await cluster.close()

    run(scenario())


def test_stale_leader_announcement_is_fenced(tmp_path):
    """A ``REPL LEADER`` at a non-advancing epoch gets an ``ERR`` that
    carries the fencing epoch back to the announcer."""
    make_sketch = SKETCH_MAKERS["flat-probing"]

    async def scenario():
        cluster = FailoverCluster(make_sketch, tmp_path)
        try:
            await cluster.start()
            node0 = cluster.nodes["n0"]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", node0.port
            )
            try:
                writer.write(
                    protocol.encode_leader_line(0, "zz", "127.0.0.1:1")
                )
                await writer.drain()
                reply = (await reader.readline()).decode("ascii")
            finally:
                writer.close()
            assert reply.startswith("ERR")
            assert "epoch" in reply
            assert node0.coordinator.announcements_rejected >= 1
            # The node it tried to depose still leads, unperturbed.
            assert cluster.leader_ids() == ["n0"]
        finally:
            await cluster.close()

    run(scenario())


# --------------------------------------------------------------------------
# Standalone disk-fault contracts (no cluster needed)


def _feed_through(pipeline_feed):
    async def _inner(pipeline):
        for items, weights in pipeline_feed:
            await pipeline.submit(items, weights, wait_applied=True)
    return _inner


def test_torn_wal_append_is_never_accepted(tmp_path):
    """A torn WAL write fails the submit, poisons the segment, and
    recovery replays exactly the acknowledged prefix."""
    make_sketch = SKETCH_MAKERS["flat-probing"]
    feed = make_feed(num_batches=8, batch_size=120)
    plane = DiskFaultPlane()

    async def scenario():
        manager = SnapshotManager(str(tmp_path), faults=plane)
        pipeline = IngestPipeline(
            make_sketch(), config=CLUSTER_CFG, snapshots=manager
        )
        await pipeline.start()
        try:
            await _feed_through(feed[:6])(pipeline)
            plane.inject("write", path_contains=".rwal", torn_bytes=7)
            with pytest.raises(ServiceClosedError):
                await pipeline.submit(
                    feed[6][0], feed[6][1], wait_applied=True
                )
            assert isinstance(pipeline.fault, OSError)
            assert pipeline.fault.errno == errno.ENOSPC
            # The poisoned segment refuses any further append rather
            # than risk a record after a torn region.
            with pytest.raises(SerializationError):
                manager.append_wal(8, feed[7][0], feed[7][1])
        finally:
            # stop() re-raises the surfaced fault; already asserted.
            with contextlib.suppress(OSError):
                await pipeline.stop(final_snapshot=False)

    run(scenario())
    recovered = SnapshotManager(str(tmp_path)).recover()
    assert recovered is not None
    sketch, seq = recovered
    assert seq == 6
    assert (
        sketch.to_bytes(), rng_states(sketch)
    ) == reference_state(make_sketch, feed[:6])


def test_fsync_failure_fails_submit_cleanly(tmp_path):
    """A reported-failed fsync is a failed write: the submit raises and
    the pipeline faults instead of acking unsynced data."""
    make_sketch = SKETCH_MAKERS["flat-probing"]
    feed = make_feed(num_batches=7, batch_size=120)
    plane = DiskFaultPlane()

    async def scenario():
        manager = SnapshotManager(
            str(tmp_path), fsync=True, faults=plane
        )
        pipeline = IngestPipeline(
            make_sketch(), config=CLUSTER_CFG, snapshots=manager
        )
        await pipeline.start()
        try:
            await _feed_through(feed[:5])(pipeline)
            plane.inject("fsync", path_contains=".rwal")
            with pytest.raises(ServiceClosedError):
                await pipeline.submit(
                    feed[5][0], feed[5][1], wait_applied=True
                )
            assert isinstance(pipeline.fault, OSError)
        finally:
            with contextlib.suppress(OSError):
                await pipeline.stop(final_snapshot=False)

    run(scenario())
    recovered = SnapshotManager(str(tmp_path)).recover()
    assert recovered is not None
    sketch, seq = recovered
    # The record may have fully landed before the fsync verdict — the
    # usual crash ambiguity for an *unacknowledged* write — but whatever
    # replays must be a consistent acknowledged-style prefix.
    assert seq in (5, 6)
    assert (
        sketch.to_bytes(), rng_states(sketch)
    ) == reference_state(make_sketch, feed[:seq])


def test_corrupt_snapshot_quarantined_with_fallback(tmp_path, caplog):
    """A corrupt newest snapshot is renamed ``.corrupt`` with a logged
    warning; recovery falls back to the previous checkpoint and the WAL
    replay still lands bit-identically."""
    make_sketch = SKETCH_MAKERS["flat-probing"]
    feed = make_feed(num_batches=10, batch_size=120)

    async def scenario():
        manager = SnapshotManager(str(tmp_path))
        pipeline = IngestPipeline(
            make_sketch(), config=CLUSTER_CFG, snapshots=manager
        )
        await pipeline.start()
        try:
            await _feed_through(feed)(pipeline)
        finally:
            await pipeline.stop(final_snapshot=False)

    run(scenario())
    snapshots = sorted(
        name for name in os.listdir(tmp_path) if name.endswith(".rsnap")
    )
    assert len(snapshots) == 2  # keep_snapshots=2: seqs 5 and 10
    newest = os.path.join(str(tmp_path), snapshots[-1])
    with open(newest, "rb") as fh:
        blob = fh.read()
    with open(newest, "wb") as fh:
        fh.write(blob[: len(blob) // 2])  # truncated: CRC cannot pass

    manager = SnapshotManager(str(tmp_path))
    with caplog.at_level(logging.WARNING, logger="repro.service.snapshot"):
        recovered = manager.recover()
    assert recovered is not None
    sketch, seq = recovered
    assert seq == 10
    assert (
        sketch.to_bytes(), rng_states(sketch)
    ) == reference_state(make_sketch, feed)
    assert "quarantined corrupt snapshot" in caplog.text
    quarantined = [
        name for name in os.listdir(tmp_path) if name.endswith(".corrupt")
    ]
    assert len(quarantined) == 1
    # The quarantined file no longer counts as a snapshot.
    assert manager.snapshot_seqs() == [5]
