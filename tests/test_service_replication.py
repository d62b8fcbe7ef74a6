"""Leader/follower replication: sync, bootstrap, promotion, staleness.

The functional half of the replication story (the fault-injection matrix
lives in ``test_replication_faults.py``): a follower tracking a live
leader holds *byte-identical* state — serialized blob and PRNG words —
because it replays the identical micro-batches through the identical
engine; bootstrap and seq-gap catch-up arrive as shipped snapshots;
promotion flips a read replica into a writable leader; and the
read-replica query surface stamps every answer with the sequence it was
read at.
"""

import asyncio
import os
import struct

import numpy as np
import pytest

from repro import (
    FrequentItemsSketch,
    IngestPipeline,
    PipelineConfig,
    ReadOnlyReplicaError,
    ReplicationError,
    SnapshotManager,
    StreamServer,
)
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.replication import (
    FollowerService,
    ReplicationConfig,
    ReplicationManager,
)
from repro.service.snapshot import encode_wal_record
from repro.service.client import RetryPolicy

from replication_harness import CLUSTER_CFG, FAST_REPL, ReplicaCluster
from test_service_recovery import SKETCH_MAKERS, make_feed, rng_states

pytestmark = [pytest.mark.service, pytest.mark.replication]


def run(coroutine):
    return asyncio.run(coroutine)


def make_leader(make_sketch, **kwargs):
    return IngestPipeline(
        make_sketch(), config=CLUSTER_CFG,
        replication=ReplicationManager(kwargs.pop("repl", FAST_REPL)),
        **kwargs,
    )


def make_follower_pipe(make_sketch):
    return IngestPipeline(make_sketch(), config=CLUSTER_CFG, replica=True)


@pytest.mark.parametrize("kind", sorted(SKETCH_MAKERS))
def test_follower_tracks_leader_byte_identically(kind):
    """The core property, per sketch kind: after syncing, leader and
    follower serialize to the same bytes with the same PRNG words."""
    make_sketch = SKETCH_MAKERS[kind]
    feed = make_feed(num_batches=12, batch_size=300)

    async def main():
        leader = make_leader(make_sketch)
        follower_pipe = make_follower_pipe(make_sketch)
        async with leader:
            async with StreamServer(leader) as server:
                follower = FollowerService(
                    follower_pipe, "127.0.0.1", server.port, config=FAST_REPL
                )
                async with follower_pipe, follower:
                    for items, weights in feed:
                        await leader.submit(items, weights, wait_applied=True)
                    await follower.wait_for_seq(leader.applied_seq)
                    assert follower_pipe.applied_seq == leader.applied_seq
                    assert (
                        follower_pipe.sketch.to_bytes()
                        == leader.sketch.to_bytes()
                    )
                    assert rng_states(follower_pipe.sketch) == rng_states(
                        leader.sketch
                    )

    run(main())


def test_published_frame_carries_the_wal_record_bytes(tmp_path):
    """Each micro-batch's RWAL record is encoded once: the published
    ``F`` frame ends with exactly the bytes appended to the WAL segment,
    and those are the canonical encoding of the batch."""
    feed = make_feed(num_batches=4, batch_size=50)
    snapshots = SnapshotManager(str(tmp_path / "leader"))

    async def main():
        leader = make_leader(
            lambda: FrequentItemsSketch(64, seed=1), snapshots=snapshots
        )
        appended = []
        async with leader:
            for index, (items, weights) in enumerate(feed):
                before = os.path.getsize(snapshots._wal_path)
                await leader.submit(
                    items, weights, wait_applied=True, stamp=("sess", index)
                )
                with open(snapshots._wal_path, "rb") as segment:
                    segment.seek(before)
                    appended.append(segment.read())
        return leader, appended

    leader, appended = run(main())
    frames = list(leader.replication._ring)
    assert [seq for seq, _frame in frames] == [1, 2, 3, 4]
    for (seq, frame), record, (items, weights) in zip(frames, appended, feed):
        assert record == encode_wal_record(seq, items, weights)
        assert frame.endswith(record)
        header = frame[: len(frame) - len(record)]
        assert header.startswith(protocol.REPL_FRAME_FENCED)
        assert header.endswith(b"sess" + struct.pack("<Q", seq - 1))


def test_bootstrap_replaces_mismatched_fresh_sketch():
    """A fresh follower's own sketch (any seed/k) is irrelevant: the
    bootstrap snapshot installs the leader's canonical state."""

    async def main():
        leader = make_leader(SKETCH_MAKERS["flat-probing"])
        # Deliberately different k, seed, and backend.
        follower_pipe = IngestPipeline(
            FrequentItemsSketch(96, backend="dict", seed=999),
            config=CLUSTER_CFG, replica=True,
        )
        feed = make_feed(num_batches=8, batch_size=200)
        async with leader:
            for items, weights in feed[:5]:
                await leader.submit(items, weights, wait_applied=True)
            async with StreamServer(leader) as server:
                follower = FollowerService(
                    follower_pipe, "127.0.0.1", server.port, config=FAST_REPL
                )
                async with follower_pipe, follower:
                    await follower.wait_for_seq(leader.applied_seq)
                    assert follower.snapshots_installed >= 1
                    # ... and live frames keep flowing after the install.
                    for items, weights in feed[5:]:
                        await leader.submit(items, weights, wait_applied=True)
                    await follower.wait_for_seq(leader.applied_seq)
                    assert (
                        follower_pipe.sketch.to_bytes()
                        == leader.sketch.to_bytes()
                    )

    run(main())


def test_ring_overflow_triggers_snapshot_catchup():
    """A follower that reconnects after the leader's replay ring has
    wrapped is caught up by a shipped snapshot, not a replay gap."""

    async def main():
        repl = ReplicationConfig(
            ring_frames=4,
            retry=RetryPolicy(
                max_retries=200, backoff_initial=0.01, backoff_max=0.05
            ),
            heartbeat_interval=0.1,
        )
        leader = make_leader(SKETCH_MAKERS["flat-probing"], repl=repl)
        follower_pipe = make_follower_pipe(SKETCH_MAKERS["flat-probing"])
        feed = make_feed(num_batches=16, batch_size=150)
        async with leader:
            async with StreamServer(leader) as server:
                follower = FollowerService(
                    follower_pipe, "127.0.0.1", server.port, config=repl
                )
                async with follower_pipe:
                    async with follower:
                        for items, weights in feed[:3]:
                            await leader.submit(
                                items, weights, wait_applied=True
                            )
                        await follower.wait_for_seq(leader.applied_seq)
                    # Follower offline; leader advances far past ring=4.
                    for items, weights in feed[3:]:
                        await leader.submit(items, weights, wait_applied=True)
                    async with follower:
                        await follower.wait_for_seq(leader.applied_seq)
                        assert follower.snapshots_installed >= 1
                        assert (
                            follower_pipe.sketch.to_bytes()
                            == leader.sketch.to_bytes()
                        )

    run(main())


def test_duplicate_frames_are_skipped_not_reapplied():
    """apply_frame is exactly-once-apply: duplicates return
    False and change nothing; gaps refuse loudly."""
    sketch = FrequentItemsSketch(64, seed=3)
    pipeline = IngestPipeline(sketch, replica=True)
    items = np.array([5, 6], dtype=np.uint64)
    weights = np.array([2.0, 3.0])
    assert pipeline.apply_frame(1, items, weights) is True
    before = pipeline.sketch.to_bytes()
    assert pipeline.apply_frame(1, items, weights) is False
    assert pipeline.sketch.to_bytes() == before
    with pytest.raises(ReplicationError, match="gap"):
        pipeline.apply_frame(3, items, weights)
    assert pipeline.applied_seq == 1


def test_replica_rejects_writes_until_promoted():
    async def main():
        pipeline = make_follower_pipe(SKETCH_MAKERS["flat-probing"])
        async with pipeline:
            with pytest.raises(ReadOnlyReplicaError):
                await pipeline.update(1)
            assert pipeline.role == "follower"
            assert pipeline.promote() == 0
            assert pipeline.role == "leader"
            await pipeline.update(1)
            await pipeline.drain()
            assert pipeline.estimate(1) == 1.0

    run(main())


def test_install_snapshot_refuses_rewind():
    pipeline = IngestPipeline(FrequentItemsSketch(64, seed=3), replica=True)
    items = np.array([5], dtype=np.uint64)
    for seq in (1, 2, 3):
        pipeline.apply_frame(seq, items, np.array([1.0]))
    with pytest.raises(ReplicationError, match="rewind|below"):
        pipeline.install_snapshot(FrequentItemsSketch(64, seed=3), 2)


def test_promotion_stops_stream_before_lifting_readonly(tmp_path):
    """REPL PROMOTE through the wire: the old follower answers writes,
    and its state at promotion equals the leader's."""

    async def main():
        cluster = ReplicaCluster(
            SKETCH_MAKERS["flat-probing-adaptive"], tmp_path
        )
        try:
            await cluster.start_leader()
            await cluster.start_follower()
            feed = make_feed(num_batches=10, batch_size=200)
            await cluster.feed(feed)
            await cluster.sync()

            follower_server = StreamServer(
                cluster.follower_pipe, follower=cluster.follower
            )
            async with follower_server:
                async with await ServiceClient.connect(
                    "127.0.0.1", follower_server.port
                ) as client:
                    status = await client.repl_status()
                    assert status["role"] == "follower"
                    assert status["follower"]["connected"] is True
                    with pytest.raises(ServiceError):
                        await client.update(1)
                    seq = await client.promote()
                    assert seq == cluster.leader.applied_seq
                    assert cluster.leader_state() == cluster.follower_state()
                    await client.update(1)  # now writable
                    status = await client.repl_status()
                    assert status["role"] == "leader"
                    # Promote-of-current-leader is an idempotent no-op
                    # reporting the applied sequence — a retried operator
                    # script must not fail because its first try landed.
                    await cluster.follower_pipe.drain()
                    assert (
                        await client.promote()
                        == cluster.follower_pipe.applied_seq
                    )
        finally:
            await cluster.close()

    run(main())


def test_repl_status_reports_follower_registry():
    async def main():
        leader = make_leader(SKETCH_MAKERS["flat-probing"])
        follower_pipe = make_follower_pipe(SKETCH_MAKERS["flat-probing"])
        async with leader:
            async with StreamServer(leader) as server:
                follower = FollowerService(
                    follower_pipe, "127.0.0.1", server.port, config=FAST_REPL
                )
                async with follower_pipe, follower:
                    await leader.submit(
                        np.arange(10, dtype=np.uint64), wait_applied=True
                    )
                    await follower.wait_for_seq(1)
                    async with await ServiceClient.connect(
                        "127.0.0.1", server.port
                    ) as client:
                        status = await client.repl_status()
                        assert status["role"] == "leader"
                        rows = status["replication"]["followers"]
                        assert len(rows) == 1
                        assert rows[0]["acked_seq"] == 1
                        stats = await client.stats()
                        assert stats["role"] == "leader"

    run(main())


def test_replica_queries_carry_staleness_seq():
    """QEST/QBOUNDS/QHH answer from the replica with the exact applied
    sequence the answer was read at."""

    async def main():
        leader = make_leader(SKETCH_MAKERS["flat-probing"])
        follower_pipe = make_follower_pipe(SKETCH_MAKERS["flat-probing"])
        async with leader:
            async with StreamServer(leader) as server:
                follower = FollowerService(
                    follower_pipe, "127.0.0.1", server.port, config=FAST_REPL
                )
                async with follower_pipe, follower:
                    replica_server = StreamServer(follower_pipe)
                    async with replica_server:
                        for _ in range(3):
                            await leader.submit(
                                np.array([7, 7, 8], dtype=np.uint64),
                                wait_applied=True,
                            )
                        await follower.wait_for_seq(leader.applied_seq)
                        async with await ServiceClient.connect(
                            "127.0.0.1", replica_server.port
                        ) as client:
                            seq, estimate = await client.qest(7)
                            assert seq == 3
                            assert estimate == 6.0
                            seq, low, est, high = await client.qbounds(7)
                            assert seq == 3 and low <= 6.0 <= high
                            seq, pairs = await client.qhh(0.4)
                            assert seq == 3
                            assert pairs and pairs[0][0] == 7

    run(main())


def test_follower_retry_budget_exhausts_cleanly():
    """No leader at all: the follower's bounded backoff runs out, the
    service reports exhausted, and reads still work."""

    async def main():
        follower_pipe = make_follower_pipe(SKETCH_MAKERS["flat-probing"])
        config = ReplicationConfig(
            retry=RetryPolicy(
                max_retries=3, backoff_initial=0.005, backoff_max=0.01
            )
        )
        async with follower_pipe:
            # Port 1 is reserved and closed everywhere this runs.
            follower = FollowerService(
                follower_pipe, "127.0.0.1", 1, config=config
            )
            async with follower:
                from helpers import await_until

                await await_until(
                    lambda: follower.exhausted, timeout=5.0,
                    message="retry budget exhaustion",
                )
                assert follower.last_error is not None
                assert follower_pipe.estimate(1) == 0.0

    run(main())


def test_cli_parses_follow_and_promote():
    from repro.service.__main__ import build_parser, parse_addr

    parser = build_parser()
    args = parser.parse_args(["--follow", "10.0.0.2:9471"])
    assert args.follow == ("10.0.0.2", 9471)
    assert parser.parse_args([]).follow is None
    assert parser.parse_args(["--promote"]).promote is True
    with pytest.raises(SystemExit):
        parser.parse_args(["--follow", "nonsense"])
    with pytest.raises(SystemExit):
        parser.parse_args(["--follow", "host:notaport"])
    assert parse_addr("[::1]:9471") == ("[::1]", 9471)


def test_hello_rejected_without_replication_manager():
    async def main():
        pipeline = IngestPipeline(FrequentItemsSketch(32, seed=1))
        async with pipeline:
            async with StreamServer(pipeline) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"REPL HELLO 0\n")
                await writer.drain()
                line = await reader.readline()
                assert line.startswith(b"ERR")
                writer.close()

    run(main())
