"""Read-replica correctness at every staleness point.

A replica answers queries from whatever prefix of the leader's stream it
has applied, and stamps each response with that prefix's sequence (the
``Q*`` verbs).  The differential property, reusing the fuzz machinery of
``test_differential_fuzz``: for *any* stamped sequence ``s``, the answer
must satisfy the paper's Section 2.3.1 deterministic guarantees against
the exact oracle of exactly the first ``s`` micro-batches — bounds
bracket the true prefix count, absent items estimate to zero, and the
``phi``-heavy-hitter list recalls every item at or above ``phi * W_s``.
Staleness points are forced deterministically by freezing the follower
(stopping its stream consumer) while the leader advances, so stamps
strictly below the leader's sequence are guaranteed, not timing luck.
"""

import asyncio
import random

import numpy as np
import pytest

from repro import (
    FrequentItemsSketch,
    IngestPipeline,
    SnapshotManager,
)
from repro.service import ServiceClient, StreamServer
from repro.service.replication import FollowerService, ReplicationManager
from replication_harness import CLUSTER_CFG, FAST_REPL
from test_differential_fuzz import _draw_stream, _to_arrays

pytestmark = [pytest.mark.service, pytest.mark.replication]

UNIVERSE = 400
BATCHES = 10
BATCH_SIZE = 200


def run(coroutine):
    return asyncio.run(coroutine)


def draw_batches(seed):
    rng = random.Random(seed)
    items, weights = _draw_stream(
        rng, universe=UNIVERSE, n=BATCHES * BATCH_SIZE, max_weight=9
    )
    arrays = _to_arrays(items, weights)
    return [
        (arrays[0][lo : lo + BATCH_SIZE], arrays[1][lo : lo + BATCH_SIZE])
        for lo in range(0, len(items), BATCH_SIZE)
    ]


def prefix_oracles(batches):
    """``oracles[s]`` = exact counts and total weight after batch ``s``."""
    counts: dict[int, float] = {}
    oracles = [({}, 0.0)]
    total = 0.0
    for items, weights in batches:
        for item, weight in zip(items.tolist(), weights.tolist()):
            counts[item] = counts.get(item, 0.0) + weight
            total += weight
        oracles.append((dict(counts), total))
    return oracles


async def check_replica_answers(client, oracles, probes):
    """One round of stamped queries, validated against the stamped
    prefix's oracle.  Returns the staleness sequence observed."""
    seqs = set()
    for item in probes:
        seq, lower, estimate, upper = await client.qbounds(item)
        exact, _total = oracles[seq]
        true_count = exact.get(item, 0.0)
        assert lower - 1e-9 <= true_count <= upper + 1e-9, (
            f"bounds [{lower}, {upper}] miss exact {true_count} "
            f"for item {item} at staleness seq {seq}"
        )
        assert lower - 1e-9 <= estimate <= upper + 1e-9
        seqs.add(seq)
    # An item that never occurs anywhere must estimate to exactly zero.
    seq, estimate = await client.qest(UNIVERSE + 1)
    assert estimate == 0.0
    seqs.add(seq)
    # phi-heavy-hitter recall at the stamped prefix.
    phi = 0.05
    seq, pairs = await client.qhh(phi)
    exact, total = oracles[seq]
    returned = {item for item, _est in pairs}
    for item, true_count in exact.items():
        if total and true_count >= phi * total:
            assert item in returned, (
                f"item {item} (exact {true_count} >= {phi} * {total}) "
                f"missing from QHH at staleness seq {seq}"
            )
    seqs.add(seq)
    assert len(seqs) == 1, f"one query round spanned stamps {seqs}"
    return seqs.pop()


@pytest.mark.parametrize("seed", [101, 202])
def test_replica_queries_valid_at_every_staleness_point(seed, tmp_path):
    batches = draw_batches(seed)
    oracles = prefix_oracles(batches)
    probe_rng = random.Random(seed + 1)
    probes = probe_rng.sample(range(UNIVERSE), 40)

    async def main():
        leader = IngestPipeline(
            FrequentItemsSketch(64, backend="probing", seed=7),
            config=CLUSTER_CFG,
            snapshots=SnapshotManager(str(tmp_path / f"leader-{seed}")),
            replication=ReplicationManager(FAST_REPL),
        )
        await leader.start()
        leader_server = StreamServer(leader)
        await leader_server.start()

        follower_pipe = IngestPipeline(
            FrequentItemsSketch(64, backend="probing", seed=7),
            config=CLUSTER_CFG,
            snapshots=SnapshotManager(str(tmp_path / f"follower-{seed}")),
            replica=True,
        )
        await follower_pipe.start()
        follower = FollowerService(
            follower_pipe, "127.0.0.1", leader_server.port, config=FAST_REPL
        )
        replica_server = StreamServer(follower_pipe, follower=follower)
        await replica_server.start()
        await follower.start()
        client = await ServiceClient.connect("127.0.0.1", replica_server.port)
        try:
            observed = set()
            # Phase 1: replica attached and caught up after each batch.
            for upto, batch in enumerate(batches[:4], start=1):
                await leader.submit(*batch, wait_applied=True)
                await follower.wait_for_seq(leader.applied_seq)
                observed.add(
                    await check_replica_answers(client, oracles, probes)
                )
            # Phase 2: freeze the replica, let the leader run ahead —
            # every stamp now reports a genuinely stale prefix.
            await follower.stop()
            frozen_seq = follower_pipe.applied_seq
            for batch in batches[4:8]:
                await leader.submit(*batch, wait_applied=True)
                stamp = await check_replica_answers(client, oracles, probes)
                assert stamp == frozen_seq < leader.applied_seq
                observed.add(stamp)
            # Phase 3: resume, catch up, finish the stream.
            await follower.start()
            for batch in batches[8:]:
                await leader.submit(*batch, wait_applied=True)
            await follower.wait_for_seq(leader.applied_seq)
            stamp = await check_replica_answers(client, oracles, probes)
            assert stamp == leader.applied_seq == len(batches)
            observed.add(stamp)
            assert len(observed) >= 5, (
                f"expected many distinct staleness points, saw {observed}"
            )
        finally:
            await client.close()
            await follower.stop()
            await replica_server.stop()
            await follower_pipe.stop(final_snapshot=False)
            await leader_server.stop()
            await leader.stop(final_snapshot=False)

    run(main())
