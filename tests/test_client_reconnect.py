"""Client-side fault tolerance: reconnect, resubmit, and dedup.

A :class:`ServiceClient` with a :class:`RetryPolicy` promises
exactly-once ingestion across reconnects: update batches travel as
``BINS`` frames whose (session, frame_seq) stamp makes resends
idempotent, so an ``OK`` lost to a dropped connection is retried
without double counting and a delivered batch is never re-applied.
"Restart" here means a new :class:`StreamServer` over the same live
pipeline.  The stamp registry lives only in that pipeline's memory
(neither WAL records nor snapshots carry it), so a pipeline recovered
after a process crash or restart forgets it, and a resend across one is
applied twice; nothing here claims otherwise.  The oracle here is exact by construction — the
serving sketch's capacity exceeds the item universe, so it never
decrements and every estimate equals the true count; any lost or
duplicated update would show up as an exact-count mismatch.
"""

import asyncio

import numpy as np
import pytest

from repro import (
    FrequentItemsSketch,
    IngestPipeline,
    PipelineConfig,
    ServiceClosedError,
)
from repro.errors import ServiceUnavailableError
from repro.service import RetryPolicy, ServiceClient, StreamServer
from repro.service import protocol
from helpers import assert_bounds_valid, await_until, exact_of, zipf_batch

pytestmark = [pytest.mark.service]

UNIVERSE = 60  # < k below: the serving sketch stays exact


def run(coroutine):
    return asyncio.run(coroutine)


def exact_pipeline(seed=3):
    """A pipeline whose sketch can never decrement: an exact oracle."""
    return IngestPipeline(
        FrequentItemsSketch(256, backend="probing", seed=seed),
        config=PipelineConfig(max_batch_items=512, flush_interval=0.002),
    )


def make_batches(num_batches=10, batch_size=200, seed=17):
    """Integer-weighted Zipf batches: float sums stay exact in any
    application order, so the oracle comparison is equality, not ±eps.
    One stream split into slices, so all batches share one item
    universe (distinct ids stay below the serving sketch's k)."""
    items, weights = zipf_batch(
        num_batches * batch_size, universe=UNIVERSE, seed=seed,
        weight_low=1, weight_high=9,
    )
    weights = np.floor(weights)
    return [
        (items[lo : lo + batch_size], weights[lo : lo + batch_size])
        for lo in range(0, len(items), batch_size)
    ]


def exact_counts(batches):
    return exact_of(*batches)


def fast_client(port, *, session=None, peers=None, **overrides):
    """A retrying client with a fast policy; ``overrides`` are
    :class:`RetryPolicy` fields."""
    options = dict(
        max_retries=40, backoff_initial=0.01, backoff_max=0.05
    )
    options.update(overrides)
    return ServiceClient(
        "127.0.0.1", port, retry=RetryPolicy(**options),
        session=session, peers=peers,
    )


def test_restarts_mid_stream_lose_and_duplicate_nothing():
    """Kill the server repeatedly while a feeder streams batches; every
    update must land exactly once."""
    batches = make_batches()
    exact = exact_counts(batches)

    async def main():
        pipeline = exact_pipeline()
        await pipeline.start()
        server = StreamServer(pipeline)
        await server.start()
        port = server.port
        client = fast_client(port)
        try:
            for index, (items, weights) in enumerate(batches):
                if index in (2, 5, 8):
                    # Hard restart between acks: connections drop, the
                    # pipeline (and its idempotency registry) survive.
                    await server.stop()
                    server = StreamServer(pipeline, port=port)
                    await server.start()
                acknowledged = await client.send_batch(items, weights)
                assert acknowledged == len(items)
            await await_until(
                lambda: pipeline.pending_items == 0, message="backlog drained"
            )
            assert client.reconnects >= 3
            for item, true_count in exact.items():
                assert pipeline.estimate(item) == true_count
            assert pipeline.sketch.stream_weight == exact.total_weight
        finally:
            await client.close()
            await server.stop()
            await pipeline.stop(final_snapshot=False)

    run(main())


def test_resubmitted_frame_is_deduplicated_not_reapplied():
    """The lost-OK window, simulated deterministically: the same BINS
    frame arrives twice (as a reconnecting client would resend it);
    the second delivery must ingest nothing."""

    async def main():
        pipeline = exact_pipeline()
        await pipeline.start()
        server = StreamServer(pipeline)
        await server.start()
        try:
            items = np.arange(1, 11, dtype=np.uint64)
            weights = np.full(10, 2.0)
            frame = protocol.encode_bins_frame(items, weights, "sess-a", 1)
            plain = await ServiceClient.connect("127.0.0.1", server.port)
            first = await plain._request(frame)
            assert first == "OK 10"
            second = await plain._request(frame)
            assert second == "OK 0"
            # An older frame_seq from the same session is also a replay.
            stale = protocol.encode_bins_frame(items, weights, "sess-a", 0)
            assert await plain._request(stale) == "OK 0"
            await plain.close()
            await await_until(
                lambda: pipeline.pending_items == 0, message="backlog drained"
            )
            for item in range(1, 11):
                assert pipeline.estimate(item) == 2.0
        finally:
            await server.stop()
            await pipeline.stop(final_snapshot=False)

    run(main())


def test_registry_survives_server_restart():
    """A resend after a restart (new StreamServer, same pipeline) still
    answers ``OK 0``: the registry lives on the pipeline."""

    async def main():
        pipeline = exact_pipeline()
        await pipeline.start()
        server = StreamServer(pipeline)
        await server.start()
        port = server.port
        try:
            client = fast_client(port, session="sess-b")
            await client.send_batch(
                np.array([7, 7, 9], dtype=np.uint64), np.ones(3)
            )
            await client.close()
            await server.stop()
            server = StreamServer(pipeline, port=port)
            await server.start()
            # The resend a client would issue for its unacked frame 1.
            frame = protocol.encode_bins_frame(
                np.array([7, 7, 9], dtype=np.uint64), np.ones(3), "sess-b", 1
            )
            plain = await ServiceClient.connect("127.0.0.1", port)
            assert await plain._request(frame) == "OK 0"
            await plain.close()
            await await_until(
                lambda: pipeline.pending_items == 0, message="backlog drained"
            )
            assert pipeline.estimate(7) == 2.0
            assert pipeline.estimate(9) == 1.0
        finally:
            await server.stop()
            await pipeline.stop(final_snapshot=False)

    run(main())


def test_retry_budget_is_bounded():
    """With nothing listening, the client gives up with the documented
    error instead of spinning forever."""

    async def main():
        client = fast_client(1, max_retries=3)
        with pytest.raises(ServiceClosedError, match="gave up after"):
            await client.ping()
        assert client.reconnects == 3

    run(main())


def test_queries_retry_through_a_restart():
    async def main():
        pipeline = exact_pipeline()
        await pipeline.start()
        server = StreamServer(pipeline)
        await server.start()
        port = server.port
        client = fast_client(port)
        try:
            await client.send_batch(
                np.array([5, 5, 5], dtype=np.uint64), np.ones(3)
            )
            await await_until(
                lambda: pipeline.pending_items == 0, message="backlog drained"
            )
            await server.stop()
            server = StreamServer(pipeline, port=port)
            await server.start()
            assert await client.estimate(5) == 3.0
            seq, estimate = await client.qest(5)
            assert (seq, estimate) == (pipeline.applied_seq, 3.0)
            assert client.reconnects >= 1
        finally:
            await client.close()
            await server.stop()
            await pipeline.stop(final_snapshot=False)

    run(main())


def test_every_query_verb_retries_through_a_restart():
    """Every verb goes through the one retry loop — heavy hitters and
    the stamped queries too, not just the few a separate reconnecting
    wrapper used to copy."""

    async def main():
        pipeline = exact_pipeline()
        await pipeline.start()
        server = StreamServer(pipeline)
        await server.start()
        port = server.port
        client = fast_client(port)
        try:
            await client.send_batch(
                np.array([5, 5, 5, 6], dtype=np.uint64), np.ones(4)
            )
            await await_until(
                lambda: pipeline.pending_items == 0, message="backlog drained"
            )
            queries = [
                (lambda: client.heavy_hitters(0.5), [(5, 3.0)]),
                (lambda: client.qhh(0.5), (pipeline.applied_seq, [(5, 3.0)])),
                (lambda: client.bounds(6), (1.0, 1.0, 1.0)),
                (lambda: client.qbounds(6), (pipeline.applied_seq, 1.0, 1.0, 1.0)),
            ]
            for restarts, (query, expected) in enumerate(queries, start=1):
                await server.stop()
                server = StreamServer(pipeline, port=port)
                await server.start()
                assert await query() == expected
                assert client.reconnects >= restarts
        finally:
            await client.close()
            await server.stop()
            await pipeline.stop(final_snapshot=False)

    run(main())


def test_bounds_stay_valid_under_restarts_with_small_sketch():
    """Same restart schedule against a genuinely lossy sketch (k far
    below the universe): the paper's error bounds must still hold
    against the exact oracle — reconnects cannot smuggle in updates
    that would push an estimate outside its guarantee."""
    batches = [
        zipf_batch(300, universe=900, seed=31 + index)
        for index in range(8)
    ]
    exact = exact_of(*batches)

    async def main():
        pipeline = IngestPipeline(
            FrequentItemsSketch(64, backend="probing", seed=9),
            config=PipelineConfig(max_batch_items=512, flush_interval=0.002),
        )
        await pipeline.start()
        server = StreamServer(pipeline)
        await server.start()
        port = server.port
        client = fast_client(port)
        try:
            for index, batch in enumerate(batches):
                if index in (3, 6):
                    await server.stop()
                    server = StreamServer(pipeline, port=port)
                    await server.start()
                await client.send_batch(*batch)
            await await_until(
                lambda: pipeline.pending_items == 0, message="backlog drained"
            )
            assert_bounds_valid(pipeline.sketch, exact)
        finally:
            await client.close()
            await server.stop()
            await pipeline.stop(final_snapshot=False)

    run(main())


# --------------------------------------------------------------------------
# Retry-loop calibration: jitter and the overall deadline (PR 9)


def test_deadline_raises_service_unavailable():
    """With a wall-clock deadline set, a dead cluster fails the request
    with ServiceUnavailableError well before the attempt budget — the
    knob latency-sensitive callers use instead of counting retries."""
    async def main():
        loop = asyncio.get_running_loop()
        client = fast_client(1, max_retries=10_000, deadline=0.2)
        started = loop.time()
        with pytest.raises(ServiceUnavailableError, match="deadline"):
            await client.ping()
        elapsed = loop.time() - started
        assert elapsed < 5.0, "the deadline must cut the retry loop short"
        assert 0 < client.reconnects < 10_000

    run(main())


def test_backoff_jitter_stretches_delays(monkeypatch):
    """Jitter scales every backoff sleep by ``1 + jitter * random()``.
    With random() pinned to 1.0 the retry loop's wall clock becomes
    deterministic, so the jittered run must take measurably longer than
    the jitter-free one — proving the knob reaches the sleeps."""
    monkeypatch.setattr("random.random", lambda: 1.0)

    async def elapsed_with(jitter):
        loop = asyncio.get_running_loop()
        client = fast_client(
            1, max_retries=4, backoff_initial=0.02, backoff_max=0.02,
            backoff_jitter=jitter,
        )
        started = loop.time()
        with pytest.raises(ServiceClosedError, match="gave up after"):
            await client.ping()
        return loop.time() - started

    async def main():
        plain = await elapsed_with(0.0)      # 4 sleeps of 0.02s
        stretched = await elapsed_with(4.0)  # 4 sleeps of 0.10s
        assert stretched > plain
        assert stretched >= 0.3

    run(main())


def test_follower_retry_deadline_exhausts_cleanly():
    """A follower with a retry deadline against a vanished cluster stops
    with ServiceUnavailableError as its last error — still alive for
    reads — instead of redialing forever."""
    from repro.service.replication import FollowerService, ReplicationConfig

    async def main():
        pipeline = IngestPipeline(
            FrequentItemsSketch(256, backend="probing", seed=9),
            config=PipelineConfig(max_batch_items=512, flush_interval=0.002),
            replica=True,
        )
        await pipeline.start()
        follower = FollowerService(
            pipeline, "127.0.0.1", 1,
            config=ReplicationConfig(
                retry=RetryPolicy(
                    max_retries=10_000, backoff_initial=0.01,
                    backoff_max=0.05, deadline=0.2,
                ),
            ),
        )
        try:
            await follower.start()
            await await_until(
                lambda: follower.exhausted, message="retry deadline hit"
            )
            assert isinstance(follower.last_error, ServiceUnavailableError)
            assert "retry deadline" in str(follower.last_error)
            assert 0 < follower.reconnects < 10_000
            assert pipeline.estimate(1) == 0.0  # reads survive exhaustion
        finally:
            await follower.stop()
            await pipeline.stop(final_snapshot=False)

    run(main())


async def _wedged_server():
    """A server that accepts connections and never answers; returns it
    with the list of its accepted connections (close them when done)."""
    accepted = []

    async def swallow(reader, writer):
        accepted.append(writer)
        await reader.read()

    return await asyncio.start_server(swallow, "127.0.0.1", 0), accepted


@pytest.mark.parametrize("wedged", ["peer", "leader"])
def test_deadline_bounds_a_wedged_replica(wedged):
    """A replica that accepts but never answers cannot hold a request
    past its deadline — neither as the leader probe nor as the target."""

    async def main():
        silent, accepted = await _wedged_server()
        silent_addr = "127.0.0.1:%d" % silent.sockets[0].getsockname()[1]
        if wedged == "peer":  # the leader is dead; its one peer is wedged
            client = fast_client(
                1, peers=[silent_addr], max_retries=10_000, deadline=0.5
            )
        else:
            port = silent.sockets[0].getsockname()[1]
            client = fast_client(port, max_retries=10_000, deadline=0.5)
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            with pytest.raises(ServiceUnavailableError, match="deadline"):
                await client.send_batch(
                    np.array([1], dtype=np.uint64), np.ones(1)
                )
            assert loop.time() - started < 2.0
        finally:
            await client.close()
            for writer in accepted:
                writer.close()
                await writer.wait_closed()
            silent.close()
            await silent.wait_closed()

    run(main())


def test_read_replica_refusals_back_off_and_respect_the_deadline():
    """Two read replicas that each refuse writes and name no leader: the
    client ping-pongs between them, but every refusal spends the same
    budget, so the deadline (and the attempt cap) end the loop."""

    async def main():
        replicas, servers = [], []
        for seed in (1, 2):
            pipeline = IngestPipeline(
                FrequentItemsSketch(256, backend="probing", seed=seed),
                config=PipelineConfig(max_batch_items=512, flush_interval=0.002),
                replica=True,
            )
            await pipeline.start()
            server = StreamServer(pipeline)
            await server.start()
            replicas.append(pipeline)
            servers.append(server)
        a, b = (f"127.0.0.1:{server.port}" for server in servers)
        batch = (np.array([1], dtype=np.uint64), np.ones(1))
        loop = asyncio.get_running_loop()
        try:
            client = fast_client(
                servers[0].port, peers=[b], max_retries=10_000, deadline=0.3
            )
            started = loop.time()
            with pytest.raises(ServiceUnavailableError, match="deadline"):
                await client.send_batch(*batch)
            assert loop.time() - started < 2.0
            assert set(client.known_peers) == {a, b}
            await client.close()

            client = fast_client(servers[0].port, peers=[b], max_retries=3)
            with pytest.raises(ServiceClosedError, match="gave up after"):
                await client.send_batch(*batch)
            await client.close()
            for pipeline in replicas:
                assert pipeline.sketch.stream_weight == 0.0
        finally:
            for server, pipeline in zip(servers, replicas):
                await server.stop()
                await pipeline.stop(final_snapshot=False)

    run(main())


def test_without_a_policy_the_client_is_one_plain_connection():
    """``retry=None`` sends plain ``BIN`` frames, byte for byte, and a
    lost connection surfaces instead of being retried."""
    items = np.array([3, 1, 4, 1, 5], dtype=np.uint64)
    weights = np.array([1.0, 2.0, 3.0, 4.0, 5.0])

    async def main():
        received = bytearray()

        async def record(reader, writer):
            line = await reader.readline()
            received.extend(line)
            received.extend(await reader.readexactly(len(items) * 16))
            writer.write(b"OK %d\n" % len(items))
            await writer.drain()
            writer.close()  # then hang up

        server = await asyncio.start_server(record, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = await ServiceClient.connect("127.0.0.1", port)
        try:
            assert await client.send_batch(items, weights) == len(items)
            assert bytes(received) == protocol.encode_bin_frame(items, weights)
            with pytest.raises((ServiceClosedError, ConnectionError)):
                await client.ping()
            assert client.reconnects == 0
        finally:
            await client.close()
            server.close()
            await server.wait_closed()

    run(main())
