"""TCP front end: protocol conformance, concurrent clients, durability."""

import asyncio
import signal

import numpy as np
import pytest

from helpers import serve_in_session, wait_session_gone

from repro import (
    ExactCounter,
    FrequentItemsSketch,
    IngestPipeline,
    PipelineConfig,
    ServiceClosedError,
)
from repro.service import ServiceClient, SnapshotManager, StreamServer
from repro.service.client import ServiceError

pytestmark = pytest.mark.service


def run(coroutine):
    return asyncio.run(coroutine)


def _pipeline(k=256, seed=3):
    return IngestPipeline(
        FrequentItemsSketch(k, backend="probing", seed=seed),
        config=PipelineConfig(max_batch_items=512, flush_interval=0.002),
    )


async def _serve(pipeline):
    await pipeline.start()
    server = StreamServer(pipeline)
    await server.start()
    return server


def test_protocol_round_trip():
    async def main():
        pipeline = _pipeline()
        server = await _serve(pipeline)
        client = await ServiceClient.connect("127.0.0.1", server.port)
        assert await client.ping()
        await client.update(7, 2.0)
        assert await client.send_batch(
            np.array([7, 8, 7], dtype=np.uint64),
            np.array([1.0, 5.0, 1.0]),
        ) == 3
        assert await client.send_batch([8, 9], binary=False) == 2
        await pipeline.drain()
        assert await client.estimate(7) == 4.0
        lower, estimate, upper = await client.bounds(8)
        assert lower == estimate == upper == 6.0
        hitters = await client.heavy_hitters(0.3)
        assert hitters[0] == (8, 6.0)
        stats = await client.stats()
        assert stats["applied_items"] == 6
        assert stats["stream_weight"] == 11.0
        assert stats["pending_items"] == 0
        await client.close()
        await server.stop()
        await pipeline.stop()

    run(main())


def test_errors_keep_the_connection_alive():
    async def main():
        pipeline = _pipeline()
        server = await _serve(pipeline)
        client = await ServiceClient.connect("127.0.0.1", server.port)
        for payload in (
            b"NONSENSE\n",
            b"UPDATE\n",
            b"UPDATE notanumber\n",
            b"UPDATE 5 -1.0\n",           # negative weight: rejected atomically
            b"BATCH 1:2 2:-5\n",
            b"BATCH 99999999999999999999999:1\n",  # item beyond uint64
            b"EST\n",
            b"HH nope\n",
        ):
            with pytest.raises(ServiceError):
                await client._request(payload)
        # The connection survived every error and the sketch is untouched.
        assert await client.ping()
        await client.close()
        # BIN *framing* errors answer ERR and then close: once a binary
        # payload may be in flight the stream cannot be resynchronized.
        for payload in (b"BIN 0\n", b"BIN -4\n", b"BIN abc\n",
                        b"BIN 999999999\n"):
            fresh = await ServiceClient.connect("127.0.0.1", server.port)
            with pytest.raises(ServiceError, match="closing"):
                await fresh._request(payload)
            with pytest.raises(ServiceClosedError):
                await fresh._request(b"PING\n")
        await pipeline.drain()
        assert pipeline.sketch.is_empty()
        await server.stop()
        await pipeline.stop()

    run(main())


def test_weights_travel_at_full_precision():
    """Regression: '%g'-style formatting truncated weights to 6
    significant digits on the scalar and text-batch paths."""
    needs_53_bits = float((1 << 53) - 1)  # 9007199254740991.0

    async def main():
        pipeline = _pipeline()
        server = await _serve(pipeline)
        client = await ServiceClient.connect("127.0.0.1", server.port)
        await client.update(1, 16777217.0)
        await client.send_batch([2], [needs_53_bits], binary=False)
        await pipeline.drain()
        one = await client.estimate(1)
        two = await client.estimate(2)
        await client.close()
        await server.stop()
        await pipeline.stop()
        return one, two

    assert run(main()) == (16777217.0, needs_53_bits)


def test_heavy_hitter_phi_travels_at_full_precision():
    """Regression: '%g' rounded phi to 6 significant digits, raising the
    served threshold past a true heavy hitter (no false negatives)."""
    phi = 0.1234566  # '%g' sends 0.123457: threshold 1234570 > 1234568

    async def main():
        pipeline = _pipeline()
        server = await _serve(pipeline)
        client = await ServiceClient.connect("127.0.0.1", server.port)
        await client.send_batch([1, 2], [1234568.0, 10**7 - 1234568.0])
        await pipeline.drain()
        hitters = await client.heavy_hitters(phi)
        _seq, stamped = await client.qhh(phi)
        expected = [row.item for row in pipeline.sketch.heavy_hitters(phi)]
        await client.close()
        await server.stop()
        await pipeline.stop()
        return [item for item, _ in hitters], [item for item, _ in stamped], expected

    hitters, stamped, expected = run(main())
    assert expected == [2, 1]
    assert hitters == stamped == expected


def test_empty_batch_is_a_noop():
    async def main():
        pipeline = _pipeline()
        server = await _serve(pipeline)
        client = await ServiceClient.connect("127.0.0.1", server.port)
        assert await client.send_batch([]) == 0
        assert await client.send_batch([], binary=False) == 0
        assert await client.ping()
        await pipeline.drain()
        assert pipeline.sketch.is_empty()
        await client.close()
        await server.stop()
        await pipeline.stop()

    run(main())


def test_concurrent_clients_against_oracle():
    oracle = ExactCounter()
    streams = []
    for client_index in range(4):
        items = (np.arange(500, dtype=np.uint64) * 7 + client_index) % 200
        weights = np.full(500, float(client_index + 1))
        streams.append((items, weights))
        for item, weight in zip(items.tolist(), weights.tolist()):
            oracle.update(item, weight)

    async def main():
        pipeline = _pipeline(k=256)
        server = await _serve(pipeline)

        async def feeder(items, weights):
            client = await ServiceClient.connect("127.0.0.1", server.port)
            for start in range(0, len(items), 50):
                await client.send_batch(
                    items[start : start + 50], weights[start : start + 50]
                )
            await client.close()

        await asyncio.gather(*(feeder(*stream) for stream in streams))
        await pipeline.drain()
        await server.stop()
        await pipeline.stop()
        return pipeline.sketch

    sketch = run(main())
    # 200 distinct < k: exact regime, so any lost/duplicated update shows.
    assert sketch.stream_weight == oracle.total_weight
    for item, frequency in oracle.items():
        assert sketch.estimate(item) == frequency


def test_snapshot_command_and_restart(tmp_path):
    directory = str(tmp_path / "served")

    async def serve_and_kill():
        pipeline = IngestPipeline(
            FrequentItemsSketch(64, backend="probing", seed=5),
            config=PipelineConfig(max_batch_items=512, flush_interval=0.002),
            snapshots=SnapshotManager(directory),
        )
        server = await _serve(pipeline)
        client = await ServiceClient.connect("127.0.0.1", server.port)
        await client.send_batch(
            np.array([1, 1, 2, 3], dtype=np.uint64),
            np.array([4.0, 4.0, 2.0, 1.0]),
        )
        await pipeline.drain()
        seq = await client.snapshot()
        assert seq == pipeline.applied_seq
        await client.close()
        await server.stop()
        await pipeline.stop(final_snapshot=False)

    async def restart():
        pipeline = IngestPipeline.recover(SnapshotManager(directory))
        server = await _serve(pipeline)
        client = await ServiceClient.connect("127.0.0.1", server.port)
        estimate = await client.estimate(1)
        await client.close()
        await server.stop()
        await pipeline.stop()
        return estimate

    run(serve_and_kill())
    assert run(restart()) == 8.0


def test_stop_with_idle_connected_client_does_not_hang():
    """Server.close() only stops accepting; on Python >= 3.12
    wait_closed() waits for handlers, so stop() must actively close the
    connections an idle client keeps open."""

    async def main():
        pipeline = _pipeline()
        server = await _serve(pipeline)
        idle = await ServiceClient.connect("127.0.0.1", server.port)
        assert await idle.ping()
        # The client now sits idle; its handler is parked in readline().
        await asyncio.wait_for(server.stop(), timeout=5.0)
        await pipeline.stop()

    run(main())


def test_quit_closes_connection():
    async def main():
        pipeline = _pipeline()
        server = await _serve(pipeline)
        client = await ServiceClient.connect("127.0.0.1", server.port)
        await client.close()  # QUIT + BYE
        # A second close is a no-op, and new connections still work.
        await client.close()
        fresh = await ServiceClient.connect("127.0.0.1", server.port)
        assert await fresh.ping()
        await fresh.close()
        await server.stop()
        await pipeline.stop()

    run(main())


def test_sigterm_takes_the_clean_shutdown(tmp_path):
    """``python -m repro.service`` treats SIGTERM like SIGINT: it exits 0
    after the final checkpoint, so a restart replays nothing."""
    process, banner = serve_in_session("--data-dir", str(tmp_path), "--k", "64")
    try:
        port = int(banner.split(" on ")[1].split(":")[1].split()[0])

        async def feed():
            async with await ServiceClient.connect("127.0.0.1", port) as client:
                await client.send_batch(np.arange(100, dtype=np.uint64))
                while (await client.stats())["pending_items"]:
                    await asyncio.sleep(0.01)
                return (await client.stats())["applied_seq"]

        applied = run(feed())
        process.send_signal(signal.SIGTERM)
        status = process.wait(timeout=30)
    finally:
        survivors = wait_session_gone(process.pid, timeout=10.0)
        process.stdout.close()
    assert (status, survivors) == (0, [])
    assert applied >= 1
    assert SnapshotManager(str(tmp_path)).latest_snapshot_seq() == applied
