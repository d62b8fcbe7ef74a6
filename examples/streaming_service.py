#!/usr/bin/env python
"""The streaming ingest service, end to end: server, clients, recovery.

Starts a :class:`~repro.service.server.StreamServer` over an
:class:`~repro.service.pipeline.IngestPipeline` with snapshot/WAL
durability, drives it with concurrent producer clients shipping binary
batch frames over TCP, queries heavy hitters live, then *kills* the
service without a clean shutdown and recovers it from the checkpoint
directory — demonstrating that the recovered state matches the killed
one bit for bit (serialized bytes and PRNG state both).

Run:  python examples/streaming_service.py
"""

import asyncio
import tempfile
import time

from repro import ExactCounter, FrequentItemsSketch, IngestPipeline, PipelineConfig
from repro.service import ServiceClient, SnapshotManager, StreamServer
from repro.streams import ZipfianStream

K = 1024
NUM_PRODUCERS = 4
UPDATES_PER_PRODUCER = 50_000
FRAME = 4_096


def producer_stream(index: int):
    return list(
        ZipfianStream(
            UPDATES_PER_PRODUCER, universe=10_000, alpha=1.1,
            seed=100 + index, weight_low=1, weight_high=1_000,
        ).batches(batch_size=FRAME)
    )


async def run_producer(port: int, batches) -> int:
    client = await ServiceClient.connect("127.0.0.1", port)
    sent = 0
    for items, weights in batches:
        sent += await client.send_batch(items, weights)  # binary frames
    await client.close()
    return sent


async def main() -> None:
    data_dir = tempfile.mkdtemp(prefix="repro-service-")
    streams = [producer_stream(index) for index in range(NUM_PRODUCERS)]
    exact = ExactCounter()
    for batches in streams:
        for items, weights in batches:
            for item, weight in zip(items.tolist(), weights.tolist()):
                exact.update(item, weight)

    # -- serve, ingest from concurrent TCP producers, query live -----------
    pipeline = IngestPipeline(
        FrequentItemsSketch(K, seed=7),
        config=PipelineConfig(max_batch_items=16_384, flush_interval=0.005,
                              snapshot_every_batches=16),
        snapshots=SnapshotManager(data_dir),
    )
    async with pipeline:
        server = StreamServer(pipeline)
        async with server:
            print(f"serving on 127.0.0.1:{server.port}  (data dir {data_dir})")
            start = time.perf_counter()
            sent = await asyncio.gather(
                *(run_producer(server.port, batches) for batches in streams)
            )
            await pipeline.drain()
            seconds = time.perf_counter() - start
            total = sum(sent)
            print(f"ingested {total:,} updates from {NUM_PRODUCERS} TCP "
                  f"producers in {seconds:.2f}s "
                  f"({total / seconds:,.0f} updates/sec)")

            query = await ServiceClient.connect("127.0.0.1", server.port)
            hitters = await query.heavy_hitters(0.005)
            stats = await query.stats()
            await query.close()
            print(f"micro-batches applied: {stats['applied_batches']}, "
                  f"snapshots: {stats['snapshots_written']}, "
                  f"WAL bytes: {stats['wal_bytes']:,}")
            true_hitters = exact.heavy_hitters(0.005)
            reported = {item for item, _estimate in hitters}
            recall = sum(item in reported for item in true_hitters) / max(
                1, len(true_hitters)
            )
            print(f"heavy hitters (phi=0.5%): {len(hitters)} reported, "
                  f"recall vs exact oracle = {recall:.2f}")
        # Kill: no final snapshot — state survives only as checkpoint + WAL.
        await pipeline.stop(final_snapshot=False)
    killed_bytes = pipeline.sketch.to_bytes()
    killed_rng = pipeline.sketch.kernel.rng.getstate()

    # -- recover from disk and verify bit-identity --------------------------
    recovered = IngestPipeline.recover(SnapshotManager(data_dir))
    match_bytes = recovered.sketch.to_bytes() == killed_bytes
    match_rng = recovered.sketch.kernel.rng.getstate() == killed_rng
    print(f"recovered from {data_dir}: seq={recovered.applied_seq}, "
          f"bytes identical: {match_bytes}, PRNG identical: {match_rng}")
    assert match_bytes and match_rng
    async with recovered:
        await recovered.submit([1, 2, 1], [10.0, 5.0, 10.0])
        await recovered.drain()
    print("recovered service keeps ingesting: estimate(1) =",
          recovered.estimate(1))


if __name__ == "__main__":
    asyncio.run(main())
