"""Streaming ingest service: sustained throughput under concurrency.

pytest-benchmark timings for the asyncio :class:`~repro.service.
pipeline.IngestPipeline` under 1 and 4 concurrent producers, and the
subsystem's acceptance gates.  Every ratio gate times both of its sides
in this process.  The gates:

* **throughput** — the pipeline must sustain at least 1M applied
  updates/sec from 4 concurrent producers on the quick Zipf workload,
  as the median of ``REPEATS`` timed runs (one shot sits too close to
  the bar on a noisy host to decide a verdict).
* **fidelity** — the served sketch must be bit-identical to a direct
  ``update_batch`` feed of the same stream: the service repackages the
  stream, it must not change it.
* **durability overhead** — with WAL + snapshots enabled the pipeline
  must keep at least half its no-durability throughput (the log is an
  append + CRC per micro-batch, not a per-update cost).
* **replication overhead** — with one live TCP follower attached (the
  clock stopping only when the *replica* has applied the last
  micro-batch) the pipeline must sustain at least half the single-node
  4-producer gate, and the follower's serialized blob must be
  byte-identical to the leader's.
* **replication fan-out** — a leader with **two** live followers must
  keep at least 0.4x the single-node gate with both followers
  byte-identical (each subscriber adds one frame encode + socket write
  per micro-batch, not a second ingest).
* **cluster scale-out** — the multi-process tenant cluster
  (:mod:`repro.service.cluster`) with 4 workers must reach >= 2.5x its
  own 1-worker throughput on a >= 4-core runner; on smaller runners the
  ratio is recorded (``extra_info``) but not enforced, since four
  workers cannot run in parallel on one core.

The kill-leader failover MTTR gate lives with the failover chaos matrix
(``tests/test_failover_faults.py``), which builds the replica set.
"""

import asyncio
import os
import statistics
import time

import numpy as np
import pytest

from repro.bench.harness import gc_isolated, time_call, zipf_weighted_batches
from repro.core.frequent_items import FrequentItemsSketch
from repro.service.pipeline import IngestPipeline, PipelineConfig
from repro.service.snapshot import SnapshotManager

GATE_UPDATES_PER_SEC = 1_000_000
REPEATS = 5  # timed runs behind the throughput gate's median

SUBMIT_SIZE = 8_192  # updates per producer submission
PIPE_CONFIG = PipelineConfig(
    max_batch_items=16_384, flush_interval=0.005, max_pending_items=262_144
)


def _workload(config):
    """``(slices, per_producer)``: one producer's submission stream.

    The service amortizes per-batch overhead, so each producer gets at
    least 150k updates to measure steady state even at the quick scale.
    """
    per_producer = max(config.num_updates, 150_000)
    base = zipf_weighted_batches(
        per_producer, config.unique_sources, 1.05, config.seed
    )
    items = np.concatenate([b[0] for b in base])[:per_producer]
    weights = np.concatenate([b[1] for b in base])[:per_producer]
    slices = [
        (items[lo : lo + SUBMIT_SIZE], weights[lo : lo + SUBMIT_SIZE])
        for lo in range(0, per_producer, SUBMIT_SIZE)
    ]
    return slices, per_producer


async def _run(sketch, slices, num_producers, snapshots=None):
    pipeline = IngestPipeline(sketch, config=PIPE_CONFIG, snapshots=snapshots)
    async with pipeline:
        async def producer():
            for items, weights in slices:
                await pipeline.submit(items, weights)

        await asyncio.gather(*(producer() for _ in range(num_producers)))
        await pipeline.drain()
    return pipeline


@pytest.mark.parametrize("num_producers", (1, 4))
def test_pipeline_throughput(benchmark, config, num_producers):
    slices, per_producer = _workload(config)
    k = config.k_values[-1]
    benchmark.group = f"ingest service, k={k}"
    benchmark.extra_info["producers"] = num_producers
    total = num_producers * per_producer
    benchmark.extra_info["updates"] = total

    # Warm-up outside the timed region.
    warm = FrequentItemsSketch(k, backend="probing", seed=0)
    asyncio.run(_run(warm, slices[:2], 1))

    def run():
        sketch = FrequentItemsSketch(k, backend="probing", seed=config.seed)
        asyncio.run(_run(sketch, slices, num_producers))
        assert sketch.stream_weight > 0
        return sketch

    benchmark.pedantic(run, rounds=REPEATS, iterations=1)
    rates = [total / seconds for seconds in benchmark.stats.stats.data]
    updates_per_sec = statistics.median(rates)
    benchmark.extra_info["updates_per_sec"] = updates_per_sec
    benchmark.extra_info["updates_per_sec_samples"] = rates
    if num_producers == 4:
        assert updates_per_sec >= GATE_UPDATES_PER_SEC, (
            f"4-producer service throughput {updates_per_sec:,.0f}/s "
            f"(median of {REPEATS}: {[round(r) for r in rates]}) "
            f"below the {GATE_UPDATES_PER_SEC:,}/s gate"
        )


def test_service_feed_bit_identical(config):
    slices, _per_producer = _workload(config)
    k = config.k_values[-1]
    sketch = FrequentItemsSketch(k, backend="probing", seed=config.seed)
    asyncio.run(_run(sketch, slices, 1))
    reference = FrequentItemsSketch(k, backend="probing", seed=config.seed)
    for items, weights in slices:
        reference.update_batch(items, weights)
    assert sketch.to_bytes() == reference.to_bytes()


def test_durability_overhead_bounded(benchmark, config, tmp_path):
    slices, per_producer = _workload(config)
    k = config.k_values[-1]
    benchmark.group = f"ingest service, k={k}"

    warm = FrequentItemsSketch(k, backend="probing", seed=0)
    asyncio.run(_run(warm, slices[:2], 1))

    def timed_run(snapshots=None) -> float:
        sketch = FrequentItemsSketch(k, backend="probing", seed=config.seed)
        seconds, _ = time_call(
            lambda: asyncio.run(_run(sketch, slices, 4, snapshots=snapshots))
        )
        return seconds

    plain_seconds = timed_run()
    wal_seconds = benchmark.pedantic(
        lambda: timed_run(SnapshotManager(str(tmp_path / "wal"))),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["overhead"] = wal_seconds / plain_seconds
    assert wal_seconds <= 2.0 * plain_seconds, (
        f"durability costs {wal_seconds / plain_seconds:.2f}x "
        "(gate: <= 2x the in-memory pipeline)"
    )


def test_replicated_throughput_gate(benchmark, config):
    """One follower attached over TCP: >= 0.5x the 4-producer gate,
    byte-identical replica at the end."""
    from repro.service.replication import FollowerService, ReplicationManager
    from repro.service.server import StreamServer

    slices, per_producer = _workload(config)
    k = config.k_values[-1]
    benchmark.group = f"ingest service, k={k}"
    total = 4 * per_producer
    benchmark.extra_info["updates"] = total

    warm = FrequentItemsSketch(k, backend="probing", seed=0)
    asyncio.run(_run(warm, slices[:2], 1))

    async def replicated_run():
        leader = IngestPipeline(
            FrequentItemsSketch(k, backend="probing", seed=config.seed),
            config=PIPE_CONFIG,
            replication=ReplicationManager(),
        )
        async with leader:
            server = StreamServer(leader)
            async with server:
                follower_pipe = IngestPipeline(
                    FrequentItemsSketch(
                        k, backend="probing", seed=config.seed
                    ),
                    config=PIPE_CONFIG,
                    replica=True,
                )
                async with follower_pipe:
                    follower = FollowerService(
                        follower_pipe, "127.0.0.1", server.port
                    )
                    await follower.start()

                    async def producer():
                        for items, weights in slices:
                            await leader.submit(items, weights)

                    await asyncio.gather(*(producer() for _ in range(4)))
                    await leader.drain()
                    await follower.wait_for_seq(
                        leader.applied_seq, timeout=120.0
                    )
                    blobs = (
                        leader.sketch.to_bytes(),
                        follower_pipe.sketch.to_bytes(),
                    )
                    await follower.stop()
        return blobs

    leader_blob, follower_blob = benchmark.pedantic(
        lambda: asyncio.run(replicated_run()), rounds=1, iterations=1
    )
    assert follower_blob == leader_blob, (
        "the caught-up follower must be byte-identical to the leader"
    )
    seconds = benchmark.stats.stats.mean
    updates_per_sec = total / seconds
    benchmark.extra_info["updates_per_sec"] = updates_per_sec
    assert updates_per_sec >= 0.5 * GATE_UPDATES_PER_SEC, (
        f"replicated throughput {updates_per_sec:,.0f}/s below half the "
        f"{GATE_UPDATES_PER_SEC:,}/s single-node gate"
    )


def test_multi_follower_fanout_gate(benchmark, config):
    """Leader + 2 followers: >= 0.4x the single-node gate, both replicas
    byte-identical when caught up."""
    from repro.service.replication import FollowerService, ReplicationManager
    from repro.service.server import StreamServer

    slices, per_producer = _workload(config)
    k = config.k_values[-1]
    benchmark.group = f"ingest service, k={k}"
    total = 4 * per_producer
    benchmark.extra_info["updates"] = total
    benchmark.extra_info["followers"] = 2

    warm = FrequentItemsSketch(k, backend="probing", seed=0)
    asyncio.run(_run(warm, slices[:2], 1))

    async def fanout_run():
        from contextlib import AsyncExitStack

        leader = IngestPipeline(
            FrequentItemsSketch(k, backend="probing", seed=config.seed),
            config=PIPE_CONFIG,
            replication=ReplicationManager(),
        )
        async with AsyncExitStack() as stack:
            await stack.enter_async_context(leader)
            server = await stack.enter_async_context(StreamServer(leader))
            followers = []
            for _ in range(2):
                pipe = IngestPipeline(
                    FrequentItemsSketch(
                        k, backend="probing", seed=config.seed
                    ),
                    config=PIPE_CONFIG,
                    replica=True,
                )
                await stack.enter_async_context(pipe)
                follower = FollowerService(pipe, "127.0.0.1", server.port)
                await follower.start()
                followers.append((pipe, follower))

            async def producer():
                for items, weights in slices:
                    await leader.submit(items, weights)

            await asyncio.gather(*(producer() for _ in range(4)))
            await leader.drain()
            for _pipe, follower in followers:
                await follower.wait_for_seq(leader.applied_seq, timeout=120.0)
            blobs = (
                leader.sketch.to_bytes(),
                [pipe.sketch.to_bytes() for pipe, _f in followers],
            )
            for _pipe, follower in followers:
                await follower.stop()
        return blobs

    leader_blob, follower_blobs = benchmark.pedantic(
        lambda: asyncio.run(fanout_run()), rounds=1, iterations=1
    )
    assert all(blob == leader_blob for blob in follower_blobs), (
        "every caught-up follower must be byte-identical to the leader"
    )
    seconds = benchmark.stats.stats.mean
    updates_per_sec = total / seconds
    benchmark.extra_info["updates_per_sec"] = updates_per_sec
    assert updates_per_sec >= 0.4 * GATE_UPDATES_PER_SEC, (
        f"2-follower fan-out throughput {updates_per_sec:,.0f}/s below "
        f"0.4x the {GATE_UPDATES_PER_SEC:,}/s single-node gate"
    )


#: 4 workers must beat 1 worker by this factor — on machines where the
#: workers actually get their own cores.
CLUSTER_SCALING_GATE = 2.5


def _spread_tenants(count):
    """``count`` tenant names that a ``count``-worker pool places on
    ``count`` different workers (the pool routes a tenant to worker
    ``shard_of(name, num_workers)``)."""
    from repro.sharded.partition import shard_of

    by_worker = {}
    index = 0
    while len(by_worker) < count:
        by_worker.setdefault(shard_of(f"bench-t{index}", count), f"bench-t{index}")
        index += 1
    return sorted(by_worker.values())


async def _run_cluster(config, slices, per_producer, num_workers):
    from repro.service.cluster import ClusterConfig, WorkerPool

    k = config.k_values[-1]
    cluster_config = ClusterConfig(
        num_workers=num_workers, default_k=k, default_seed=config.seed
    )
    # The same four tenants at every pool size, one per worker at four.
    tenants = _spread_tenants(4)
    async with WorkerPool(cluster_config) as pool:
        for name in tenants:
            await pool.create_tenant(name)

        async def producer(name):
            for items, weights in slices:
                await pool.submit(name, items, weights)

        with gc_isolated():
            start = time.perf_counter()
            await asyncio.gather(*(producer(name) for name in tenants))
            await pool.drain()
            seconds = time.perf_counter() - start
    return seconds, len(tenants) * per_producer


def test_cluster_scaling_gate(benchmark, config):
    """4-worker cluster >= 2.5x its 1-worker figure (>= 4 cores only;
    recorded but not enforced on smaller runners)."""
    slices, per_producer = _workload(config)
    k = config.k_values[-1]
    benchmark.group = f"ingest service, k={k}"
    cores = os.cpu_count() or 1
    benchmark.extra_info["cpu_count"] = cores

    # Warm-up: one tiny pool exercise (fork + shm setup out of timing).
    asyncio.run(_run_cluster(config, slices[:1], per_producer, 1))

    one_seconds, total = asyncio.run(
        _run_cluster(config, slices, per_producer, 1)
    )

    def run():
        return asyncio.run(_run_cluster(config, slices, per_producer, 4))

    four_seconds, _total = benchmark.pedantic(run, rounds=1, iterations=1)
    scaling = one_seconds / four_seconds
    benchmark.extra_info["updates"] = total
    benchmark.extra_info["workers_1_updates_per_sec"] = total / one_seconds
    benchmark.extra_info["workers_4_updates_per_sec"] = total / four_seconds
    benchmark.extra_info["scaling_vs_1w"] = scaling
    benchmark.extra_info["gate_enforced"] = cores >= 4
    if cores >= 4:
        assert scaling >= CLUSTER_SCALING_GATE, (
            f"4-worker cluster scaled only {scaling:.2f}x over 1 worker "
            f"on a {cores}-core machine (gate: {CLUSTER_SCALING_GATE}x)"
        )
