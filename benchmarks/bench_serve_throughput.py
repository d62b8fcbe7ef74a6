"""Streaming ingest service: sustained throughput under concurrency.

pytest-benchmark timings for the asyncio :class:`~repro.service.
pipeline.IngestPipeline` under 1 and 4 concurrent producers, a report
benchmark regenerating the full service table
(``benchmarks/out/serve.txt``), and the subsystem's acceptance gates:

* **throughput** — the pipeline must sustain at least 1M applied
  updates/sec from 4 concurrent producers on the quick Zipf workload
  (the ISSUE-5 acceptance figure; measured ~2.5M/s on one CI core).
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
  ratio is recorded (``extra_info``/BENCH_serve.json) but not enforced,
  since four workers cannot run in parallel on one core.  The published
  BENCH_serve.json must carry the ``cluster`` metadata block either way.
* **failover MTTR** — a kill-leader failover on a three-node replica
  set must restore write availability (as the client observes it)
  within 5x the configured heartbeat miss window, with *exactly one*
  idempotent frame resubmit and no lost or duplicated updates (exact
  oracle).  The published BENCH_serve.json must carry the ``failover``
  block with the measured detection latency and MTTR.
"""

import asyncio
import json
import os
from pathlib import Path

import pytest

from repro.bench.figures import (
    serve_pipeline_config,
    serve_throughput_table,
    serve_workload,
)
from repro.core.frequent_items import FrequentItemsSketch
from repro.service.pipeline import IngestPipeline
from repro.service.snapshot import SnapshotManager

GATE_UPDATES_PER_SEC = 1_000_000

#: The gate measures exactly the configuration the published figure
#: (BENCH_serve.json) reports — both come from repro.bench.figures.
_workload = serve_workload
_pipe_config = serve_pipeline_config


async def _run(sketch, slices, num_producers, snapshots=None):
    pipeline = IngestPipeline(sketch, config=_pipe_config(), snapshots=snapshots)
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
        return sketch

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.stream_weight > 0
    seconds = benchmark.stats.stats.mean
    updates_per_sec = total / seconds
    benchmark.extra_info["updates_per_sec"] = updates_per_sec
    if num_producers == 4:
        # The ISSUE-5 acceptance gate.
        assert updates_per_sec >= GATE_UPDATES_PER_SEC, (
            f"4-producer service throughput {updates_per_sec:,.0f}/s "
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

    import time

    warm = FrequentItemsSketch(k, backend="probing", seed=0)
    asyncio.run(_run(warm, slices[:2], 1))

    plain = FrequentItemsSketch(k, backend="probing", seed=config.seed)
    start = time.perf_counter()
    asyncio.run(_run(plain, slices, 4))
    plain_seconds = time.perf_counter() - start

    def run():
        sketch = FrequentItemsSketch(k, backend="probing", seed=config.seed)
        manager = SnapshotManager(str(tmp_path / "wal"))
        asyncio.run(_run(sketch, slices, 4, snapshots=manager))
        return sketch

    benchmark.pedantic(run, rounds=1, iterations=1)
    wal_seconds = benchmark.stats.stats.mean
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
            config=_pipe_config(),
            replication=ReplicationManager(),
        )
        async with leader:
            server = StreamServer(leader)
            async with server:
                follower_pipe = IngestPipeline(
                    FrequentItemsSketch(
                        k, backend="probing", seed=config.seed
                    ),
                    config=_pipe_config(),
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
            config=_pipe_config(),
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
                    config=_pipe_config(),
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


async def _run_cluster(config, slices, per_producer, num_workers):
    from repro.service.cluster import ClusterConfig, WorkerPool

    import time

    k = config.k_values[-1]
    cluster_config = ClusterConfig(
        num_workers=num_workers, default_k=k, default_seed=config.seed
    )
    tenants = [f"bench-t{i}" for i in range(4)]
    async with WorkerPool(cluster_config) as pool:
        for name in tenants:
            await pool.create_tenant(name)

        async def producer(name):
            for items, weights in slices:
                await pool.submit(name, items, weights)

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


def test_failover_mttr_gate(benchmark, config):
    """Kill-leader failover: write availability back within 5x the
    heartbeat miss window, exactly one idempotent resubmit, exact
    counts preserved across the leadership change."""
    from repro.bench.figures import FAILOVER_MISS_WINDOW, failover_mttr_metrics

    k = config.k_values[-1]
    benchmark.group = f"ingest service, k={k}"
    metrics = benchmark.pedantic(
        lambda: failover_mttr_metrics(config.seed), rounds=1, iterations=1
    )
    for key, value in metrics.items():
        benchmark.extra_info[key] = value
    gate = 5.0 * FAILOVER_MISS_WINDOW
    assert metrics["mttr_seconds"] <= gate, (
        f"failover MTTR {metrics['mttr_seconds']:.2f}s exceeds the "
        f"{gate:.2f}s gate (5x the {FAILOVER_MISS_WINDOW}s miss window)"
    )
    assert metrics["detection_seconds"] <= metrics["mttr_seconds"]
    assert metrics["epoch"] >= 1, "promotion must advance the epoch"
    # Exactly-once across the failover: the one in-flight frame the
    # crash ate is resubmitted once, and nothing is lost or double
    # counted (the workload is an exact-count oracle).
    assert metrics["client_resubmits"] == 1
    assert metrics["exactly_once"] is True
    assert metrics["survivor_byte_identical"] is True


def test_bench_serve_json_failover_block():
    """The published BENCH_serve.json must carry the failover MTTR
    block, and its recorded MTTR must pass its own recorded gate."""
    path = Path(__file__).parent.parent / "BENCH_serve.json"
    document = json.loads(path.read_text())
    failover = document["failover"]
    for key in (
        "nodes",
        "heartbeat_miss_window",
        "detection_seconds",
        "election_seconds",
        "mttr_seconds",
        "client_resubmits",
        "exactly_once",
        "survivor_byte_identical",
        "gate_mttr_max_seconds",
    ):
        assert key in failover, f"failover block missing {key!r}"
    assert failover["mttr_seconds"] <= failover["gate_mttr_max_seconds"]
    assert failover["client_resubmits"] == 1
    assert failover["exactly_once"] is True
    assert failover["survivor_byte_identical"] is True
    assert document["gates"]["failover_mttr_seconds"] == pytest.approx(
        failover["mttr_seconds"]
    )


def test_bench_serve_json_cluster_block():
    """The published BENCH_serve.json must carry the cluster metadata
    block and the cluster + fan-out rows the ISSUE-8 gates name."""
    path = Path(__file__).parent.parent / "BENCH_serve.json"
    document = json.loads(path.read_text())
    modes = {row["mode"] for row in document["rows"]}
    assert {"cluster-1w", "cluster-4w", "pipeline-4p-repl2"} <= modes
    cluster = document["cluster"]
    for key in (
        "routing",
        "vnodes",
        "frame_transport",
        "tenants",
        "cpu_count",
        "workers_1_updates_per_sec",
        "workers_4_updates_per_sec",
        "per_worker_updates_per_sec",
        "scaling_vs_1w",
        "gate_enforced",
    ):
        assert key in cluster, f"cluster block missing {key!r}"
    assert cluster["routing"] == "ketama"
    assert cluster["scaling_vs_1w"] > 0
    assert document["gates"]["cluster_scaling_vs_1w"] == pytest.approx(
        cluster["scaling_vs_1w"]
    )
    assert document["gates"]["pipeline_4p_repl2_updates_per_sec"] > 0
    fanout = document["replication_fanout"]
    assert fanout["followers"] == 2
    assert fanout["byte_identical"] is True


def test_report_table(benchmark, config, write_report):
    table = benchmark.pedantic(
        lambda: serve_throughput_table(config), rounds=1, iterations=1
    )
    write_report("serve", table)
    gate = table.cell({"mode": "pipeline-4p"}, "updates_per_sec")
    assert gate >= GATE_UPDATES_PER_SEC
