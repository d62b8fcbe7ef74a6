"""Functional coverage of the multi-process tenant cluster.

Everything here forks real worker processes (and maps real shared
memory), so the whole module carries the ``cluster`` marker — excluded
from tier-1, run by the ``cluster-tests`` CI job under both
``REPRO_NATIVE`` settings.
"""

import asyncio
import json
import multiprocessing
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from helpers import (
    serve_in_session,
    session_processes,
    wait_session_gone,
    zipf_batch,
)
from repro.errors import ClusterError, InvalidParameterError
from repro.service.client import ClusterClient, ServiceError
from repro.service.cluster import (
    ClusterConfig,
    ClusterServer,
    TenantSpec,
    WorkerPool,
)
from repro.sharded.partition import shard_ids

pytestmark = [pytest.mark.cluster, pytest.mark.service]


def chunked_oracle(k, seed, batches, chunk):
    """The in-process reference: update_batch at the exact frame
    boundaries the acceptor ships (chunks of ``chunk`` updates)."""
    from repro.core.frequent_items import FrequentItemsSketch

    sketch = FrequentItemsSketch(k, backend="probing", seed=seed)
    for items, weights in batches:
        for lo in range(0, len(items), chunk):
            sketch.update_batch(items[lo : lo + chunk], weights[lo : lo + chunk])
    return sketch


# -- tenant registry ---------------------------------------------------------


def test_tenant_spec_validation():
    with pytest.raises(InvalidParameterError):
        TenantSpec(name="")
    with pytest.raises(InvalidParameterError):
        TenantSpec(name="has space")
    with pytest.raises(InvalidParameterError):
        TenantSpec(name="shard#0")  # '#' is reserved for substreams
    with pytest.raises(InvalidParameterError):
        TenantSpec(name="t", k=1)
    with pytest.raises(InvalidParameterError):
        TenantSpec(name="t", shards=-1)
    assert TenantSpec(name="ok-name_1.x").substreams() == ["ok-name_1.x"]
    assert TenantSpec(name="s", shards=3).substreams() == ["s#0", "s#1", "s#2"]


def test_cluster_config_validation():
    with pytest.raises(InvalidParameterError):
        ClusterConfig(num_workers=0)
    with pytest.raises(InvalidParameterError):
        ClusterConfig(ring_slots=0)


def test_create_list_drop():
    async def scenario():
        async with WorkerPool(ClusterConfig(num_workers=2)) as pool:
            await pool.create_tenant("a", k=64)
            await pool.create_tenant("b", k=128, shards=2)
            names = [spec.name for spec in pool.list_tenants()]
            assert names == ["a", "b"]
            # Identical spec: idempotent no-op.
            await pool.create_tenant("a", k=64)
            # Conflicting spec: refused.
            with pytest.raises(InvalidParameterError):
                await pool.create_tenant("a", k=256)
            await pool.drop_tenant("a")
            assert [spec.name for spec in pool.list_tenants()] == ["b"]
            with pytest.raises(ClusterError):
                await pool.estimate("a", 1)

    asyncio.run(scenario())


def test_registry_persists_across_restart(tmp_path):
    config = ClusterConfig(num_workers=2, data_dir=str(tmp_path))

    async def first():
        async with WorkerPool(config) as pool:
            await pool.create_tenant("kept", k=64, seed=9)
            await pool.submit("kept", np.arange(100, dtype=np.uint64) % 7)
            await pool.drain()
            return await pool.tenant_blobs("kept")

    async def second():
        async with WorkerPool(config) as pool:
            specs = pool.list_tenants()
            assert [spec.name for spec in specs] == ["kept"]
            assert specs[0].k == 64 and specs[0].seed == 9
            return await pool.tenant_blobs("kept")

    assert asyncio.run(first()) == asyncio.run(second())


# -- ingest and queries ------------------------------------------------------


def test_queries_match_oracle():
    items, weights = zipf_batch(n=30_000, universe=500, seed=13)
    config = ClusterConfig(num_workers=3, slot_capacity=4096)

    async def scenario():
        async with WorkerPool(config) as pool:
            await pool.create_tenant("t", k=256, seed=4)
            await pool.submit("t", items, weights)
            # No drain: queries must still see every shipped frame
            # (read-your-writes — the worker consumes its ring before
            # answering).
            oracle = chunked_oracle(256, 4, [(items, weights)], 4096)
            probe = items[:50].tolist() + [2**63]
            for item in probe:
                assert await pool.estimate("t", item) == oracle.estimate(item)
                lower, est, upper = await pool.bounds("t", item)
                assert (lower, est, upper) == (
                    oracle.lower_bound(item),
                    oracle.estimate(item),
                    oracle.upper_bound(item),
                )
            _seq, rows = await pool.heavy_hitters("t", 0.01)
            assert rows == oracle.heavy_hitters(0.01)

    asyncio.run(scenario())


def test_sharded_tenant_partitions_like_library():
    """A sharded tenant's substreams hold exactly the library partition:
    each substream blob equals a flat sketch fed that shard's slice."""
    items, weights = zipf_batch(n=20_000, universe=300, seed=21)
    shards, seed = 3, 17

    async def scenario():
        from repro.service.snapshot import decode_snapshot
        from repro.sharded.sketch import _shard_seed

        config = ClusterConfig(num_workers=2, slot_capacity=2048)
        async with WorkerPool(config) as pool:
            await pool.create_tenant("s", k=128, seed=seed, shards=shards)
            await pool.submit("s", items, weights)
            await pool.drain()
            blobs = await pool.tenant_blobs("s")
            owners = shard_ids(items, shards, seed)
            for index in range(shards):
                mask = owners == index
                reference = chunked_oracle(
                    128, _shard_seed(seed, index),
                    [(items[mask], weights[mask])], 2048,
                )
                sketch, _seq = decode_snapshot(blobs[f"s#{index}"])
                assert sketch.to_bytes() == reference.to_bytes(), index

    asyncio.run(scenario())


def test_merged_view_cache_invalidates_on_write():
    async def scenario():
        async with WorkerPool(ClusterConfig(num_workers=2)) as pool:
            await pool.create_tenant("t", k=64)
            await pool.submit("t", np.array([5, 5], dtype=np.uint64))
            seq1, rows1 = await pool.global_heavy_hitters(0.1)
            # Quiet cluster: the answer is served from the cached merge.
            seq2, rows2 = await pool.global_heavy_hitters(0.1)
            assert (seq1, rows1) == (seq2, rows2)
            assert pool._view_cache  # the cache actually engaged
            await pool.submit("t", np.array([9], dtype=np.uint64))
            seq3, rows3 = await pool.global_heavy_hitters(0.1)
            assert seq3 == seq1 + 1
            assert {row.item for row in rows3} == {5, 9}

    asyncio.run(scenario())


def test_worker_death_raises_and_recovery_works(tmp_path):
    config = ClusterConfig(num_workers=2, data_dir=str(tmp_path))

    async def scenario():
        async with WorkerPool(config) as pool:
            await pool.create_tenant("t", k=64)
            await pool.submit("t", np.arange(64, dtype=np.uint64))
            await pool.drain()
            reference = await pool.tenant_blobs("t")
            pool.kill_worker(pool.owner_of("t"))
            await asyncio.sleep(0.05)
            with pytest.raises(ClusterError):
                await pool.estimate("t", 1)
            with pytest.raises(ClusterError):
                await pool.submit("t", np.array([1], dtype=np.uint64))
        # Restart over the same directory: bit-identical recovery.
        async with WorkerPool(config) as pool:
            assert await pool.tenant_blobs("t") == reference

    asyncio.run(scenario())


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the fault is planted in the acceptor before the fork",
)
def test_commit_fault_stops_worker_without_final_checkpoint(
    tmp_path, monkeypatch
):
    """A frame whose commit raises kills its worker: the acceptor reports
    the worker dead, the faulted tenant takes no final checkpoint (its
    sketch may hold part of the batch), and a tenant beside it on the
    same worker still checkpoints on the way out."""
    from repro.core.frequent_items import FrequentItemsSketch
    from repro.service.cluster import tenant_directory
    from repro.service.snapshot import SnapshotManager

    poison = 999_999
    original = FrequentItemsSketch.update_batch

    def faulty(self, items, weights=None):
        if (np.asarray(items) == poison).any():
            raise RuntimeError("planted commit fault")
        return original(self, items, weights)

    config = ClusterConfig(
        num_workers=1, data_dir=str(tmp_path), snapshot_every_batches=1000
    )

    async def scenario():
        monkeypatch.setattr(FrequentItemsSketch, "update_batch", faulty)
        pool = await WorkerPool(config).start()
        try:
            await pool.create_tenant("bad", k=64)
            await pool.create_tenant("good", k=64)
            await pool.submit("good", np.arange(10, dtype=np.uint64))
            await pool.submit("bad", np.arange(10, dtype=np.uint64))
            await pool.drain()
            await pool.submit("bad", np.array([poison], dtype=np.uint64))
            for _ in range(1000):
                if not pool.stats()["workers"][0]["alive"]:
                    break
                await asyncio.sleep(0.01)
            with pytest.raises(ClusterError, match="died"):
                await pool.estimate("good", 1)
        finally:
            await pool.stop()
            monkeypatch.undo()

    asyncio.run(scenario())
    latest = {
        name: SnapshotManager(
            tenant_directory(str(tmp_path), name)
        ).latest_snapshot_seq()
        for name in ("bad", "good")
    }
    # "bad" keeps only its baseline; "good" checkpointed its one frame.
    assert latest == {"bad": 0, "good": 1}


# -- worker wake-ups ---------------------------------------------------------

needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs a /proc filesystem"
)


def cpu_seconds(pid):
    """utime + stime of one process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as fh:
        # Fields after the parenthesised command; utime/stime are 14/15.
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@needs_proc
def test_idle_worker_spends_no_cpu():
    """An idle worker sleeps until a frame, a message or the 1 s orphan
    check wakes it: no polling of the frame ring."""

    async def scenario():
        config = ClusterConfig(num_workers=1)
        async with WorkerPool(config) as pool:
            await pool.create_tenant("t", k=64)
            await pool.submit("t", np.arange(100, dtype=np.uint64))
            await pool.drain()
            pid = pool.stats()["workers"][0]["pid"]
            await asyncio.sleep(0.1)
            before = cpu_seconds(pid)
            await asyncio.sleep(1.0)
            return cpu_seconds(pid) - before

    assert asyncio.run(scenario()) < 0.03


def test_doorbell_wakes_an_idle_worker():
    """A frame shipped to an idle worker is applied at once, with no RPC
    to nudge the worker: a lost wake-up would wait out the 1 s orphan
    timer.  The first frame follows 1.5 s of idleness; the rest follow
    gaps short and long enough to land anywhere in the worker's loop."""
    gaps = [0.0, 0.0005, 0.002, 0.01, 0.05]

    async def scenario():
        config = ClusterConfig(num_workers=1)
        async with WorkerPool(config) as pool:
            await pool.create_tenant("t", k=64)
            await pool.drain()
            await asyncio.sleep(1.5)
            for trial in range(20):
                await pool.submit("t", np.array([trial], dtype=np.uint64))
                shipped = pool.stats()["workers"][0]["produced_seq"]
                loop = asyncio.get_running_loop()
                start = loop.time()
                while pool.stats()["workers"][0]["applied_seq"] < shipped:
                    assert loop.time() - start < 0.2, f"frame {trial} not woken"
                    await asyncio.sleep(0.001)
                await asyncio.sleep(gaps[trial % len(gaps)])

    asyncio.run(scenario())


@needs_proc
def test_pool_cycles_leak_no_file_descriptors():
    """Pool stop (and the workers) close every pipe, bell and segment."""

    async def cycle():
        async with WorkerPool(ClusterConfig(num_workers=2)) as pool:
            await pool.create_tenant("t", k=64)
            await pool.submit("t", np.arange(100, dtype=np.uint64))
            await pool.drain()

    async def scenario():
        await cycle()  # first use starts the shared-memory resource tracker
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            await cycle()
        return before, len(os.listdir("/proc/self/fd"))

    before, after = asyncio.run(scenario())
    assert after == before


# -- the TCP front end -------------------------------------------------------


def test_cluster_server_protocol():
    async def scenario():
        async with WorkerPool(ClusterConfig(num_workers=2)) as pool:
            async with ClusterServer(pool) as server:
                client = await ClusterClient.connect("127.0.0.1", server.port)
                assert await client.ping()

                spec = await client.tcreate("clicks", k=128, shards=2)
                assert spec == {
                    "name": "clicks", "k": 128, "backend": "probing",
                    "seed": 0, "shards": 2,
                }
                items = np.array([1, 1, 1, 2, 3], dtype=np.uint64)
                assert await client.tsend_batch("clicks", items) == 5
                assert await client.testimate("clicks", 1) == 3.0
                lower, est, upper = await client.tbounds("clicks", 1)
                assert lower <= 3.0 <= upper and est == 3.0
                seq, rows = await client.thh("clicks", 0.1)
                assert seq >= 1 and rows[0] == (1, 3.0)

                # Legacy verbs hit the implicit default tenant.
                await client.update(42, 2.0)
                assert await client.estimate(42) == 2.0
                assert await client.send_batch(
                    np.array([42], dtype=np.uint64)
                ) == 1
                assert await client.heavy_hitters(0.1) == [(42, 3.0)]

                # Global views merge every tenant.
                gseq, gest = await client.qest(1)
                assert gest == 3.0 and gseq >= 2
                _seq, ghh = await client.qhh(0.05)
                assert dict(ghh) == {1: 3.0, 2: 1.0, 3: 1.0, 42: 3.0}

                assert await client.drain() >= 2
                names = [entry["name"] for entry in await client.tlist()]
                assert names == ["clicks", "default"]

                stats = await client.stats()
                assert stats["num_workers"] == 2
                assert len(stats["workers"]) == 2

                await client.tdrop("clicks")
                with pytest.raises(ServiceError):
                    await client.testimate("clicks", 1)
                with pytest.raises(ServiceError):
                    await client.tcreate("bad name!")
                await client.close()

    asyncio.run(scenario())


def test_thh_phi_travels_at_full_precision():
    """Regression: '%g' rounded THH's phi to 6 significant digits and
    dropped a true heavy hitter at the threshold's edge."""
    phi = 0.1234566  # '%g' sends 0.123457: threshold 1234570 > 1234568

    async def scenario():
        async with WorkerPool(ClusterConfig(num_workers=1)) as pool:
            async with ClusterServer(pool) as server:
                client = await ClusterClient.connect("127.0.0.1", server.port)
                await client.tcreate("edge", k=64)
                await client.tsend_batch(
                    "edge", [1, 2], [1234568.0, 10**7 - 1234568.0]
                )
                _seq, rows = await client.thh("edge", phi)
                await client.close()
                return [item for item, _ in rows]

    assert asyncio.run(scenario()) == [2, 1]


def test_cluster_server_tbin_error_keeps_stream_in_sync():
    """A TBIN for an unknown tenant consumes its payload and answers ERR
    without closing — the next request on the connection still parses."""
    from repro.service import protocol

    async def scenario():
        async with WorkerPool(ClusterConfig(num_workers=1)) as pool:
            async with ClusterServer(pool) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                items = np.array([1, 2], dtype=np.uint64)
                weights = np.ones(2)
                writer.write(protocol.encode_tbin_frame("ghost", items, weights))
                await writer.drain()
                line = await reader.readline()
                assert line.startswith(b"ERR unknown tenant")
                writer.write(b"PING\n")
                await writer.drain()
                assert await reader.readline() == b"PONG\n"
                writer.close()

    asyncio.run(scenario())


# -- the command line --------------------------------------------------------


def test_follow_plus_workers_refused():
    from repro.errors import UsageError
    from repro.service.__main__ import build_parser, check_args

    args = build_parser().parse_args(
        ["--follow", "leader:9471", "--workers", "4"]
    )
    with pytest.raises(UsageError, match="mutually exclusive"):
        check_args(args)
    # And through the real entry point: exit status 2, message on stderr.
    result = subprocess.run(
        [sys.executable, "-m", "repro.service",
         "--follow", "leader:9471", "--workers", "4"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2
    assert "mutually exclusive" in result.stderr


def test_workers_flag_serves_cluster():
    """``python -m repro.service --workers 2`` comes up, speaks the
    tenant protocol, and shuts down cleanly."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service",
         "--workers", "2", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        banner = process.stdout.readline()
        assert "tenant cluster" in banner and "workers=2" in banner
        port = int(banner.split(":")[1].split()[0])

        async def poke():
            client = await ClusterClient.connect("127.0.0.1", port)
            await client.tcreate("t", k=64)
            await client.tupdate("t", 7, 2.0)
            assert await client.testimate("t", 7) == 2.0
            assert json.loads(
                json.dumps(await client.stats())
            )["num_workers"] == 2
            await client.close()

        asyncio.run(poke())
        process.terminate()  # SIGTERM takes the clean shutdown
        assert process.wait(timeout=30) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
        process.stdout.close()


@pytest.mark.parametrize(
    "kill", [signal.SIGTERM, signal.SIGKILL], ids=["sigterm", "sigkill"]
)
def test_no_process_outlives_the_acceptor(kill):
    """SIGTERM takes the clean shutdown (exit 0, workers stopped); after
    a SIGKILL of the acceptor the orphaned workers notice and stop on
    their own.  Either way no process of the server's session — forked
    workers, resource tracker — survives 10 s."""
    process, banner = serve_in_session("--workers", "2")
    try:
        assert "workers=2" in banner, banner
        assert len(session_processes(process.pid)) >= 3  # acceptor + workers
        process.send_signal(kill)
        status = process.wait(timeout=30)
    finally:
        survivors = wait_session_gone(process.pid, timeout=10.0)
        process.stdout.close()
    assert survivors == []
    assert status == (0 if kill == signal.SIGTERM else -signal.SIGKILL)
