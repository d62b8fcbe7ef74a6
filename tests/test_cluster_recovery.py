"""ISSUE-8 fault gate: a SIGKILLed worker must not cost a single bit.

The scenario mirrors ``run_fault_scenario`` from
``tests/replication_harness.py``, transplanted to the process pool: feed
part of a deterministic frame sequence, SIGKILL one worker mid-batch
(frames shipped, not yet drained), restart the pool over the same data
directory, and replay from each substream's *recovered applied-seq
watermark* — exactly what a reconnecting client would do.  The final
per-tenant blobs must be byte-identical to an uninterrupted run.

The watermark replay is the load-bearing move: per-tenant WAL/snapshot
recovery is at-most-once (a frame in flight at the kill is lost
entirely, never half-applied), so the client re-sends everything past
``applied_seq``.  Because one submitted frame is exactly one applied
sequence, "everything past" is just a list slice.
"""

import asyncio

import numpy as np
import pytest

from helpers import zipf_batch
from repro.errors import ClusterError
from repro.service.cluster import ClusterConfig, WorkerPool

pytestmark = [pytest.mark.cluster, pytest.mark.service, pytest.mark.replication]

SLOT_CAPACITY = 1024

TENANTS = {"alpha": dict(k=96, seed=7), "beta": dict(k=64, seed=19)}


def frame_feed():
    """Per-tenant frame lists: every entry is exactly one frame (its
    size is under the slot capacity), so entry index == applied seq."""
    feed = {}
    for index, tenant in enumerate(TENANTS):
        frames = []
        for frame_index in range(12):
            items, weights = zipf_batch(
                n=700 + 31 * frame_index + 7 * index,
                universe=150,
                seed=50 * index + frame_index,
            )
            frames.append((items, weights))
        feed[tenant] = frames
    return feed


def pool_config(tmp_path):
    return ClusterConfig(
        num_workers=2,
        data_dir=str(tmp_path),
        slot_capacity=SLOT_CAPACITY,
        snapshot_every_batches=4,
    )


async def create_tenants(pool):
    for tenant, params in TENANTS.items():
        await pool.create_tenant(tenant, **params)


async def run_uninterrupted(tmp_path):
    feed = frame_feed()
    async with WorkerPool(pool_config(tmp_path)) as pool:
        await create_tenants(pool)
        for tenant, frames in feed.items():
            for items, weights in frames:
                await pool.submit(tenant, items, weights)
        await pool.drain()
        blobs = {}
        for tenant in TENANTS:
            blobs.update(await pool.tenant_blobs(tenant))
    return blobs


@pytest.mark.parametrize("kill_at", [3, 7])
def test_kill_worker_mid_batch_recovers_bit_identical(tmp_path, kill_at):
    feed = frame_feed()
    reference = asyncio.run(run_uninterrupted(tmp_path / "reference"))

    async def faulted(data_dir):
        config = pool_config(data_dir)
        pool = WorkerPool(config)
        await pool.start()
        try:
            await create_tenants(pool)
            victim = pool.owner_of("alpha")
            # "beta" must live on the worker that survives the kill.
            assert pool.owner_of("beta") != victim
            # Phase 1: the settled prefix.
            for tenant, frames in feed.items():
                for items, weights in frames[:kill_at]:
                    await pool.submit(tenant, items, weights)
            await pool.drain()
            # Phase 2: ship more frames and SIGKILL the owner of
            # "alpha" with them still in flight — mid-batch, no drain.
            with pytest.raises((ClusterError, asyncio.TimeoutError)):
                async with asyncio.timeout(30):
                    for tenant, frames in feed.items():
                        for items, weights in frames[kill_at : kill_at + 3]:
                            await pool.submit(tenant, items, weights)
                            if tenant == "alpha":
                                pool.kill_worker(victim)
                    # Submits to the dead worker's tenants raise; if
                    # every submit happened to land before the kill,
                    # force the error surface through a query.
                    await pool.drain()
                    await pool.estimate("alpha", 1)
                    raise AssertionError("dead worker went unnoticed")
            await pool.estimate("beta", 1)  # the survivor still answers
        finally:
            await pool.stop(final_snapshot=False)

        # Phase 3: restart over the same directory, read each tenant's
        # recovered watermark, and client-replay everything past it.
        async with WorkerPool(config) as pool:
            assert sorted(spec.name for spec in pool.list_tenants()) == (
                sorted(TENANTS)
            )
            seqs = await pool.drain()
            blobs = {}
            for tenant, frames in feed.items():
                applied = seqs[tenant]
                # At-most-once: nothing past what we shipped, nothing
                # below the settled prefix.
                assert kill_at <= applied <= kill_at + 3, (tenant, applied)
                for items, weights in frames[applied:]:
                    await pool.submit(tenant, items, weights)
                await pool.drain()
                blobs.update(await pool.tenant_blobs(tenant))
            return blobs

    recovered = asyncio.run(faulted(tmp_path / "faulted"))
    assert recovered.keys() == reference.keys()
    for substream in reference:
        assert recovered[substream] == reference[substream], (
            f"{substream} not byte-identical after crash recovery"
        )


def test_restart_without_fault_is_also_identical(tmp_path):
    """Control arm: a clean stop/restart replays to the same bytes
    (separates crash-recovery bugs from plain restart bugs)."""
    feed = frame_feed()
    reference = asyncio.run(run_uninterrupted(tmp_path / "reference"))

    async def restarted(data_dir):
        config = pool_config(data_dir)
        half = 6
        async with WorkerPool(config) as pool:
            await create_tenants(pool)
            for tenant, frames in feed.items():
                for items, weights in frames[:half]:
                    await pool.submit(tenant, items, weights)
            await pool.drain()
        async with WorkerPool(config) as pool:
            seqs = await pool.drain()
            assert all(seq == half for seq in seqs.values()), seqs
            blobs = {}
            for tenant, frames in feed.items():
                for items, weights in frames[half:]:
                    await pool.submit(tenant, items, weights)
                await pool.drain()
                blobs.update(await pool.tenant_blobs(tenant))
            return blobs

    assert asyncio.run(restarted(tmp_path / "restarted")) == reference


def test_unapplied_tail_is_bounded(tmp_path):
    """The kill can lose only frames that were never acknowledged as
    applied: after recovery the watermark never exceeds what was
    shipped, and re-shipping from it is always safe."""

    async def scenario():
        config = pool_config(tmp_path)
        shipped = 8
        items = np.arange(600, dtype=np.uint64) % 41
        pool = WorkerPool(config)
        await pool.start()
        try:
            await pool.create_tenant("only", k=64, seed=2)
            for _ in range(shipped):
                await pool.submit("only", items)
            pool.kill_worker(pool.owner_of("only"))
        finally:
            await pool.stop(final_snapshot=False)
        async with WorkerPool(config) as pool:
            seqs = await pool.drain()
            assert 0 <= seqs["only"] <= shipped
        return True

    assert asyncio.run(scenario())
