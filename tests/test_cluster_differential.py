"""Differential gate: worker count and ingest path must not change a bit.

The same tenant-keyed op sequence goes through a 1-worker and a 4-worker
cluster; per-tenant RSNP blobs (sketch wire payload **and** xoroshiro
PRNG state words) must be byte-identical, and the merged global
heavy-hitter rows must match exactly — under both the native C ingest
path and the NumPy fallback.  A 4-worker cluster whose workers run the
compiled kernels must also match one whose workers run the fallback.

Determinism holds by construction (the acceptor chunks at a fixed slot
capacity *before* routing, every frame is one micro-batch, sharded
tenants split with the seeded library partition), and this suite is the
construction's audit.
"""

import asyncio

import pytest

from helpers import sha256_hex, zipf_batch
from repro import native
from repro.service.cluster import ClusterConfig, WorkerPool
from repro.service.snapshot import decode_snapshot

pytestmark = [pytest.mark.cluster, pytest.mark.service]

SLOT_CAPACITY = 2048

#: Three tenants of different shapes, one interleaved op sequence.
TENANTS = {
    "flat-a": dict(k=128, seed=11, shards=0),
    "flat-b": dict(k=64, seed=5, shards=0),
    "shardy": dict(k=96, seed=23, shards=3),
}


def op_sequence():
    """A fixed tenant-keyed op sequence (round-robin over the tenants,
    odd batch sizes so frames straddle chunk boundaries)."""
    ops = []
    for round_index in range(4):
        for tenant_index, tenant in enumerate(TENANTS):
            items, weights = zipf_batch(
                n=5_000 + 123 * tenant_index + 17 * round_index,
                universe=400,
                seed=100 * round_index + tenant_index,
            )
            ops.append((tenant, items, weights))
    return ops


async def run_cluster(num_workers, use_native):
    config = ClusterConfig(num_workers=num_workers, slot_capacity=SLOT_CAPACITY)
    # Workers take the acceptor's ingest path when the pool starts.
    with native.use_native(use_native):
        async with WorkerPool(config) as pool:
            for tenant, params in TENANTS.items():
                await pool.create_tenant(tenant, **params)
            for tenant, items, weights in op_sequence():
                await pool.submit(tenant, items, weights)
            blobs = {}
            for tenant in TENANTS:
                blobs[tenant] = await pool.tenant_blobs(tenant)
            hh = {
                tenant: await pool.heavy_hitters(tenant, 0.01)
                for tenant in TENANTS
            }
            global_hh = await pool.global_heavy_hitters(0.005)
            workers = {
                pool.owner_of(substream)
                for tenant in TENANTS
                for substream in blobs[tenant]
            }
    return blobs, hh, global_hh, workers


def native_params():
    params = [False]
    if native.available():
        params.append(True)
    return params


@pytest.mark.parametrize("use_native", native_params())
def test_worker_count_is_invisible(use_native):
    one = asyncio.run(run_cluster(1, use_native))
    four = asyncio.run(run_cluster(4, use_native))

    one_blobs, one_hh, one_global, _workers = one
    four_blobs, four_hh, four_global, four_workers = four
    # The comparison means something only if the substreams spread.
    assert len(four_workers) > 1, four_workers

    for tenant in TENANTS:
        assert one_blobs[tenant].keys() == four_blobs[tenant].keys()
        for substream, blob in one_blobs[tenant].items():
            # Byte-identical RSNP blob: wire payload, applied seq, and
            # the xoroshiro PRNG state words all travel inside it.
            assert sha256_hex(blob) == sha256_hex(
                four_blobs[tenant][substream]
            ), f"{substream} diverged between 1w and 4w"
        # The PRNG words specifically, decoded and compared on their own
        # (a blob mismatch would already fail above; this names the
        # culprit when it is the decrement randomness).
        for substream in one_blobs[tenant]:
            one_sketch, one_seq = decode_snapshot(one_blobs[tenant][substream])
            four_sketch, four_seq = decode_snapshot(
                four_blobs[tenant][substream]
            )
            assert one_seq == four_seq
            assert (
                one_sketch.kernel.rng.getstate()
                == four_sketch.kernel.rng.getstate()
            ), f"{substream} PRNG state diverged"
        assert one_hh[tenant] == four_hh[tenant]

    assert one_global == four_global
    _seq, rows = one_global
    assert rows, "the global view should surface heavy hitters"


@pytest.mark.skipif(
    not native.available(), reason="compiled kernels not built"
)
def test_native_and_fallback_agree():
    """Four workers on the compiled kernels and four on the NumPy
    fallback end with the same blobs and the same global heavy hitters."""
    compiled = asyncio.run(run_cluster(4, True))
    fallback = asyncio.run(run_cluster(4, False))
    assert compiled[0] == fallback[0]
    assert compiled[2] == fallback[2]
