"""Snapshot/WAL durability: kill anywhere, recover bit-identically.

The contract under test: a pipeline killed at an arbitrary point and
recovered from its snapshot directory reaches a state — serialized
bytes *and* kernel PRNG state — identical to a run that was never
interrupted, and continuing the workload after recovery lands on the
identical final state.  Also covered: torn WAL tails, the logged-but-
never-applied crash window, snapshot corruption fallback, and pruning.
"""

import asyncio
import os
import random
import struct

import numpy as np
import pytest

from repro import (
    FrequentItemsSketch,
    IngestPipeline,
    PipelineConfig,
    SerializationError,
    ServiceClosedError,
    ShardedFrequentItemsSketch,
    SnapshotManager,
)
from repro.service.snapshot import (
    decode_snapshot,
    encode_snapshot,
    encode_wal_record,
)
from repro.streams.zipf import ZipfianStream

pytestmark = pytest.mark.service


def run(coroutine):
    return asyncio.run(coroutine)


def make_feed(num_batches=24, batch_size=400, seed=3):
    stream = ZipfianStream(
        num_batches * batch_size, universe=700, alpha=1.1, seed=seed,
        weight_low=1, weight_high=50,
    )
    return list(stream.batches(batch_size=batch_size))


def rng_states(sketch):
    if isinstance(sketch, ShardedFrequentItemsSketch):
        return [shard.kernel.rng.getstate() for shard in sketch.shards]
    return [sketch.kernel.rng.getstate()]


def reference_state(make_sketch, feed):
    sketch = make_sketch()
    for items, weights in feed:
        sketch.update_batch(items, weights)
    return sketch.to_bytes(), rng_states(sketch)


#: One submission per micro-batch (wait_applied + an unreachable size
#: trigger) keeps batch boundaries deterministic across runs, so the
#: uninterrupted reference can be computed by a plain update_batch loop.
_CFG = PipelineConfig(
    max_batch_items=1 << 30, flush_interval=30.0, snapshot_every_batches=5
)


async def feed_pipeline(pipeline, feed):
    for items, weights in feed:
        await pipeline.submit(items, weights, wait_applied=True)


async def killed_then_recovered(make_sketch, feed, kill_at, directory):
    """Apply ``kill_at`` batches, die without a final checkpoint, recover,
    finish the workload.  Returns (recovered-at-kill, final) sketches."""
    pipeline = IngestPipeline(
        make_sketch(), config=_CFG, snapshots=SnapshotManager(directory)
    )
    await pipeline.start()
    await feed_pipeline(pipeline, feed[:kill_at])
    # Crash-equivalent shutdown: applied batches sit in the WAL, no
    # final snapshot is taken, file handles drop.
    await pipeline.stop(final_snapshot=False)

    recovered = IngestPipeline.recover(
        SnapshotManager(directory), config=_CFG
    )
    assert recovered.applied_seq == kill_at
    at_kill = (recovered.sketch.to_bytes(), rng_states(recovered.sketch))
    await recovered.start()
    await feed_pipeline(recovered, feed[kill_at:])
    await recovered.stop()
    return at_kill, (recovered.sketch.to_bytes(), rng_states(recovered.sketch))


def _sampling_sketch():
    # sample_size < k: every decrement pass draws PRNG words, so the
    # kill-point grid exercises PRNG capture/restore non-trivially (with
    # the default ell >= k the quantile is exact and draws nothing).
    from repro import SampleQuantilePolicy

    return FrequentItemsSketch(
        48, policy=SampleQuantilePolicy(0.5, sample_size=8),
        backend="dict", seed=11,
    )


SKETCH_MAKERS = {
    "flat-probing": lambda: FrequentItemsSketch(48, backend="probing", seed=11),
    "flat-dict-sampling": _sampling_sketch,
    "flat-probing-adaptive": lambda: FrequentItemsSketch(
        48, backend="probing", seed=11, growth="adaptive"
    ),
    "sharded": lambda: ShardedFrequentItemsSketch(32, num_shards=3, seed=11),
}


@pytest.mark.parametrize("kind", sorted(SKETCH_MAKERS))
def test_kill_at_arbitrary_points_recovers_bit_identically(kind, tmp_path):
    """The acceptance property: snapshot + WAL replay == uninterrupted
    run, to the serialized byte and the PRNG word, at every kill point —
    on, before, and after snapshot boundaries (snapshot_every=5)."""
    make_sketch = SKETCH_MAKERS[kind]
    feed = make_feed()
    final_reference = reference_state(make_sketch, feed)
    for kill_at in (0, 1, 4, 5, 6, 11, 17, len(feed)):
        prefix_reference = reference_state(make_sketch, feed[:kill_at])
        directory = tmp_path / f"{kind}-{kill_at}"
        at_kill, final = run(
            killed_then_recovered(make_sketch, feed, kill_at, str(directory))
        )
        assert at_kill == prefix_reference, f"kill_at={kill_at} (recovery)"
        assert final == final_reference, f"kill_at={kill_at} (continuation)"


def test_double_kill_recovers(tmp_path):
    """Crash, recover, crash again mid-continuation, recover again."""
    feed = make_feed(num_batches=18)
    make_sketch = SKETCH_MAKERS["flat-probing"]

    async def main():
        directory = str(tmp_path / "double")
        pipeline = IngestPipeline(
            make_sketch(), config=_CFG, snapshots=SnapshotManager(directory)
        )
        await pipeline.start()
        await feed_pipeline(pipeline, feed[:7])
        await pipeline.stop(final_snapshot=False)

        second = IngestPipeline.recover(SnapshotManager(directory), config=_CFG)
        await second.start()
        await feed_pipeline(second, feed[7:13])
        await second.stop(final_snapshot=False)

        third = IngestPipeline.recover(SnapshotManager(directory), config=_CFG)
        await third.start()
        await feed_pipeline(third, feed[13:])
        await third.stop()
        return third.sketch.to_bytes(), rng_states(third.sketch)

    assert run(main()) == reference_state(make_sketch, feed)


def test_logged_but_never_applied_batch_replays(tmp_path):
    """The crash window between the WAL append and the apply: recovery
    treats the logged batch as applied — identical to the uninterrupted
    run that got one batch further."""
    feed = make_feed(num_batches=6)
    make_sketch = SKETCH_MAKERS["flat-probing"]
    directory = str(tmp_path / "window")

    async def main():
        pipeline = IngestPipeline(
            make_sketch(), config=_CFG, snapshots=SnapshotManager(directory)
        )
        await pipeline.start()
        await feed_pipeline(pipeline, feed[:5])
        # Simulate dying after the WAL write, before update_batch: log
        # batch 6 by hand and drop everything.
        manager = pipeline._snapshots
        manager.append_wal(encode_wal_record(6, feed[5][0], feed[5][1]))
        manager.close()

    run(main())
    recovered = SnapshotManager(directory).recover()
    assert recovered is not None
    sketch, seq = recovered
    assert seq == 6
    assert (sketch.to_bytes(), rng_states(sketch)) == reference_state(
        make_sketch, feed
    )


def test_torn_wal_tail_is_discarded(tmp_path):
    """Truncating mid-record must cost exactly the torn batch, nothing
    else — recovery lands on the previous batch's state."""
    feed = make_feed(num_batches=9)
    make_sketch = SKETCH_MAKERS["flat-probing"]
    directory = str(tmp_path / "torn")

    async def main():
        pipeline = IngestPipeline(
            make_sketch(), config=_CFG, snapshots=SnapshotManager(directory)
        )
        await pipeline.start()
        await feed_pipeline(pipeline, feed)
        await pipeline.stop(final_snapshot=False)

    run(main())
    wal_paths = sorted(
        path for path in os.listdir(directory) if path.endswith(".rwal")
    )
    last = os.path.join(directory, wal_paths[-1])
    size = os.path.getsize(last)
    with open(last, "r+b") as fh:
        fh.truncate(size - 11)  # rip through the final record
    sketch, seq = SnapshotManager(directory).recover()
    assert seq == len(feed) - 1
    assert (sketch.to_bytes(), rng_states(sketch)) == reference_state(
        make_sketch, feed[:-1]
    )


def test_corrupt_newest_snapshot_falls_back(tmp_path):
    """A torn newest checkpoint must not strand the service: recovery
    falls back to the previous snapshot and replays the retained WAL —
    same final state."""
    feed = make_feed(num_batches=13)  # snapshots at 5 and 10
    make_sketch = SKETCH_MAKERS["flat-probing"]
    directory = str(tmp_path / "fallback")

    async def main():
        pipeline = IngestPipeline(
            make_sketch(), config=_CFG, snapshots=SnapshotManager(directory)
        )
        await pipeline.start()
        await feed_pipeline(pipeline, feed)
        await pipeline.stop(final_snapshot=False)

    run(main())
    snapshots = sorted(
        path for path in os.listdir(directory) if path.endswith(".rsnap")
    )
    assert len(snapshots) == 2  # keep_snapshots default
    newest = os.path.join(directory, snapshots[-1])
    blob = bytearray(open(newest, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    open(newest, "wb").write(bytes(blob))
    sketch, seq = SnapshotManager(directory).recover()
    assert seq == len(feed)
    assert (sketch.to_bytes(), rng_states(sketch)) == reference_state(
        make_sketch, feed
    )


def test_pruning_keeps_recovery_possible(tmp_path):
    """Long-running service: old snapshots/WAL segments are pruned, yet
    every later recovery still works."""
    feed = make_feed(num_batches=30)
    make_sketch = SKETCH_MAKERS["flat-probing"]
    directory = str(tmp_path / "prune")

    async def main():
        pipeline = IngestPipeline(
            make_sketch(), config=_CFG, snapshots=SnapshotManager(directory)
        )
        await pipeline.start()
        await feed_pipeline(pipeline, feed)
        await pipeline.stop(final_snapshot=False)

    run(main())
    names = os.listdir(directory)
    assert sum(name.endswith(".rsnap") for name in names) == 2
    assert sum(name.endswith(".rwal") for name in names) <= 3
    sketch, seq = SnapshotManager(directory).recover()
    assert seq == len(feed)
    assert sketch.to_bytes() == reference_state(make_sketch, feed)[0]


# -- snapshot codec -----------------------------------------------------------


def test_snapshot_codec_roundtrip_includes_prng():
    from repro import SampleQuantilePolicy

    # sample_size < k forces the decrement policy to actually sample,
    # consuming PRNG words (with the default ell >= k the quantile is
    # exact and draws nothing).
    policy = SampleQuantilePolicy(0.5, sample_size=4)
    sketch = FrequentItemsSketch(16, policy=policy, seed=5)
    items, weights = make_feed(num_batches=1, batch_size=2_000)[0]
    sketch.update_batch(items, weights)
    assert sketch.kernel.rng.getstate() != FrequentItemsSketch(
        16, policy=policy, seed=5
    ).kernel.rng.getstate()  # decrements consumed PRNG words
    blob = encode_snapshot(sketch, seq=42)
    clone, seq = decode_snapshot(blob)
    assert seq == 42
    assert clone.to_bytes() == sketch.to_bytes()
    assert rng_states(clone) == rng_states(sketch)


def test_snapshot_codec_rejects_corruption():
    sketch = FrequentItemsSketch(8, seed=1)
    sketch.update(3, 4.0)
    blob = encode_snapshot(sketch, seq=7)
    for cut in range(len(blob)):
        with pytest.raises(SerializationError):
            decode_snapshot(blob[:cut])
    for position in range(len(blob)):
        mutated = bytearray(blob)
        mutated[position] ^= 0xFF
        with pytest.raises(SerializationError):
            # Every flip trips the CRC (or an earlier structural check).
            decode_snapshot(bytes(mutated))


def test_snapshot_rejects_unsupported_sketch():
    from repro import DecayedFrequentItemsSketch, InvalidParameterError

    with pytest.raises(InvalidParameterError, match="snapshot"):
        encode_snapshot(DecayedFrequentItemsSketch(16, half_life=10.0), seq=0)


def test_recover_empty_directory(tmp_path):
    directory = str(tmp_path / "fresh")
    assert SnapshotManager(directory).recover() is None
    with pytest.raises(ServiceClosedError):
        IngestPipeline.recover(SnapshotManager(directory))


def test_apply_frame_logs_one_record_per_frame(tmp_path):
    """A leader pipeline committing N frames with ``apply_frame`` (the
    cluster worker's path) writes N WAL records carrying exactly those
    boundaries, and recovers to the state of N ``update_batch`` calls."""
    feed = make_feed(num_batches=7, batch_size=123)
    directory = str(tmp_path / "frames")
    make_sketch = SKETCH_MAKERS["flat-probing"]

    async def main():
        pipeline = IngestPipeline(
            make_sketch(),
            config=PipelineConfig(snapshot_every_batches=1000),
            snapshots=SnapshotManager(directory),
        )
        await pipeline.start()
        for seq, (items, weights) in enumerate(feed, start=1):
            assert pipeline.apply_frame(seq, items, weights)
        await pipeline.stop(final_snapshot=False)

    run(main())
    # No checkpoint after the baseline: one segment holds every record.
    (segment,) = [name for name in os.listdir(directory) if name.endswith(".rwal")]
    records = list(SnapshotManager._read_records(os.path.join(directory, segment)))
    assert [seq for seq, _items, _weights in records] == list(range(1, 8))
    for (_seq, items, weights), (fed_items, fed_weights) in zip(records, feed):
        assert np.array_equal(items, fed_items)
        assert np.array_equal(weights, fed_weights)
    recovered, seq = SnapshotManager(directory).recover()
    assert seq == len(feed)
    assert (recovered.to_bytes(), rng_states(recovered)) == reference_state(
        make_sketch, feed
    )


def test_wal_gap_detected(tmp_path):
    """A missing record in the middle is corruption, not a torn tail —
    replay must refuse rather than skip silently."""
    directory = str(tmp_path / "gap")
    manager = SnapshotManager(directory)
    sketch = FrequentItemsSketch(8, seed=2)
    manager.write_snapshot(sketch, seq=0)
    for seq, item in ((1, 1), (3, 2)):
        manager.append_wal(encode_wal_record(
            seq, np.array([item], dtype=np.uint64), np.array([1.0])
        ))
    manager.close()
    with pytest.raises(SerializationError, match="gap"):
        SnapshotManager(directory).recover()


def test_random_kill_points_fuzz(tmp_path):
    """A randomized sweep across sketch kinds and kill points (beyond
    the deterministic grid above)."""
    rng = random.Random(2024)
    feed = make_feed(num_batches=12, batch_size=250)
    for index in range(6):
        kind = rng.choice(sorted(SKETCH_MAKERS))
        make_sketch = SKETCH_MAKERS[kind]
        kill_at = rng.randint(0, len(feed))
        directory = tmp_path / f"fuzz-{index}"
        at_kill, final = run(
            killed_then_recovered(make_sketch, feed, kill_at, str(directory))
        )
        assert at_kill == reference_state(make_sketch, feed[:kill_at])
        assert final == reference_state(make_sketch, feed)
