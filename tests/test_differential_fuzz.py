"""Seeded differential fuzzing: both backends + sharded vs an exact oracle.

Each scenario drives one randomized operation sequence — scalar updates,
array batches, weighted updates, canonical-order merges, serialization
round trips — through *every* store backend (and an adaptive-growth
twin, and a sharded sketch), then checks two independent properties
after every operation:

**Cross-backend bit-identity.**  The backends differ only in counter
*layout*; the algorithm's observable state — the counter multiset, the
accumulated offset, the stream weight, hence every estimate and bound —
is a pure function of the update sequence whenever decrement values are
layout-independent.  That holds for all shipped policies at the sizes
fuzzed here: ``k <= sample_size`` makes the sample-quantile policies use
the whole multiset (an exact order statistic), and the exact-kth /
global-min policies are order statistics by definition.  So estimates
must agree across backends to the last bit, and adaptive growth must be
indistinguishable from fixed.  (True ``merge()`` replays counters in
layout order, which is why merges mid-scenario use a canonical order —
``merge()`` itself is fuzzed at the end of a scenario, where only the
oracle properties below must survive.)

**Paper error bounds.**  Against an exact ``Counter`` oracle, every item
must satisfy ``lower <= f <= upper`` and ``|estimate - f| <=
maximum_error`` (Section 2.3.1's deterministic guarantees), absent items
must estimate to exactly 0, and stream weights must match exactly
(integer weights).

20 parametrized chunks x 10 seeds = 200 generated scenarios spanning
skews, policies, growth modes, batch sizes, and operation mixes.
"""

import random

import numpy as np
import pytest

from helpers import assert_bounds_valid
from repro import (
    ExactCounter,
    ExactKthLargestPolicy,
    FrequentItemsSketch,
    GlobalMinPolicy,
    SampleQuantilePolicy,
    ShardedFrequentItemsSketch,
)
from repro.table import BACKEND_NAMES

SCENARIOS_PER_CHUNK = 10
NUM_CHUNKS = 20  # 200 scenarios total

_POLICIES = [
    lambda: SampleQuantilePolicy(0.5),
    lambda: SampleQuantilePolicy(0.0),
    lambda: SampleQuantilePolicy(0.25),
    lambda: ExactKthLargestPolicy(0.5),
    lambda: GlobalMinPolicy(),
]


def _draw_stream(rng: random.Random, universe: int, n: int, max_weight: int):
    """n weighted updates over [0, universe) with a randomized skew."""
    alpha = rng.choice([0.0, 0.7, 1.1, 1.6])
    if alpha == 0.0:
        items = [rng.randrange(universe) for _ in range(n)]
    else:
        ranks = np.arange(1, universe + 1, dtype=np.float64)
        items = rng.choices(
            range(universe), weights=(1.0 / ranks**alpha).tolist(), k=n
        )
    weights = [float(rng.randint(1, max_weight)) for _ in range(n)]
    return items, weights


def _to_arrays(items, weights):
    return (
        np.array(items, dtype=np.uint64),
        np.array(weights, dtype=np.float64),
    )


def _observable_state(sketch):
    """Layout-free summary state: sorted counters, offset, stream weight."""
    items, counts = sketch._store.as_arrays()
    order = np.argsort(items, kind="stable")
    return (
        items[order].tolist(),
        counts[order].tolist(),
        sketch.maximum_error,
        sketch.stream_weight,
    )


def _assert_variants_agree(variants, probes, context):
    reference = variants[0]
    ref_state = _observable_state(reference)
    ref_estimates = reference.estimate_batch(probes)
    for other in variants[1:]:
        assert _observable_state(other) == ref_state, (
            f"{context}: {other.backend}/{other.growth} diverged from "
            f"{reference.backend}/{reference.growth}"
        )
        assert np.array_equal(other.estimate_batch(probes), ref_estimates), (
            f"{context}: estimates diverged on {other.backend}/{other.growth}"
        )


def _canonical_merge(sketch, donor_items, donor_counts, donor_offset,
                     donor_weight):
    """Algorithm 5 with a layout-independent (sorted) replay order.

    Result-equivalent to ``merge()`` up to replay order: counters are
    replayed through the ingest engine, then the donor's offset and
    *stream* weight (not its counter mass) carry over — so every bound
    the destination reports afterwards is valid for the union stream.
    """
    if len(donor_items):
        sketch.update_batch(donor_items, donor_counts)
        sketch.kernel.stream_weight += donor_weight - float(donor_counts.sum())
    else:
        sketch.kernel.stream_weight += donor_weight
    sketch.kernel.offset += donor_offset


def _run_scenario(seed: int) -> None:
    rng = random.Random(seed)
    k = rng.choice([4, 7, 8, 16, 33, 64])
    policy_factory = rng.choice(_POLICIES)
    growth_primary = rng.choice(BACKEND_NAMES)
    universe = k * rng.choice([2, 8, 32])
    max_weight = rng.choice([1, 10, 10_000])
    sketch_seed = rng.randrange(1 << 32)

    variants = [
        FrequentItemsSketch(
            k, policy=policy_factory(), backend=backend, seed=sketch_seed
        )
        for backend in BACKEND_NAMES
    ]
    # The adaptive twin: same backend as one fixed variant, doubling table.
    variants.append(
        FrequentItemsSketch(
            k, policy=policy_factory(), backend=growth_primary,
            seed=sketch_seed, growth="adaptive",
        )
    )
    sharded = ShardedFrequentItemsSketch(
        max(k // 2, 2), num_shards=rng.choice([1, 2, 3]),
        policy=policy_factory(), seed=sketch_seed,
    )
    oracle = ExactCounter()
    probes = np.array(
        [rng.randrange(universe) for _ in range(32)]
        + [universe + offset for offset in range(4)],  # guaranteed absent
        dtype=np.uint64,
    )

    num_ops = rng.randint(4, 9)
    for op_index in range(num_ops):
        op = rng.choice(["scalar", "batch", "batch", "chunked", "merge",
                         "roundtrip"])
        context = f"seed={seed} op={op_index}:{op}"
        if op == "scalar":
            items, weights = _draw_stream(
                rng, universe, rng.randint(1, 80), max_weight
            )
            for sketch in variants:
                for item, weight in zip(items, weights):
                    sketch.update(item, weight)
            for item, weight in zip(items, weights):
                sharded.update(item, weight)
                oracle.update(item, weight)
        elif op == "batch":
            items, weights = _draw_stream(
                rng, universe, rng.randint(1, 400), max_weight
            )
            arrays = _to_arrays(items, weights)
            for sketch in variants:
                sketch.update_batch(*arrays)
            sharded.update_batch(*arrays)
            for item, weight in zip(items, weights):
                oracle.update(item, weight)
        elif op == "chunked":
            # The same updates sliced into uneven update_batch calls:
            # batch-boundary placement must not be observable.
            items, weights = _draw_stream(
                rng, universe, rng.randint(2, 300), max_weight
            )
            arrays = _to_arrays(items, weights)
            cut = rng.randint(1, len(items) - 1)
            for sketch in variants:
                sketch.update_batch(arrays[0][:cut], arrays[1][:cut])
                sketch.update_batch(arrays[0][cut:], arrays[1][cut:])
            sharded.update_batch(*arrays)
            for item, weight in zip(items, weights):
                oracle.update(item, weight)
        elif op == "merge":
            # Donor built per backend with identical config/seed; its
            # state is layout-independent too, so replaying it in
            # canonical order preserves cross-backend identity.
            donor_seed = rng.randrange(1 << 32)
            donor_stream = _draw_stream(
                rng, universe, rng.randint(1, 200), max_weight
            )
            donor_arrays = _to_arrays(*donor_stream)
            donor_state = None
            for sketch in variants:
                donor = FrequentItemsSketch(
                    k, policy=policy_factory(), backend=sketch.backend,
                    seed=donor_seed, growth=sketch.growth,
                )
                donor.update_batch(*donor_arrays)
                d_items, d_counts = donor._store.as_arrays()
                order = np.argsort(d_items, kind="stable")
                state = (
                    d_items[order], d_counts[order],
                    donor.maximum_error, donor.stream_weight,
                )
                if donor_state is None:
                    donor_state = state
                _canonical_merge(sketch, state[0], state[1], state[2], state[3])
            # The sharded variant (and the oracle) see the donor's raw
            # stream instead: same combined stream, valid same bounds.
            sharded.update_batch(*donor_arrays)
            for item, weight in zip(*donor_stream):
                oracle.update(item, weight)
        elif op == "roundtrip":
            variants = [
                FrequentItemsSketch.from_bytes(sketch.to_bytes())
                for sketch in variants
            ]
            sharded = ShardedFrequentItemsSketch.from_bytes(sharded.to_bytes())
        _assert_variants_agree(variants, probes, context)

    # -- end-of-scenario oracle checks ---------------------------------------
    for sketch in variants:
        assert_bounds_valid(sketch, oracle, tolerance=0.0)
    assert_bounds_valid(sharded, oracle, tolerance=0.0)
    for sketch in variants[:1] + [sharded]:
        estimates = sketch.estimate_batch(probes)
        for probe, estimate in zip(probes.tolist(), estimates.tolist()):
            frequency = oracle.frequency(probe)
            if frequency == 0.0:
                assert estimate == 0.0  # MG side: absent items are exact
            assert abs(estimate - frequency) <= sketch.maximum_error

    # Serialized round trips preserve all observable state on every
    # variant; the fixed-length probing layout (serial_arrays re-inserts
    # slot for slot) is additionally byte-stable.  An adaptive table can
    # restore at an earlier growth stage than the one it was written
    # from, so its layout, and with it the record order, may differ.
    for sketch in variants:
        clone = FrequentItemsSketch.from_bytes(sketch.to_bytes())
        assert _observable_state(clone) == _observable_state(sketch)
        if sketch.backend == "probing" and sketch.growth == "fixed":
            assert clone.to_bytes() == sketch.to_bytes()
        assert np.array_equal(
            clone.estimate_batch(probes), sketch.estimate_batch(probes)
        )
    sharded_clone = ShardedFrequentItemsSketch.from_bytes(sharded.to_bytes())
    assert sharded_clone.to_bytes() == sharded.to_bytes()

    # Finally, the true merge() path (layout-order replay): identity
    # across backends is out of scope here, but the deterministic
    # guarantees must survive on every backend independently.
    aggregate_stream = _draw_stream(rng, universe, 150, max_weight)
    aggregate_arrays = _to_arrays(*aggregate_stream)
    for item, weight in zip(*aggregate_stream):
        oracle.update(item, weight)
    for sketch in variants:
        donor = FrequentItemsSketch(
            k, policy=policy_factory(), backend=sketch.backend, seed=99,
        )
        donor.update_batch(*aggregate_arrays)
        sketch.merge(donor)
        assert_bounds_valid(sketch, oracle, tolerance=0.0)
    sharded.update_batch(*aggregate_arrays)
    assert_bounds_valid(sharded, oracle, tolerance=0.0)


@pytest.mark.parametrize("chunk", range(NUM_CHUNKS))
def test_differential_scenarios(chunk):
    for index in range(SCENARIOS_PER_CHUNK):
        _run_scenario(seed=1_000 * chunk + index)
