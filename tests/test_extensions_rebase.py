"""Windowed and sampled-MG results are bit-identical pre/post re-base.

Both extensions were converted from hand-rolled update loops over a
``FrequentItemsSketch`` to direct :class:`~repro.engine.kernel.
SketchKernel` composition.  The golden hashes below were computed with
the pre-engine implementations (PR 2 tree) on fixed-seed Zipf and
adversarial streams; the kernel-composed versions must reproduce them
exactly — and their new ``update_batch`` paths must land in the same
state as their scalar loops.
"""

import numpy as np
import pytest

from helpers import sha256_hex as _sha
from repro.extensions.sampled_mg import SampledFrequentItems
from repro.extensions.windowed import SlidingWindowHeavyHitters
from repro.streams.adversarial import rbmc_killer_stream
from repro.streams.zipf import ZipfianStream

#: Pre-rebase goldens: sha256 of the merged window / inner summary bytes.
GOLDEN_WINDOWED_ZIPF = (
    "06b0a97c3d5e553f1b7f9e72d77198da13b30939f8b3053e362fb70fbf53751b"
)
GOLDEN_WINDOWED_ZIPF_WEIGHT = 303_826.0
GOLDEN_WINDOWED_ADVERSARIAL = (
    "f993435a1fc43a840c0b281c5b12ec162b1de96779b7afab3d696564a4b9d718"
)
GOLDEN_WINDOWED_ADVERSARIAL_WEIGHT = 34_000.0
GOLDEN_SAMPLED_ZIPF = (
    "d63201335fc864cee979174b32d1beb3788606152ff4e99932baa2397a8bd90c"
)
GOLDEN_SAMPLED_ZIPF_COUNT = 100_713
GOLDEN_SAMPLED_ZIPF_SKIP = 7.0
GOLDEN_SAMPLED_ADVERSARIAL = (
    "c4ef22cb57fbfbea892c7c346357550eee5f4ef2e80200424914ac97b92e1edd"
)
GOLDEN_SAMPLED_ADVERSARIAL_COUNT = 8_502
GOLDEN_SAMPLED_ADVERSARIAL_SKIP = 1.0


@pytest.fixture(scope="module")
def zipf_stream():
    return list(
        ZipfianStream(20_000, universe=2_000, alpha=1.1, seed=7,
                      weight_low=1, weight_high=100)
    )


@pytest.fixture(scope="module")
def adversarial_stream():
    return list(rbmc_killer_stream(32, 1000.0, 2_000))


def test_windowed_golden_zipf(zipf_stream):
    window = SlidingWindowHeavyHitters(64, 4, seed=5)
    for index, (item, weight) in enumerate(zipf_stream[:12_000]):
        window.update(item, weight)
        if (index + 1) % 2_000 == 0:
            window.advance()
    assert window.window_weight == GOLDEN_WINDOWED_ZIPF_WEIGHT
    assert _sha(window.window_sketch().to_bytes()) == GOLDEN_WINDOWED_ZIPF


def test_windowed_golden_adversarial(adversarial_stream):
    window = SlidingWindowHeavyHitters(32, 3, seed=9)
    for index, (item, weight) in enumerate(adversarial_stream):
        window.update(item, weight)
        if (index + 1) % 700 == 0:
            window.advance()
    assert window.window_weight == GOLDEN_WINDOWED_ADVERSARIAL_WEIGHT
    assert _sha(window.window_sketch().to_bytes()) == GOLDEN_WINDOWED_ADVERSARIAL


def test_sampled_golden_zipf(zipf_stream):
    sampled = SampledFrequentItems(64, 0.1, seed=13)
    for item, weight in zipf_stream:
        sampled.update(item, weight)
    assert sampled.sampled_count == GOLDEN_SAMPLED_ZIPF_COUNT
    assert sampled._skip == GOLDEN_SAMPLED_ZIPF_SKIP
    assert _sha(sampled.inner.to_bytes()) == GOLDEN_SAMPLED_ZIPF


def test_sampled_golden_adversarial(adversarial_stream):
    sampled = SampledFrequentItems(32, 0.25, seed=17)
    for item, weight in adversarial_stream:
        sampled.update(item, weight)
    assert sampled.sampled_count == GOLDEN_SAMPLED_ADVERSARIAL_COUNT
    assert sampled._skip == GOLDEN_SAMPLED_ADVERSARIAL_SKIP
    assert _sha(sampled.inner.to_bytes()) == GOLDEN_SAMPLED_ADVERSARIAL


@pytest.mark.parametrize("backend", ("dict", "probing"))
def test_windowed_batch_equals_scalar(zipf_stream, backend):
    """The inherited kernel batch path lands in scalar-identical state."""
    items = np.array([item for item, _w in zipf_stream[:12_000]], dtype=np.uint64)
    weights = np.array([w for _item, w in zipf_stream[:12_000]], dtype=np.float64)
    scalar = SlidingWindowHeavyHitters(64, 4, backend=backend, seed=5)
    batched = SlidingWindowHeavyHitters(64, 4, backend=backend, seed=5)
    for start in range(0, 12_000, 2_000):
        stop = start + 2_000
        for index in range(start, stop):
            scalar.update(int(items[index]), float(weights[index]))
        scalar.advance()
        batched.update_batch(items[start:stop], weights[start:stop])
        batched.advance()
    assert scalar.window_weight == batched.window_weight
    assert (
        scalar.window_sketch().to_bytes() == batched.window_sketch().to_bytes()
    )


@pytest.mark.parametrize("backend", ("dict", "probing"))
def test_sampled_batch_equals_scalar(zipf_stream, backend):
    """Batch thinning draws the same renewal sequence as the scalar loop."""
    items = np.array([item for item, _w in zipf_stream], dtype=np.uint64)
    weights = np.array([w for _item, w in zipf_stream], dtype=np.float64)
    scalar = SampledFrequentItems(64, 0.1, backend=backend, seed=13)
    for item, weight in zipf_stream:
        scalar.update(item, weight)
    batched = SampledFrequentItems(64, 0.1, backend=backend, seed=13)
    for start in range(0, len(items), 4_096):
        batched.update_batch(items[start : start + 4_096],
                             weights[start : start + 4_096])
    assert batched.sampled_count == scalar.sampled_count
    assert batched._skip == scalar._skip
    assert batched.stream_weight == scalar.stream_weight
    assert batched.inner.to_bytes() == scalar.inner.to_bytes()


def test_sampled_batch_passthrough_probability_one():
    sampled = SampledFrequentItems(32, 1.0, seed=1)
    sampled.update_batch(np.array([1, 2, 1], dtype=np.uint64),
                         np.array([5.0, 3.0, 2.0]))
    assert sampled.estimate(1) == 7.0
    assert sampled.sampled_count == 10
    assert sampled.stream_weight == 10.0


def test_sampled_batch_renewal_boundary_clamped():
    """A renewal landing in the pairwise-vs-sequential sum gap must not crash.

    ``weights.sum()`` (pairwise) can exceed ``np.cumsum(weights)[-1]``
    (sequential) by a few ulps for non-integer weights; a carried-over
    skip landing in that gap used to index past the batch.  It must be
    attributed to the last update, per the scalar loop's inclusive
    boundary.
    """
    for n in (300, 1_000, 3_000, 10_000):
        weights = np.full(n, 0.1)
        if float(weights.sum()) > float(np.cumsum(weights)[-1]):
            break
    else:
        pytest.skip("no pairwise/sequential summation gap on this platform")
    items = np.arange(len(weights), dtype=np.uint64)
    sampled = SampledFrequentItems(32, 0.5, seed=3)
    sampled._skip = float(weights.sum())  # renewal exactly at the batch end
    sampled.update_batch(items, weights)  # must not raise
    assert sampled.sampled_count == 1
    assert sampled.inner.lower_bound(int(items[-1])) == 1.0


def test_sampled_batch_empty_and_no_hits():
    sampled = SampledFrequentItems(32, 0.001, seed=2)
    sampled.update_batch(np.array([], dtype=np.uint64))
    assert sampled.stream_weight == 0.0
    # A tiny batch at p=0.001 usually samples nothing; state must stay
    # consistent either way.
    sampled.update_batch(np.array([9], dtype=np.uint64), np.array([1.0]))
    assert sampled.stream_weight == 1.0
    assert sampled.sampled_count in (0, 1)
