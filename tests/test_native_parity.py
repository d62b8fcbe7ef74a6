"""Native-vs-fallback bit-identity: the compiled kernels may not change
one observable bit.

Every test builds the same sketch twice in one process — once with the
compiled path forced on, once forced off (``repro.native.use_native``) —
and asserts the strongest equalities we have: serialized bytes, xoroshiro
state words, offsets, estimates, live table layouts, and probe counts.
The whole module skips cleanly when the extension isn't built (the
pure-NumPy CI job), and the inter-path tests skip when it is but was
disabled via ``REPRO_NATIVE=0`` (the golden-hash suite then covers that
configuration on its own).
"""

import numpy as np
import pytest

from repro import native
from repro.core.frequent_items import FrequentItemsSketch
from repro.core.policies import SampleQuantilePolicy
from repro.engine.kernel import SketchKernel
from repro.errors import InvalidParameterError, TableFullError
from repro.table.probing import LinearProbingTable

pytestmark = [
    pytest.mark.native,
    pytest.mark.skipif(
        not native.available(), reason="native extension not built"
    ),
]

BACKENDS = ("probing", "dict")
GROWTHS = ("fixed", "adaptive")


def _drive_kernel(use_native_path, backend, growth, policy_kwargs):
    """Interleave scalar updates, batches, and a merge; return the kernel."""
    with native.use_native(use_native_path):
        kernel = SketchKernel(
            128,
            policy=SampleQuantilePolicy(**policy_kwargs),
            backend=backend,
            seed=11,
            growth=growth,
        )
        rng = np.random.default_rng(5)
        items = (rng.zipf(1.2, size=6000) % 700).astype(np.uint64)
        weights = rng.integers(1, 50, size=6000).astype(np.float64)
        # Scalar prefix (partially fills, exercises adaptive staging)...
        for item, weight in zip(items[:300].tolist(), weights[:300].tolist()):
            kernel.update(item, weight)
        # ...then batches large enough to force decrement passes...
        kernel.update_batch_validated(items[300:4000], weights[300:4000])
        # ...a merge from an independently-built donor...
        donor = SketchKernel(
            64,
            policy=SampleQuantilePolicy(**policy_kwargs),
            backend=backend,
            seed=23,
            growth=growth,
        )
        donor.update_batch_validated(items[4000:5000], weights[4000:5000])
        kernel.absorb(donor)
        # ...and a final batch on the merged state.
        kernel.update_batch_validated(items[5000:], weights[5000:])
        return kernel


def _snapshot(kernel):
    items, counts = kernel.store.as_arrays()
    return {
        "items": np.asarray(items).tolist(),
        "counts": np.asarray(counts).tolist(),
        "offset": kernel.offset,
        "stream_weight": kernel.stream_weight,
        "rng": kernel.rng.getstate(),
        "size": len(kernel.store),
        "stats": kernel.stats.as_dict(),
    }


@pytest.mark.parametrize("growth", GROWTHS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_bit_identity_across_paths(backend, growth):
    """Estimates, RNG words, offset, stats — equal after interleaved ops."""
    fast = _drive_kernel(True, backend, growth, {})
    slow = _drive_kernel(False, backend, growth, {})
    assert _snapshot(fast) == _snapshot(slow)


def test_kernel_bit_identity_forced_rng_sampling():
    """A tiny sample_size forces the rejection-sampling PRNG draws in the
    compiled decrement; the post-stream state words must still match."""
    kwargs = {"quantile": 0.5, "sample_size": 64}
    fast = _drive_kernel(True, "probing", "fixed", kwargs)
    slow = _drive_kernel(False, "probing", "fixed", kwargs)
    assert fast.rng.getstate() == slow.rng.getstate()
    assert _snapshot(fast) == _snapshot(slow)


@pytest.mark.parametrize("quantile", (0.0, 0.25, 1.0))
def test_kernel_bit_identity_quantile_extremes(quantile):
    """SMIN / intermediate / max quantiles hit all selector branches."""
    kwargs = {"quantile": quantile, "sample_size": 1024}
    fast = _drive_kernel(True, "probing", "fixed", kwargs)
    slow = _drive_kernel(False, "probing", "fixed", kwargs)
    assert _snapshot(fast) == _snapshot(slow)


def _drive_selection(use_native_path, k, quantile, sample_size, weights):
    with native.use_native(use_native_path):
        kernel = SketchKernel(
            k,
            policy=SampleQuantilePolicy(
                quantile=quantile, sample_size=sample_size
            ),
            backend="probing",
            seed=29,
        )
        rng = np.random.default_rng(k)
        items = (rng.zipf(1.05, size=24 * k) % (8 * k)).astype(np.uint64)
        if weights == "unit":
            counts = np.ones(items.size)
        else:
            counts = rng.integers(1, 10_001, size=items.size).astype(np.float64)
        for chunk in np.array_split(np.arange(items.size), 6):
            kernel.update_batch_validated(items[chunk], counts[chunk])
        return kernel


@pytest.mark.parametrize("weights", ("unit", "integer"))
@pytest.mark.parametrize("k", (64, 1500))
@pytest.mark.parametrize("sample_size", (1, 2, 1023, 1024))
@pytest.mark.parametrize("quantile", (0.1, 0.5, 0.75, 0.9))
def test_selection_bit_identity(quantile, sample_size, k, weights):
    """The compiled pass selects the order statistic where the fallback
    sorts; both must land on the same value, so offsets, layouts and RNG
    words stay equal.  Unit weights tie counters heavily; integer
    weights U[1, 10^4] (the paper's Section 4.5 stream) make them mostly
    distinct.  ``k = 64`` with ``sample_size`` >= k takes the exact,
    no-draw branch."""
    fast = _drive_selection(True, k, quantile, sample_size, weights)
    slow = _drive_selection(False, k, quantile, sample_size, weights)
    assert fast.stats.decrements > 0
    assert fast.rng.getstate() == slow.rng.getstate()
    assert _snapshot(fast) == _snapshot(slow)


@pytest.mark.parametrize("backend", BACKENDS)
def test_serialized_bytes_identical(backend):
    """The public blob — byte for byte — across paths, then a restore
    round-trip on the opposite path."""

    def build(flag):
        with native.use_native(flag):
            sketch = FrequentItemsSketch(
                max_counters=128, backend=backend, seed=11
            )
            rng = np.random.default_rng(9)
            items = (rng.zipf(1.1, size=8000) % 3000).astype(np.uint64)
            sketch.update_batch(items, np.ones(8000))
            return sketch.to_bytes()

    blob_native = build(True)
    blob_numpy = build(False)
    assert blob_native == blob_numpy
    # Cross-path restore: bytes written by one path load on the other.
    with native.use_native(False):
        restored = FrequentItemsSketch.from_bytes(blob_native)
    with native.use_native(True):
        assert restored.to_bytes() == blob_native


def _live_layout(table):
    occupied = np.flatnonzero(table._states != 0)
    return {
        "states": table._states.tolist(),  # stale cells are zeroed on both paths
        "keys": table._keys[occupied].tolist(),
        "values": table._values[occupied].tolist(),
        "size": len(table),
        "probes": table.probe_count,
    }


def test_table_ops_layout_and_probe_parity():
    """insert_many / get_many / add_many / purge: identical layouts and
    identical probe accounting on both paths."""
    rng = np.random.default_rng(3)
    tables = {}
    for flag in (True, False):
        with native.use_native(flag):
            table = LinearProbingTable(96, hash_seed=13)
            keys = rng.choice(4000, size=96, replace=False).astype(np.uint64)
            values = rng.uniform(1.0, 20.0, size=96)
            table.insert_many(keys, values)
            queries = rng.integers(0, 5000, size=300).astype(np.uint64)
            got = table.get_many(queries)
            table.add_many(keys[:40], np.full(40, 2.5))
            table.adjust_all(-float(np.median(values)))
            freed = table.purge_nonpositive()
            tables[flag] = (_live_layout(table), got.tolist(), freed)
        rng = np.random.default_rng(3)  # same draws for the second pass
    native_result, numpy_result = tables[True], tables[False]
    assert native_result[0] == numpy_result[0]
    assert freed > 0
    assert np.array_equal(
        np.array(native_result[1]), np.array(numpy_result[1]), equal_nan=True
    )
    assert native_result[2] == numpy_result[2]


def test_table_error_paths_native():
    """Duplicate / missing-key errors raise the repro types and leave the
    table untouched, exactly like the NumPy paths."""
    with native.use_native(True):
        table = LinearProbingTable(8, hash_seed=1)
        table.insert(5, 1.0)
        before = _live_layout(table)
        with pytest.raises(InvalidParameterError):
            table.insert_many(
                np.array([7, 5, 9], dtype=np.uint64), np.ones(3)
            )
        assert _live_layout(table)["keys"] == before["keys"]
        with pytest.raises(InvalidParameterError):
            table.add_many(np.array([5, 99], dtype=np.uint64), np.ones(2))
        with pytest.raises(TableFullError):
            table.insert_many(
                np.arange(100, 110, dtype=np.uint64), np.ones(10)
            )


def test_fractional_weights_native_matches_scalar_exactly():
    """Fractional weights: the compiled batch loop IS the scalar update
    sequence, so it lands bit-exactly on the scalar reference — the
    NumPy batch path's grouped accumulation is only documented to agree
    within O(eps log n) there (it is bit-identical for the paper's
    integer-representable workloads, which the other tests pin)."""
    rng = np.random.default_rng(17)
    items = (rng.zipf(1.3, size=4000) % 500).astype(np.uint64)
    weights = rng.uniform(0.1, 3.0, size=4000)

    with native.use_native(True):
        batched = SketchKernel(64, backend="probing", seed=2)
        batched.ingest_batch(items, weights)
    scalar = SketchKernel(64, backend="probing", seed=2)
    for item, weight in zip(items.tolist(), weights.tolist()):
        scalar.ingest(item, weight)
    with native.use_native(False):
        numpy_batched = SketchKernel(64, backend="probing", seed=2)
        numpy_batched.ingest_batch(items, weights)

    snap_native, snap_scalar = _snapshot(batched), _snapshot(scalar)
    assert snap_native == snap_scalar  # bit-exact, counts included
    snap_numpy = _snapshot(numpy_batched)
    assert snap_numpy["items"] == snap_scalar["items"]
    assert snap_numpy["rng"] == snap_scalar["rng"]
    np.testing.assert_allclose(
        snap_numpy["counts"], snap_scalar["counts"], rtol=1e-12
    )


def test_unaligned_blob_arrays_accepted():
    """Deserialization hands the kernels unaligned frombuffer views."""
    with native.use_native(True):
        sketch = FrequentItemsSketch(max_counters=16, seed=3)
        for i in range(40):
            sketch.update(i % 9, float(i + 1))
        clone = FrequentItemsSketch.from_bytes(sketch.to_bytes())
        assert clone.to_bytes() == sketch.to_bytes()


def test_adaptive_tables_go_native_once_grown():
    """While staged the Python growth machinery runs; at final length the
    dispatch flips to the compiled path with no observable seam."""
    with native.use_native(True):
        kernel = SketchKernel(128, backend="probing", seed=7, growth="adaptive")
        assert kernel.store._insertion_log is not None
        assert native.table_kernels(kernel.store) is None
        items = np.arange(4000, dtype=np.uint64)
        kernel.update_batch_validated(items, np.ones(4000))
        assert kernel.store._insertion_log is None
        assert native.table_kernels(kernel.store) is not None
    with native.use_native(False):
        twin = SketchKernel(128, backend="probing", seed=7, growth="adaptive")
        twin.update_batch_validated(items, np.ones(4000))
    assert _snapshot(kernel) == _snapshot(twin)


def test_runtime_metadata_reports_path():
    with native.use_native(True):
        meta = native.runtime_metadata()
        assert meta["ingest_path"] == "native"
        assert meta["native_available"] is True
        assert "native_compiler" in meta
    with native.use_native(False):
        assert native.runtime_metadata()["ingest_path"] == "numpy"
