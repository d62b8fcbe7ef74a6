"""Experiment definitions: one function per paper figure/table.

Each function returns :class:`~repro.bench.report.ResultTable` objects
whose rows are the series the corresponding figure plots (or the claims
the text states).  Shared runs are memoized so ``fig1``, ``fig2`` and
``claims`` reuse one sweep.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.baselines.factory import (
    make_algorithm,
    make_med,
    make_quantile_variant,
    make_smed,
)
from repro.baselines.count_min import CountMinSketch
from repro.baselines.count_sketch import CountSketch
from repro.baselines.lossy_counting import LossyCounting
from repro.baselines.merge_prior import ach13_merge, hoa61_merge
from repro.bench.harness import (
    BenchConfig,
    feed_stream,
    num_batched_updates,
    packet_exact,
    packet_stream,
    time_call,
    time_feed,
    time_feed_batches,
    zipf_weighted_batches,
    zipf_weighted_stream,
)
from repro.bench.report import ResultTable
from repro.core.frequent_items import FrequentItemsSketch
from repro.core.policies import GlobalMinPolicy, SampleQuantilePolicy
from repro.extensions.rap import RandomAdmissionSpaceSaving
from repro.metrics.accuracy import max_error, max_underestimate
from repro.metrics.space import (
    counters_for_equal_space,
    merge_scratch_bytes,
    space_model_bytes,
)
from repro.streams.adversarial import rbmc_killer_stream
from repro.streams.exact import ExactCounter
from repro.streams.uniform import uniform_weighted_stream

#: The four algorithms of Figures 1 and 2, in the paper's order.
FOUR_ALGORITHMS = ("SMED", "SMIN", "RBMC", "MHE")

_SWEEP_CACHE: dict[tuple, list[dict]] = {}


def _four_algorithm_sweep(config: BenchConfig, backend: str) -> list[dict]:
    """Run SMED/SMIN/RBMC/MHE over the k sweep, equal-counters and equal-space.

    One record per (panel, algorithm, k): seconds, throughput, max error,
    decrement statistics, modeled space.
    """
    key = (id(config), config.num_updates, config.seed, backend)
    if key in _SWEEP_CACHE:
        return _SWEEP_CACHE[key]
    stream = packet_stream(config)
    exact = packet_exact(config)
    records = []
    for k in config.k_values:
        budget = space_model_bytes("smed", k)
        for name in FOUR_ALGORITHMS:
            for panel in ("equal_counters", "equal_space"):
                if panel == "equal_counters":
                    actual_k = k
                else:
                    actual_k = counters_for_equal_space(name.lower(), budget)
                algorithm = make_algorithm(name, actual_k, seed=config.seed, backend=backend)
                seconds = time_feed(algorithm, stream)
                records.append(
                    {
                        "panel": panel,
                        "algorithm": name,
                        "k": k,
                        "actual_k": actual_k,
                        "seconds": seconds,
                        "updates_per_sec": len(stream) / seconds if seconds else float("inf"),
                        "max_error": max_error(algorithm, exact),
                        "decrements": algorithm.stats.decrements,
                        "scan_per_update": algorithm.stats.amortized_scan_cost(),
                        "heap_sifts": algorithm.stats.heap_sifts,
                        "space_bytes": space_model_bytes(name.lower(), actual_k),
                    }
                )
    _SWEEP_CACHE[key] = records
    return records


def _panel_table(
    records: list[dict], panel: str, title: str, value_columns: list[str]
) -> ResultTable:
    table = ResultTable(title, ["algorithm", "k", "actual_k"] + value_columns)
    for record in records:
        if record["panel"] != panel:
            continue
        table.add_row(
            algorithm=record["algorithm"],
            k=record["k"],
            actual_k=record["actual_k"],
            **{column: record[column] for column in value_columns},
        )
    return table


def fig1_runtime(
    config: BenchConfig, backend: str = "dict"
) -> tuple[ResultTable, ResultTable]:
    """Figure 1: runtime of the four algorithms, both comparison panels."""
    records = _four_algorithm_sweep(config, backend)
    columns = ["seconds", "updates_per_sec", "decrements", "scan_per_update", "heap_sifts"]
    equal_space = _panel_table(
        records, "equal_space",
        "Figure 1 (top): runtime, equal space budget per k", columns,
    )
    equal_counters = _panel_table(
        records, "equal_counters",
        "Figure 1 (bottom): runtime, equal number of counters", columns,
    )
    return equal_space, equal_counters


def fig2_error(
    config: BenchConfig, backend: str = "dict"
) -> tuple[ResultTable, ResultTable]:
    """Figure 2: maximum point-query error, both comparison panels."""
    records = _four_algorithm_sweep(config, backend)
    columns = ["max_error", "space_bytes"]
    equal_space = _panel_table(
        records, "equal_space",
        "Figure 2 (top): maximum error, equal space budget per k", columns,
    )
    equal_counters = _panel_table(
        records, "equal_counters",
        "Figure 2 (bottom): maximum error, equal number of counters", columns,
    )
    return equal_space, equal_counters


def claims_table(config: BenchConfig, backend: str = "dict") -> ResultTable:
    """The Section 4.3 in-text claims: measured ratio ranges vs the paper's."""
    records = _four_algorithm_sweep(config, backend)
    equal_space = [r for r in records if r["panel"] == "equal_space"]

    def ratios(numerator: str, denominator: str, column: str) -> list[float]:
        values = []
        for k in config.k_values:
            top = next(
                r[column] for r in equal_space if r["algorithm"] == numerator and r["k"] == k
            )
            bottom = next(
                r[column] for r in equal_space if r["algorithm"] == denominator and r["k"] == k
            )
            if bottom:
                values.append(top / bottom)
        return values

    table = ResultTable(
        "Section 4.3 claims: equal-space ratio ranges (measured vs paper)",
        ["claim", "paper_range", "measured_min", "measured_max"],
    )
    claims = [
        ("MHE time / SMED time", "5.5x - 8.7x", ratios("MHE", "SMED", "seconds")),
        ("SMIN time / SMED time", "6.5x - 30x", ratios("SMIN", "SMED", "seconds")),
        ("RBMC time / SMED time", "20x - 70x", ratios("RBMC", "SMED", "seconds")),
        ("SMED err / MHE err", "1.18x - 1.29x", ratios("SMED", "MHE", "max_error")),
        ("SMED err / SMIN err", "<= 2.5x", ratios("SMED", "SMIN", "max_error")),
        ("MHE err / SMIN err", "1.6x - 1.8x", ratios("MHE", "SMIN", "max_error")),
        ("RBMC time / SMIN time", "~2x", ratios("RBMC", "SMIN", "seconds")),
    ]
    for name, paper_range, values in claims:
        table.add_row(
            claim=name,
            paper_range=paper_range,
            measured_min=min(values) if values else float("nan"),
            measured_max=max(values) if values else float("nan"),
        )
    return table


def fig3_quantile_tradeoff(
    config: BenchConfig, backend: str = "dict"
) -> ResultTable:
    """Figure 3: time and max error vs the decrement quantile, per k."""
    stream = packet_stream(config)
    exact = packet_exact(config)
    table = ResultTable(
        "Figure 3: decrement-quantile tradeoff (0 = SMIN, 50 = SMED)",
        ["k", "quantile_pct", "seconds", "max_error", "decrements"],
    )
    # The paper sweeps every k; two mid-range k keep the quick scale fast.
    for k in config.k_values[-2:]:
        for percent in config.quantiles:
            sketch = make_quantile_variant(
                k, percent / 100.0, seed=config.seed, backend=backend
            )
            seconds = time_feed(sketch, stream)
            table.add_row(
                k=k,
                quantile_pct=percent,
                seconds=seconds,
                max_error=max_error(sketch, exact),
                decrements=sketch.stats.decrements,
            )
    return table


def fig4_merge(config: BenchConfig, backend: str = "dict") -> ResultTable:
    """Figure 4: merge throughput of Algorithm 5 vs the prior procedures.

    ``config.merge_pairs`` sketch pairs are filled from the Section 4.5
    workload (Zipf alpha = 1.05 identifiers, weights uniform on
    [1, 10000]) and merged with each procedure; inputs are copied outside
    the timed region so every procedure sees identical operands.
    """
    table = ResultTable(
        "Figure 4: merge speed (50 pairs in the paper; "
        f"{config.merge_pairs} here)",
        [
            "k",
            "procedure",
            "seconds",
            "merges_per_sec",
            "mean_max_error",
            "scratch_bytes",
        ],
    )
    for k in config.k_values:
        pairs = []
        exacts = []
        updates_per_sketch = config.merge_updates_per_sketch_factor * k
        for pair_index in range(config.merge_pairs):
            sketches = []
            pair_exact = ExactCounter()
            for side in range(2):
                seed = config.seed + 1000 * pair_index + side
                stream = zipf_weighted_stream(
                    updates_per_sketch, universe=50 * k, alpha=1.05, seed=seed
                )
                sketch = make_smed(k, seed=seed, backend=backend)
                feed_stream(sketch, stream)
                pair_exact.update_all(stream)
                sketches.append(sketch)
            pairs.append(tuple(sketches))
            exacts.append(pair_exact)

        procedures: list[tuple[str, Callable]] = [
            ("ours(Alg5)", None),
            ("Hoa61", hoa61_merge),
            ("ACH+13", ach13_merge),
        ]
        for name, procedure in procedures:
            if procedure is None:
                # Algorithm 5 mutates its left operand: copy outside timing.
                operands = [(a.copy(), b) for a, b in pairs]
                start = time.perf_counter()
                merged = [a.merge(b) for a, b in operands]
                seconds = time.perf_counter() - start
            else:
                start = time.perf_counter()
                merged = [procedure(a, b) for a, b in pairs]
                seconds = time.perf_counter() - start
            errors = [
                max_error(result, exact) for result, exact in zip(merged, exacts)
            ]
            table.add_row(
                k=k,
                procedure=name,
                seconds=seconds,
                merges_per_sec=len(pairs) / seconds if seconds else float("inf"),
                mean_max_error=sum(errors) / len(errors),
                scratch_bytes=merge_scratch_bytes(
                    "ours" if procedure is None else name.replace("+", "").lower(), k
                ),
            )
    return table


def space_table(
    k_values: tuple[int, ...] = (1024, 3072, 4096, 12288, 16384, 49152)
) -> ResultTable:
    """The Section 2.3.3 / 4.3 / 4.5 space accounting.

    The paper's exact "24k bytes" holds when ``4k/3`` is a power of two
    (k = 3 * 2^m, e.g. 3072, 12288, 49152 — and the paper's own 24,576);
    other k pay the next-power-of-two rounding, which the table shows.
    """
    table = ResultTable(
        "Space models (bytes): sketch footprints and merge scratch",
        ["k", "smed_smin_rbmc", "med", "mhe", "ssl", "bytes_per_counter_ours",
         "merge_scratch_ours", "merge_scratch_prior"],
    )
    for k in k_values:
        ours = space_model_bytes("smed", k)
        table.add_row(
            k=k,
            smed_smin_rbmc=ours,
            med=space_model_bytes("med", k),
            mhe=space_model_bytes("mhe", k),
            ssl=space_model_bytes("ssl", k),
            bytes_per_counter_ours=ours / k,
            merge_scratch_ours=merge_scratch_bytes("ours", k),
            merge_scratch_prior=merge_scratch_bytes("ach13", k),
        )
    return table


def context_table(config: BenchConfig) -> ResultTable:
    """Counter-based vs sketch/quantile classes (the Section 1.3 premise).

    Every competitor gets (approximately) the byte budget of SMED at the
    middle k of the sweep.
    """
    stream = packet_stream(config)
    exact = packet_exact(config)
    k = config.k_values[len(config.k_values) // 2]
    budget = space_model_bytes("smed", k)

    smed = make_smed(k, seed=config.seed)
    # CountMin/CountSketch: depth 5, width to fill the same budget.
    depth = 5
    width = 1
    while 8 * depth * (width * 2) <= budget:
        width *= 2
    competitors = [
        ("SMED (counter)", smed),
        ("CountMin (sketch)", CountMinSketch(depth, width, seed=config.seed)),
        ("CountMin-CU (sketch)", CountMinSketch(depth, width, seed=config.seed, conservative=True)),
        ("CountSketch (sketch)", CountSketch(depth, width, seed=config.seed)),
        ("LossyCounting (quantile)", LossyCounting(epsilon=1.0 / k)),
    ]
    table = ResultTable(
        f"Context: algorithm classes at ~{budget:,} bytes (k={k} for SMED)",
        ["algorithm", "seconds", "max_error", "space_bytes"],
    )
    for name, algorithm in competitors:
        seconds = time_feed(algorithm, stream)
        space = (
            algorithm.space_bytes()
            if hasattr(algorithm, "space_bytes")
            else budget
        )
        table.add_row(
            algorithm=name,
            seconds=seconds,
            max_error=max_error(algorithm, exact),
            space_bytes=space,
        )
    return table


def ablation_policies(config: BenchConfig, backend: str = "dict") -> ResultTable:
    """Decrement-policy ablation: SMED vs MED vs global-min vs RAP."""
    stream = packet_stream(config)
    exact = packet_exact(config)
    k = config.k_values[len(config.k_values) // 2]
    algorithms = [
        ("SMED (sampled median)", make_smed(k, seed=config.seed, backend=backend)),
        ("MED (exact k/2-th)", make_med(k, seed=config.seed, backend=backend)),
        (
            "GMIN (exact min)",
            FrequentItemsSketch(k, policy=GlobalMinPolicy(), backend=backend, seed=config.seed),
        ),
        ("RAP (sampled-min takeover)", RandomAdmissionSpaceSaving(k, sample_size=2, seed=config.seed)),
    ]
    table = ResultTable(
        f"Ablation: decrement policy at k={k}",
        ["policy", "seconds", "max_error", "decrements", "scan_per_update"],
    )
    for name, algorithm in algorithms:
        seconds = time_feed(algorithm, stream)
        table.add_row(
            policy=name,
            seconds=seconds,
            max_error=max_error(algorithm, exact),
            decrements=algorithm.stats.decrements,
            scan_per_update=algorithm.stats.amortized_scan_cost(),
        )
    return table


def ablation_sample_size(config: BenchConfig, backend: str = "dict") -> ResultTable:
    """Sample-size (ℓ) ablation for the SMED estimator (Section 2.3.2)."""
    stream = packet_stream(config)
    exact = packet_exact(config)
    k = config.k_values[-1]
    table = ResultTable(
        f"Ablation: sample size ell at k={k} (paper fixes ell=1024)",
        ["ell", "seconds", "max_error", "decrements"],
    )
    for ell in (8, 32, 128, 512, 1024):
        sketch = FrequentItemsSketch(
            k,
            policy=SampleQuantilePolicy(0.5, ell),
            backend=backend,
            seed=config.seed,
        )
        seconds = time_feed(sketch, stream)
        table.add_row(
            ell=ell,
            seconds=seconds,
            max_error=max_error(sketch, exact),
            decrements=sketch.stats.decrements,
        )
    return table


def ablation_backend(config: BenchConfig) -> ResultTable:
    """Counter-store backend ablation: Section 2.3.3 table vs builtin dict."""
    stream = packet_stream(config)
    exact = packet_exact(config)
    table = ResultTable(
        "Ablation: probing table (paper layout) vs CPython dict",
        ["backend", "k", "seconds", "max_error", "probes_per_update"],
    )
    for k in config.k_values[-2:]:
        for backend in ("probing", "dict"):
            sketch = make_smed(k, seed=config.seed, backend=backend)
            seconds = time_feed(sketch, stream)
            probes = (
                sketch._store.probe_count / len(stream)
                if backend != "dict"
                else float("nan")
            )
            table.add_row(
                backend=backend,
                k=k,
                seconds=seconds,
                max_error=max_error(sketch, exact),
                probes_per_update=probes,
            )
    return table


def batch_throughput_table(config: BenchConfig) -> ResultTable:
    """Scalar vs batched ingestion across counter-store backends.

    The Section 4.5 Zipf workload (α = 1.05, weights U[1, 10000]) is fed
    to the paper's sketch twice per backend — once through the per-item
    ``update`` loop, once through ``update_batch`` on the same array
    batches — and the resulting state is asserted identical, so the
    table measures packaging, not semantics.  ``batch_speedup`` is the
    per-backend batch/scalar throughput ratio; ``vs_best_scalar``
    compares the batch path against the *fastest scalar backend*, the
    honest headline number.
    """
    batches = zipf_weighted_batches(
        config.num_updates, config.unique_sources, 1.05, config.seed
    )
    stream = zipf_weighted_stream(
        config.num_updates, config.unique_sources, 1.05, config.seed
    )
    n = num_batched_updates(batches)
    k = config.k_values[-1]
    # Warm-up: one small feed per path pulls NumPy's lazily imported
    # submodules (np.insert -> numpy.ma, ...) out of the timed regions.
    warm_items, warm_weights = batches[0]
    warmup = FrequentItemsSketch(max(2, k // 8), seed=0)
    warmup.update_batch(warm_items[:256], warm_weights[:256])
    table = ResultTable(
        f"Batch ingestion engine: scalar vs batched updates/sec "
        f"(Zipf 1.05, k={k})",
        [
            "backend", "k", "scalar_sec", "batch_sec",
            "scalar_per_sec", "batch_per_sec", "batch_speedup",
            "vs_best_scalar",
        ],
    )
    results = []
    for backend in ("probing", "dict"):
        scalar = FrequentItemsSketch(k, backend=backend, seed=config.seed)
        scalar_seconds = time_feed(scalar, stream)
        batched = FrequentItemsSketch(k, backend=backend, seed=config.seed)
        batch_seconds = time_feed_batches(batched, batches)
        if scalar.to_bytes() != batched.to_bytes():  # pragma: no cover
            raise AssertionError(
                f"scalar/batch divergence on backend {backend!r}"
            )
        results.append((backend, scalar_seconds, batch_seconds))
    best_scalar = min(seconds for _backend, seconds, _batch in results)
    for backend, scalar_seconds, batch_seconds in results:
        table.add_row(
            backend=backend,
            k=k,
            scalar_sec=scalar_seconds,
            batch_sec=batch_seconds,
            scalar_per_sec=n / scalar_seconds,
            batch_per_sec=n / batch_seconds,
            batch_speedup=scalar_seconds / batch_seconds,
            vs_best_scalar=best_scalar / batch_seconds,
        )
    return table


def decay_throughput_table(config: BenchConfig) -> ResultTable:
    """Kernel-routed batch ingest vs the scalar loop for the engine consumers.

    The two time-aware consumers of the shared engine — the sliding
    window (one kernel per slice) and the exponential time-fading sketch
    (decay schedule over one kernel) — are fed the Section 4.5 Zipf
    workload twice per backend: once through their per-item ``update``
    loop and once through the kernel's segmented ``update_batch`` path,
    with the slice/tick boundary placed at every batch in both runs.
    Final kernel state is asserted identical, so ``batch_speedup``
    measures packaging, not semantics.  The acceptance gate (enforced in
    ``benchmarks/bench_decay_throughput.py``) is >= 3x on the probing
    backend for both consumers.
    """
    import numpy as np

    from repro.extensions.decayed import DecayedFrequentItemsSketch
    from repro.extensions.windowed import SlidingWindowHeavyHitters

    source = zipf_weighted_batches(
        config.num_updates, config.unique_sources, 1.05, config.seed
    )
    # Re-chunk the workload into 8 time slices so the slice/tick
    # boundaries genuinely interleave with ingest at every scale.
    all_items = np.concatenate([items for items, _weights in source])
    all_weights = np.concatenate([weights for _items, weights in source])
    slice_len = max(1, len(all_items) // 8)
    batches = [
        (all_items[start : start + slice_len],
         all_weights[start : start + slice_len])
        for start in range(0, len(all_items), slice_len)
    ]
    # The scalar loops consume pre-materialized Python pairs — the same
    # methodology as the batch table's feed_stream — so timings measure
    # sketch work, not NumPy scalar-boxing overhead.
    scalar_slices = [
        list(zip(items.tolist(), weights.tolist())) for items, weights in batches
    ]
    n = num_batched_updates(batches)
    k = config.k_values[-1]
    # Warm-up pulls NumPy's lazily imported submodules out of the timed
    # regions.
    warmup = DecayedFrequentItemsSketch(max(2, k // 8), half_life=1.0, seed=0)
    warmup.update_batch(all_items[:256], all_weights[:256])

    def windowed_pair(backend: str):
        return (
            SlidingWindowHeavyHitters(k, 4, backend=backend, seed=config.seed),
            SlidingWindowHeavyHitters(k, 4, backend=backend, seed=config.seed),
        )

    def decayed_pair(backend: str):
        # A whole half-life per tick keeps the ingest scale a power of
        # two, so scaled weights stay exactly representable and the
        # scalar/batch equality check below is exact at any scale.
        return (
            DecayedFrequentItemsSketch(
                k, half_life=1.0, backend=backend, seed=config.seed
            ),
            DecayedFrequentItemsSketch(
                k, half_life=1.0, backend=backend, seed=config.seed
            ),
        )

    def boundary(consumer) -> None:
        if isinstance(consumer, SlidingWindowHeavyHitters):
            consumer.advance()
        else:
            consumer.tick()

    def final_kernel(consumer):
        if isinstance(consumer, SlidingWindowHeavyHitters):
            return consumer.window_kernel()
        return consumer.kernel

    table = ResultTable(
        f"Engine consumers: scalar vs kernel-batched updates/sec "
        f"(Zipf 1.05, k={k})",
        [
            "consumer", "backend", "k", "scalar_sec", "batch_sec",
            "scalar_per_sec", "batch_per_sec", "batch_speedup",
        ],
    )
    for name, make_pair in (("windowed", windowed_pair), ("decayed", decayed_pair)):
        for backend in ("probing", "dict"):
            scalar, batched = make_pair(backend)
            start = time.perf_counter()
            for slice_updates in scalar_slices:
                update = scalar.update
                for item, weight in slice_updates:
                    update(item, weight)
                boundary(scalar)
            scalar_seconds = time.perf_counter() - start
            start = time.perf_counter()
            for items, weights in batches:
                batched.update_batch(items, weights)
                boundary(batched)
            batch_seconds = time.perf_counter() - start
            kernel_a = final_kernel(scalar)
            kernel_b = final_kernel(batched)
            same = (
                kernel_a.offset == kernel_b.offset
                and kernel_a.stream_weight == kernel_b.stream_weight
                and list(kernel_a.store.items()) == list(kernel_b.store.items())
            )
            if not same:  # pragma: no cover
                raise AssertionError(
                    f"scalar/batch divergence: {name} on backend {backend!r}"
                )
            table.add_row(
                consumer=name,
                backend=backend,
                k=k,
                scalar_sec=scalar_seconds,
                batch_sec=batch_seconds,
                scalar_per_sec=n / scalar_seconds,
                batch_per_sec=n / batch_seconds,
                batch_speedup=scalar_seconds / batch_seconds,
            )
    return table


def ablation_merge_order(config: BenchConfig) -> ResultTable:
    """The Section 3.2 note: random-order vs in-order merge iteration.

    Two probing-backend sketches *sharing a hash seed* are merged with
    the counters fed in table order vs shuffled; the table reports probe
    counts and the destination table's maximum probe distance.
    """
    k = config.k_values[-1]
    updates = config.merge_updates_per_sketch_factor * k
    table = ResultTable(
        f"Ablation: merge iteration order, shared hash seed, k={k}",
        ["order", "probes", "max_probe_state", "seconds"],
    )
    for order in ("in-order", "random"):
        left = make_smed(k, seed=config.seed, backend="probing")
        right = make_smed(k, seed=config.seed, backend="probing")
        feed_stream(
            left,
            zipf_weighted_stream(updates, universe=50 * k, alpha=1.05, seed=config.seed + 1),
        )
        feed_stream(
            right,
            zipf_weighted_stream(updates, universe=50 * k, alpha=1.05, seed=config.seed + 2),
        )
        left._store.probe_count = 0
        start = time.perf_counter()
        if order == "random":
            left.merge(right)
        else:
            for item, count in list(right._store.items()):
                left._ingest(item, count)
            left._offset += right.maximum_error
            left._stream_weight += right.stream_weight
        seconds = time.perf_counter() - start
        table.add_row(
            order=order,
            probes=left._store.probe_count,
            max_probe_state=left._store.max_state(),
            seconds=seconds,
        )
    return table


def adversarial_table(config: BenchConfig, backend: str = "dict") -> ResultTable:
    """The Section 1.3.4 separation: RBMC's worst case vs SMED.

    On the constructed stream (k huge items, then a long run of fresh
    unit items) RBMC executes a Θ(k) decrement pass on *every* unit
    update, while SMED's sampled-median decrement keeps passes ≥ k/3
    updates apart (Theorem 3).  The table reports decrement passes,
    total counters scanned, and wall time for both, per k.
    """
    table = ResultTable(
        "Section 1.3.4 adversarial stream: RBMC pathology vs SMED",
        [
            "k",
            "algorithm",
            "seconds",
            "decrements",
            "decrements_per_update",
            "counters_scanned",
        ],
    )
    for k in config.k_values:
        tail = max(10 * k, 4_000)
        stream = list(rbmc_killer_stream(k, heavy_weight=1e6, num_unit_updates=tail))
        for name in ("RBMC", "SMED"):
            algorithm = make_algorithm(name, k, seed=config.seed, backend=backend)
            seconds = time_feed(algorithm, stream)
            table.add_row(
                k=k,
                algorithm=name,
                seconds=seconds,
                decrements=algorithm.stats.decrements,
                decrements_per_update=algorithm.stats.decrements_per_update(),
                counters_scanned=algorithm.stats.counters_scanned,
            )
    return table


def bounds_table(config: BenchConfig, backend: str = "dict") -> ResultTable:
    """Theorem 2/4 tail bounds measured across workload shapes."""
    k = config.k_values[len(config.k_values) // 2]
    workloads = [
        ("caida-like", packet_stream(config)),
        (
            "zipf1.05-weighted",
            zipf_weighted_stream(
                config.num_updates // 2, universe=20 * k, alpha=1.05, seed=config.seed
            ),
        ),
        (
            "uniform-weighted",
            uniform_weighted_stream(
                config.num_updates // 2, universe=20 * k, seed=config.seed
            ),
        ),
        (
            "rbmc-killer",
            list(rbmc_killer_stream(k, 10_000.0, config.num_updates // 2)),
        ),
    ]
    table = ResultTable(
        f"Theorem 4 check at k={k}: observed max underestimate vs N^res(j)/(k/3 - j)",
        ["workload", "observed", "bound_j0", "bound_j_k8", "holds"],
    )
    for name, stream in workloads:
        sketch = make_smed(k, seed=config.seed, backend=backend)
        exact = ExactCounter()
        for item, weight in stream:
            sketch.update(item, weight)
            exact.update(item, weight)
        observed = max_underestimate(sketch, exact)
        k_star = k / 3.0
        j = k // 8
        bound0 = exact.residual_weight(0) / k_star
        bound_j = exact.residual_weight(j) / (k_star - j)
        table.add_row(
            workload=name,
            observed=observed,
            bound_j0=bound0,
            bound_j_k8=bound_j,
            holds=observed <= min(bound0, bound_j) + 1e-9,
        )
    return table


def sharded_throughput_table(config: BenchConfig) -> ResultTable:
    """Sharded parallel ingest vs the flat probing backend.

    The Section 4.5 Zipf workload is fed once through the flat probing
    ``update_batch`` path and once per shard count through
    :class:`~repro.sharded.sketch.ShardedFrequentItemsSketch`.  The
    sketch is sized like a deployment — ``k`` within a small factor of
    the distinct-key count — the regime where a single table overflows
    (decrement passes chop every batch into segments) while each shard's
    key subset fits its own ``k`` counters, so sharding removes the
    passes *and* spreads the remaining vector work across the pool.
    Each configuration is timed as the best of three feeds (fresh sketch
    per feed) to damp scheduler noise; ``decrements`` carries the
    hardware-independent explanation for the speedup.
    """
    from repro.sharded.sketch import ShardedFrequentItemsSketch

    batches = zipf_weighted_batches(
        config.num_updates, config.unique_sources, 1.05, config.seed
    )
    n = num_batched_updates(batches)
    k = 4 * config.k_values[-1]
    # Warm-up pulls NumPy's lazily imported submodules and the thread
    # pool machinery out of the timed regions.
    warm_items, warm_weights = batches[0]
    with ShardedFrequentItemsSketch(max(2, k // 8), num_shards=2, seed=0) as warm:
        warm.update_batch(warm_items[:256], warm_weights[:256])

    def best_of(feed: Callable[[], object], rounds: int = 3) -> tuple[float, object]:
        best_seconds, best_result = float("inf"), None
        for _round in range(rounds):
            start = time.perf_counter()
            result = feed()
            seconds = time.perf_counter() - start
            if seconds < best_seconds:
                best_seconds, best_result, result = seconds, result, best_result
            # Shut the discarded round's thread pool down promptly
            # instead of leaving it to garbage collection.
            close = getattr(result, "close", None)
            if close is not None:
                close()
        return best_seconds, best_result

    def feed_flat() -> FrequentItemsSketch:
        sketch = FrequentItemsSketch(k, seed=config.seed)
        for items, weights in batches:
            sketch.update_batch(items, weights)
        return sketch

    table = ResultTable(
        f"Sharded parallel ingest vs flat probing (Zipf 1.05, k={k})",
        [
            "mode", "shards", "k", "sec", "per_sec",
            "speedup_vs_flat", "decrements", "max_error",
        ],
    )
    flat_seconds, flat = best_of(feed_flat)
    table.add_row(
        mode="flat",
        shards=1,
        k=k,
        sec=flat_seconds,
        per_sec=n / flat_seconds,
        speedup_vs_flat=1.0,
        decrements=flat.stats.decrements,
        max_error=flat.maximum_error,
    )
    for num_shards in (1, 2, 4, 8):
        def feed_sharded(num_shards: int = num_shards) -> "ShardedFrequentItemsSketch":
            sketch = ShardedFrequentItemsSketch(
                k, num_shards=num_shards, seed=config.seed
            )
            for items, weights in batches:
                sketch.update_batch(items, weights)
            return sketch
        seconds, sketch = best_of(feed_sharded)
        table.add_row(
            mode="sharded",
            shards=num_shards,
            k=k,
            sec=seconds,
            per_sec=n / seconds,
            speedup_vs_flat=flat_seconds / seconds,
            decrements=sketch.stats.decrements,
            max_error=sketch.maximum_error,
        )
        sketch.close()
    return table


_PROFILE_ARRAY_CACHE: dict[tuple, tuple] = {}


def profile_arrays(config: BenchConfig, alpha: float):
    """The Section 4.5 Zipf workload as flat ``(items, weights)`` arrays.

    One materialization per ``(scale, alpha)`` — shared by the ingest
    profile below and the experiment-matrix runner
    (:mod:`repro.bench.matrix`), so every consumer times the identical
    update sequence instead of regenerating its own copy.
    """
    import numpy as np

    key = (config.num_updates, config.unique_sources, alpha, config.seed)
    if key not in _PROFILE_ARRAY_CACHE:
        stream = zipf_weighted_stream(
            config.num_updates, config.unique_sources, alpha, config.seed
        )
        all_items = np.array([item for item, _w in stream], dtype=np.uint64)
        all_weights = np.array([w for _item, w in stream], dtype=np.float64)
        _PROFILE_ARRAY_CACHE[key] = (all_items, all_weights)
    return _PROFILE_ARRAY_CACHE[key]


def ingest_profile_rows(
    config: BenchConfig,
    batch_sizes: tuple[int, ...] = (1_024, 4_096, 16_384),
    alphas: tuple[float, ...] = (0.8, 1.05, 1.3),
) -> list[dict]:
    """Row producer for the ingest profile: backend × batch size × skew.

    Each row carries scalar/batch/adaptive throughput for one cell; the
    scalar and batch states are asserted identical so the numbers
    measure packaging, not semantics.  ``ingest_profile_table`` renders
    these rows and derives the gate figures; the experiment-matrix
    runner reuses the same workload arrays via :func:`profile_arrays`.
    """
    k = config.k_values[-1]
    rows: list[dict] = []
    for alpha in alphas:
        stream = zipf_weighted_stream(
            config.num_updates, config.unique_sources, alpha, config.seed
        )
        n = len(stream)
        all_items, all_weights = profile_arrays(config, alpha)
        for backend in ("probing", "dict"):
            scalar = FrequentItemsSketch(k, backend=backend, seed=config.seed)
            scalar_seconds = time_feed(scalar, stream)
            scalar_blob = scalar.to_bytes()
            for batch in batch_sizes:
                batched = FrequentItemsSketch(k, backend=backend, seed=config.seed)
                start = time.perf_counter()
                for lo in range(0, n, batch):
                    batched.update_batch(
                        all_items[lo : lo + batch], all_weights[lo : lo + batch]
                    )
                batch_seconds = time.perf_counter() - start
                if batched.to_bytes() != scalar_blob:  # pragma: no cover
                    raise AssertionError(
                        f"scalar/batch divergence: backend={backend}, "
                        f"alpha={alpha}, batch={batch}"
                    )
                adaptive = FrequentItemsSketch(
                    k, backend=backend, seed=config.seed, growth="adaptive"
                )
                start = time.perf_counter()
                for lo in range(0, n, batch):
                    adaptive.update_batch(
                        all_items[lo : lo + batch], all_weights[lo : lo + batch]
                    )
                adaptive_seconds = time.perf_counter() - start
                rows.append(
                    {
                        "backend": backend,
                        "alpha": alpha,
                        "batch": batch,
                        "scalar_per_sec": n / scalar_seconds,
                        "batch_per_sec": n / batch_seconds,
                        "batch_speedup": scalar_seconds / batch_seconds,
                        "adaptive_per_sec": n / adaptive_seconds,
                    }
                )
    return rows


def ingest_profile_table(
    config: BenchConfig,
    json_path: str | None = None,
    batch_sizes: tuple[int, ...] = (1_024, 4_096, 16_384),
    alphas: tuple[float, ...] = (0.8, 1.05, 1.3),
) -> ResultTable:
    """Backend × batch-size × skew ingest profile (the perf trajectory).

    For every backend and Zipf skew the same update sequence is fed three
    ways — the scalar ``update`` loop, ``update_batch`` at each batch
    size, and ``update_batch`` on an adaptive-growth sketch — and the
    scalar/batch states are asserted identical so the numbers measure
    packaging, not semantics.  When ``json_path`` is given the full
    sweep (plus the gate figures the CI smoke job enforces: probing
    batch >= 4x its scalar loop on the canonical α = 1.05 workload,
    probing batch throughput recorded for cross-PR comparison) is
    written as one JSON document.
    """
    k = config.k_values[-1]
    # Warm-up pulls NumPy's lazily imported submodules out of timed code.
    # (The generated batches are cached and reused by the alpha = 1.05
    # iteration of the sweep below, so nothing is generated twice.)
    warmup = FrequentItemsSketch(max(2, k // 8), seed=0)
    warmup.update_batch(*zipf_weighted_batches(
        config.num_updates, config.unique_sources, 1.05, config.seed
    )[0])
    table = ResultTable(
        f"Ingest profile: backend x batch size x skew (k={k})",
        [
            "backend", "alpha", "batch", "scalar_per_sec", "batch_per_sec",
            "batch_speedup", "adaptive_per_sec",
        ],
    )
    rows = ingest_profile_rows(config, batch_sizes, alphas)
    for record in rows:
        table.add_row(**record)
    if json_path is not None:
        def best_speedup(backend: str) -> float:
            return max(
                row["batch_speedup"]
                for row in rows
                if row["backend"] == backend and row["alpha"] == 1.05
            )
        from repro import native
        from repro.bench.io import atomic_write_json

        document = {
            "bench": "ingest-profile",
            "k": k,
            "num_updates": config.num_updates,
            "unique_sources": config.unique_sources,
            "seed": config.seed,
            # Which ingest path produced these rows (native C kernels vs
            # NumPy fallback) — absolute rows are not comparable across
            # paths, so the provenance must travel with the numbers.
            "metadata": native.runtime_metadata(),
            "rows": rows,
            "gates": {
                "probing_batch_speedup_alpha1.05": best_speedup("probing"),
                "dict_batch_speedup_alpha1.05": best_speedup("dict"),
                "probing_batch_per_sec_alpha1.05": max(
                    row["batch_per_sec"]
                    for row in rows
                    if row["backend"] == "probing" and row["alpha"] == 1.05
                ),
            },
        }
        atomic_write_json(json_path, document)
    return table


#: Producer-side submission size for the service benchmarks.  The gate
#: suite (benchmarks/bench_serve_throughput.py) and the figure below
#: must measure the same configuration, so both import these.
SERVE_SUBMIT_SIZE = 8_192


def serve_workload(config: BenchConfig):
    """``(producer_slices, per_producer)`` — one producer's submission
    stream for the service benchmarks (shared with the gate suite)."""
    import numpy as np

    per_producer = max(config.num_updates, 150_000)
    base = zipf_weighted_batches(
        per_producer, config.unique_sources, 1.05, config.seed
    )
    items = np.concatenate([b[0] for b in base])[:per_producer]
    weights = np.concatenate([b[1] for b in base])[:per_producer]
    slices = [
        (items[lo : lo + SERVE_SUBMIT_SIZE], weights[lo : lo + SERVE_SUBMIT_SIZE])
        for lo in range(0, per_producer, SERVE_SUBMIT_SIZE)
    ]
    return slices, per_producer


def serve_pipeline_config():
    """The pipeline tuning the service benchmarks run (shared with the
    gate suite)."""
    from repro.service.pipeline import PipelineConfig

    return PipelineConfig(
        max_batch_items=16_384, flush_interval=0.005, max_pending_items=262_144
    )


#: Heartbeat miss window for the failover bench; the MTTR gate is
#: relative to it (recovery must land within five windows).  Shared
#: with benchmarks/bench_serve_throughput.py so the published figure
#: and the gate measure the same configuration.
FAILOVER_MISS_WINDOW = 0.5


def failover_mttr_metrics(seed: int = 2016) -> dict:
    """Kill-leader failover: detection latency and client-observed MTTR.

    A three-node replica set (leader + two followers, each with its own
    snapshot/WAL directory and a :class:`~repro.service.failover.
    FailoverCoordinator`) serves a retrying :class:`~repro.service.client.
    ServiceClient`.  Half the feed goes in, the leader is crash-killed,
    and the client keeps writing: the write-unavailability
    window (MTTR) is the gap between the kill and the first batch the
    *promoted* leader acknowledges, with detection latency read off the
    winner's coordinator instrumentation.

    The stream is an exact-count oracle (item universe far below the
    sketch's k, integer weights), so "no lost or duplicated updates
    across the failover" is asserted as estimate == exact count for
    every item — and the client's idempotent-resubmit count is asserted
    to be exactly one (the single in-flight frame the crash ate).
    """
    import asyncio
    import contextlib
    import shutil
    import tempfile

    import numpy as np

    from repro.service.client import RetryPolicy, ServiceClient
    from repro.service.failover import (
        EpochStore,
        FailoverConfig,
        FailoverCoordinator,
    )
    from repro.service.pipeline import IngestPipeline, PipelineConfig
    from repro.service.replication import (
        ReplicationConfig,
        ReplicationManager,
    )
    from repro.service.server import StreamServer
    from repro.service.snapshot import SnapshotManager

    universe = 60
    k = 256  # > universe: the sketch never decrements, estimates are exact
    num_batches, batch_size = 12, 4_096
    rng = np.random.default_rng(seed)
    all_items = rng.integers(0, universe, num_batches * batch_size).astype(
        np.uint64
    )
    all_weights = rng.integers(1, 9, num_batches * batch_size).astype(
        np.float64
    )
    batches = [
        (all_items[lo : lo + batch_size], all_weights[lo : lo + batch_size])
        for lo in range(0, len(all_items), batch_size)
    ]
    exact: dict[int, float] = {}
    for item, weight in zip(all_items.tolist(), all_weights.tolist()):
        exact[item] = exact.get(item, 0.0) + weight

    pipe_config = PipelineConfig(max_batch_items=8_192, flush_interval=0.002)
    repl_config = ReplicationConfig(
        retry=RetryPolicy(max_retries=400, backoff_initial=0.01, backoff_max=0.1),
        heartbeat_interval=0.1,
    )
    failover_config = FailoverConfig(
        heartbeat_miss_window=FAILOVER_MISS_WINDOW,
        check_interval=0.05,
        election_timeout=2.0,
        election_backoff=0.15,
        rpc_timeout=0.4,
        peer_poll_interval=0.2,
        jitter=0.5,
    )
    node_ids = ["n0", "n1", "n2"]
    root = tempfile.mkdtemp(prefix="repro-bench-failover-")

    async def scenario() -> dict:
        loop = asyncio.get_running_loop()
        pipelines: dict[str, IngestPipeline] = {}
        servers: dict[str, StreamServer] = {}
        coordinators: dict[str, FailoverCoordinator] = {}

        async def poll(predicate, timeout=30.0, message=""):
            deadline = loop.time() + timeout
            while not predicate():
                if loop.time() > deadline:
                    raise TimeoutError(message or "bench predicate timeout")
                await asyncio.sleep(0.01)

        for node_id in node_ids:
            pipelines[node_id] = IngestPipeline(
                FrequentItemsSketch(k, seed=seed),
                config=pipe_config,
                snapshots=SnapshotManager(f"{root}/{node_id}"),
                replication=ReplicationManager(repl_config),
                replica=(node_id != "n0"),
            )
            await pipelines[node_id].start()
            servers[node_id] = StreamServer(pipelines[node_id])
            await servers[node_id].start()
        addrs = {
            node_id: f"127.0.0.1:{servers[node_id].port}"
            for node_id in node_ids
        }
        for node_id in node_ids:
            coordinator = FailoverCoordinator(
                node_id,
                pipelines[node_id],
                self_addr=addrs[node_id],
                peers={p: a for p, a in addrs.items() if p != node_id},
                leader_id=None if node_id == "n0" else "n0",
                leader_addr=None if node_id == "n0" else addrs["n0"],
                epoch_store=EpochStore(f"{root}/{node_id}"),
                repl_config=repl_config,
                config=failover_config,
            )
            servers[node_id].coordinator = coordinator
            coordinators[node_id] = await coordinator.start()

        client = ServiceClient(
            "127.0.0.1", servers["n0"].port,
            peers=[addrs["n1"], addrs["n2"]],
            retry=RetryPolicy(max_retries=400, backoff_initial=0.01, backoff_max=0.05),
        )
        try:
            half = num_batches // 2
            for items, weights in batches[:half]:
                await client.send_batch(items, weights)
            await poll(
                lambda: pipelines["n0"].pending_items == 0,
                message="pre-kill backlog never drained",
            )
            pre_kill_seq = pipelines["n0"].applied_seq
            await poll(
                lambda: all(
                    pipelines[n].applied_seq >= pre_kill_seq
                    for n in ("n1", "n2")
                ),
                message="followers never caught up before the kill",
            )

            killed_at = loop.time()
            await coordinators["n0"].stop()
            await servers["n0"].stop()
            with contextlib.suppress(Exception):
                await pipelines["n0"].stop(final_snapshot=False)

            # The client keeps writing; the first post-kill ack marks the
            # end of the write-unavailability window.
            items, weights = batches[half]
            await client.send_batch(items, weights)
            first_ack_at = loop.time()
            for items, weights in batches[half + 1 :]:
                await client.send_batch(items, weights)

            (winner_id,) = [
                n for n in ("n1", "n2") if not pipelines[n].is_replica
            ]
            survivor_id = "n1" if winner_id == "n2" else "n2"
            winner = coordinators[winner_id]
            leader_pipe = pipelines[winner_id]
            await poll(
                lambda: leader_pipe.pending_items == 0,
                message="post-failover backlog never drained",
            )
            await poll(
                lambda: (
                    pipelines[survivor_id].applied_seq
                    == leader_pipe.applied_seq
                ),
                message="survivor never caught up to the new leader",
            )

            # Exactly-once across the failover: the oracle is exact.
            lost = sum(
                1 for item, count in exact.items()
                if leader_pipe.estimate(item) != count
            )
            exactly_once = lost == 0 and (
                leader_pipe.sketch.stream_weight == float(all_weights.sum())
            )
            byte_identical = (
                pipelines[survivor_id].sketch.to_bytes()
                == leader_pipe.sketch.to_bytes()
            )
            return {
                "nodes": len(node_ids),
                "heartbeat_interval": repl_config.heartbeat_interval,
                "heartbeat_miss_window": failover_config.heartbeat_miss_window,
                "updates": int(all_items.size),
                "new_leader": winner_id,
                "epoch": leader_pipe.epoch,
                "elections_won": winner.elections_won,
                "detection_seconds": (
                    (winner.last_detection_at or killed_at) - killed_at
                ),
                "election_seconds": (
                    (winner.promoted_at or killed_at) - killed_at
                ),
                "mttr_seconds": first_ack_at - killed_at,
                "client_reconnects": client.reconnects,
                "client_redirects": client.redirects,
                "client_resubmits": client.resubmits,
                "exactly_once": exactly_once,
                "survivor_byte_identical": byte_identical,
                "gate_mttr_max_seconds": (
                    5.0 * failover_config.heartbeat_miss_window
                ),
            }
        finally:
            await client.close()
            for node_id in node_ids:
                if coordinators.get(node_id) is not None:
                    with contextlib.suppress(Exception):
                        await coordinators[node_id].stop()
                with contextlib.suppress(Exception):
                    await servers[node_id].stop()
                with contextlib.suppress(Exception):
                    await pipelines[node_id].stop(final_snapshot=False)

    try:
        return asyncio.run(scenario())
    finally:
        shutil.rmtree(root, ignore_errors=True)


def serve_throughput_table(
    config: BenchConfig, json_path: str | None = None
) -> ResultTable:
    """Sustained ingest-service throughput under concurrent producers.

    The Section 4.5 Zipf workload is pushed through the asyncio
    :class:`~repro.service.pipeline.IngestPipeline` by concurrent
    producer coroutines submitting array batches; the timed region spans
    first submit to full drain, so the figure is *applied* updates/sec,
    queue overhead included.  The configurations:

    * ``pipeline-1p`` / ``pipeline-4p`` — flat probing sketch, 1 vs 4
      producers (the 4-producer row is the CI gate: >= 1M updates/sec).
    * ``pipeline-4p-sharded`` — the 4-shard sketch behind the pipeline.
    * ``pipeline-4p-wal`` — durability on: every micro-batch WAL-logged
      and periodic snapshots, measuring the write-ahead overhead.
    * ``pipeline-4p-repl`` — a live follower subscribed over TCP: the
      timed region ends when the *replica* has applied the leader's last
      micro-batch, so the figure is replicated (not just local)
      throughput; the follower's blob is asserted byte-identical.
    * ``pipeline-4p-repl2`` — the same with a leader + **2** followers:
      the fan-out cost of each additional subscriber.
    * ``tcp-bin`` — end to end over a loopback socket with the binary
      frame protocol (one client, request/response per 8k-update frame).
    * ``cluster-1w`` / ``cluster-4w`` — the multi-process tenant cluster
      (:mod:`repro.service.cluster`): 4 tenants fed round-robin through
      a :class:`~repro.service.cluster.WorkerPool` of 1 vs 4 worker
      processes over zero-copy shared-memory frames.  Their ratio is the
      scale-out figure, recorded in the JSON ``cluster`` block and gated
      (>= 2.5x) on runners with at least 4 cores.

    The single-producer run is asserted bit-identical to a direct
    ``update_batch`` feed — the service may only repackage, not change,
    the stream.

    When ``json_path`` is given the document also carries a ``failover``
    block from :func:`failover_mttr_metrics` — detection latency and
    client-observed MTTR for a kill-leader failover, gated (<= 5x the
    heartbeat miss window) in ``benchmarks/bench_serve_throughput.py``.
    """
    import asyncio
    import shutil
    import tempfile

    import numpy as np

    from repro.service.client import ServiceClient
    from repro.service.pipeline import IngestPipeline
    from repro.service.server import StreamServer
    from repro.service.snapshot import SnapshotManager
    from repro.sharded.sketch import ShardedFrequentItemsSketch

    k = config.k_values[-1]
    # The service amortizes per-batch overhead; give each producer enough
    # stream to measure steady state even at the quick scale.
    producer_slices, per_producer = serve_workload(config)
    pipe_config = serve_pipeline_config()

    async def run_pipeline(sketch, num_producers, snapshots=None):
        pipeline = IngestPipeline(
            sketch, config=pipe_config, snapshots=snapshots
        )
        async with pipeline:
            async def producer():
                for part_items, part_weights in producer_slices:
                    await pipeline.submit(part_items, part_weights)

            start = time.perf_counter()
            await asyncio.gather(*(producer() for _ in range(num_producers)))
            await pipeline.drain()
            seconds = time.perf_counter() - start
        return seconds, num_producers * per_producer, pipeline

    async def run_replicated(num_producers, num_followers=1):
        from contextlib import AsyncExitStack

        from repro.service.replication import FollowerService, ReplicationManager

        leader = IngestPipeline(
            FrequentItemsSketch(k, seed=config.seed),
            config=pipe_config,
            replication=ReplicationManager(),
        )
        async with AsyncExitStack() as stack:
            await stack.enter_async_context(leader)
            server = await stack.enter_async_context(StreamServer(leader))
            followers = []
            for _ in range(num_followers):
                follower_pipe = IngestPipeline(
                    FrequentItemsSketch(k, seed=config.seed),
                    config=pipe_config,
                    replica=True,
                )
                await stack.enter_async_context(follower_pipe)
                follower = FollowerService(
                    follower_pipe, "127.0.0.1", server.port
                )
                await follower.start()
                followers.append((follower_pipe, follower))

            async def producer():
                for part_items, part_weights in producer_slices:
                    await leader.submit(part_items, part_weights)

            start = time.perf_counter()
            await asyncio.gather(
                *(producer() for _ in range(num_producers))
            )
            await leader.drain()
            # The clock stops when the *slowest replica* is caught up:
            # the figure is fully-fanned-out (not just local) throughput.
            for _pipe, follower in followers:
                await follower.wait_for_seq(leader.applied_seq, timeout=120.0)
            seconds = time.perf_counter() - start
            leader_blob = leader.sketch.to_bytes()
            for follower_pipe, _follower in followers:
                if follower_pipe.sketch.to_bytes() != leader_blob:
                    raise AssertionError(  # pragma: no cover
                        "replica diverged from the leader mid-benchmark"
                    )
            detail = {
                "followers": num_followers,
                "frames_applied": followers[0][1].frames_applied,
                "snapshots_installed": followers[0][1].snapshots_installed,
                "reconnects": sum(f.reconnects for _p, f in followers),
                "follower_seq": followers[0][0].applied_seq,
                "byte_identical": True,
            }
            for _pipe, follower in followers:
                await follower.stop()
        return seconds, num_producers * per_producer, leader, detail

    async def run_tcp(sketch):
        pipeline = IngestPipeline(sketch, config=pipe_config)
        async with pipeline:
            server = StreamServer(pipeline)
            async with server:
                client = await ServiceClient.connect("127.0.0.1", server.port)
                start = time.perf_counter()
                for part_items, part_weights in producer_slices:
                    await client.send_batch(part_items, part_weights)
                await pipeline.drain()
                seconds = time.perf_counter() - start
                await client.close()
        return seconds, per_producer, pipeline

    async def run_cluster(num_workers, num_tenants=4):
        """Multi-process cluster: round-robin tenants, applied upd/s."""
        from repro.service.cluster import ClusterConfig, WorkerPool

        cluster_config = ClusterConfig(
            num_workers=num_workers,
            default_k=k,
            default_seed=config.seed,
        )
        async with WorkerPool(cluster_config) as pool:
            tenants = [f"bench-t{i}" for i in range(num_tenants)]
            for name in tenants:
                await pool.create_tenant(name)

            async def producer(name):
                for part_items, part_weights in producer_slices:
                    await pool.submit(name, part_items, part_weights)

            start = time.perf_counter()
            await asyncio.gather(*(producer(name) for name in tenants))
            await pool.drain()
            seconds = time.perf_counter() - start
            stats = pool.stats()
        return seconds, num_tenants * per_producer, stats

    # Warm-up (numpy lazy imports + asyncio machinery out of timed code).
    async def warm_up():
        warm = FrequentItemsSketch(max(2, k // 8), seed=0)
        pipeline = IngestPipeline(warm, config=pipe_config)
        warm_items, warm_weights = producer_slices[0]
        async with pipeline:
            await pipeline.submit(warm_items[:256], warm_weights[:256])
            await pipeline.drain()

    asyncio.run(warm_up())

    table = ResultTable(
        f"Streaming service: sustained applied updates/sec (Zipf 1.05, k={k})",
        [
            "mode", "producers", "updates", "seconds", "updates_per_sec",
            "micro_batches", "wal_bytes",
        ],
    )
    rows: list[dict] = []

    def record(mode, producers, seconds, total, pipeline):
        stats = pipeline.stats
        row = {
            "mode": mode,
            "producers": producers,
            "updates": total,
            "seconds": seconds,
            "updates_per_sec": total / seconds,
            "micro_batches": stats.applied_batches,
            "wal_bytes": stats.wal_bytes,
        }
        rows.append(row)
        table.add_row(**row)

    # pipeline-1p, asserted bit-identical to the direct feed.
    sketch = FrequentItemsSketch(k, seed=config.seed)
    seconds, total, pipeline = asyncio.run(run_pipeline(sketch, 1))
    reference = FrequentItemsSketch(k, seed=config.seed)
    for part_items, part_weights in producer_slices:
        reference.update_batch(part_items, part_weights)
    if sketch.to_bytes() != reference.to_bytes():  # pragma: no cover
        raise AssertionError("service feed diverged from direct update_batch")
    record("pipeline-1p", 1, seconds, total, pipeline)

    sketch = FrequentItemsSketch(k, seed=config.seed)
    seconds, total, pipeline = asyncio.run(run_pipeline(sketch, 4))
    record("pipeline-4p", 4, seconds, total, pipeline)

    sharded = ShardedFrequentItemsSketch(
        k, num_shards=4, seed=config.seed
    )
    seconds, total, pipeline = asyncio.run(run_pipeline(sharded, 4))
    sharded.close()
    record("pipeline-4p-sharded", 4, seconds, total, pipeline)

    wal_dir = tempfile.mkdtemp(prefix="repro-bench-wal-")
    try:
        sketch = FrequentItemsSketch(k, seed=config.seed)
        seconds, total, pipeline = asyncio.run(
            run_pipeline(sketch, 4, snapshots=SnapshotManager(wal_dir))
        )
        record("pipeline-4p-wal", 4, seconds, total, pipeline)
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)

    seconds, total, pipeline, replication_detail = asyncio.run(
        run_replicated(4)
    )
    record("pipeline-4p-repl", 4, seconds, total, pipeline)

    # Leader + 2 followers: the fan-out cost of a second subscriber.
    seconds, total, pipeline, fanout_detail = asyncio.run(
        run_replicated(4, num_followers=2)
    )
    record("pipeline-4p-repl2", 4, seconds, total, pipeline)

    sketch = FrequentItemsSketch(k, seed=config.seed)
    seconds, total, pipeline = asyncio.run(run_tcp(sketch))
    record("tcp-bin", 1, seconds, total, pipeline)

    # Multi-process cluster: same workload fanned over 4 tenants, 1 vs 4
    # worker processes (the scale-out figure; gated on >= 4-core runners).
    cluster_rows: dict[int, dict] = {}
    cluster_stats: dict[int, dict] = {}
    for num_workers in (1, 4):
        seconds, total, stats = asyncio.run(run_cluster(num_workers))
        row = {
            "mode": f"cluster-{num_workers}w",
            "producers": 4,
            "updates": total,
            "seconds": seconds,
            "updates_per_sec": total / seconds,
            "micro_batches": sum(
                worker["applied_seq"] for worker in stats["workers"]
            ),
            "wal_bytes": 0,
        }
        rows.append(row)
        table.add_row(**row)
        cluster_rows[num_workers] = row
        cluster_stats[num_workers] = stats

    if json_path is not None:
        import os

        from repro import native
        from repro.bench.io import atomic_write_json

        def rate_of(mode: str) -> float:
            return next(
                row["updates_per_sec"] for row in rows if row["mode"] == mode
            )

        scaling = (
            cluster_rows[4]["updates_per_sec"]
            / cluster_rows[1]["updates_per_sec"]
        )
        failover_detail = failover_mttr_metrics(config.seed)
        document = {
            "bench": "serve",
            "k": k,
            "per_producer_updates": per_producer,
            "unique_sources": config.unique_sources,
            "seed": config.seed,
            "metadata": native.runtime_metadata(),
            "rows": rows,
            "replication": {
                **replication_detail,
                "replicated_fraction_of_4p": (
                    rate_of("pipeline-4p-repl") / rate_of("pipeline-4p")
                ),
            },
            "replication_fanout": {
                **fanout_detail,
                "fanout2_fraction_of_repl1": (
                    rate_of("pipeline-4p-repl2") / rate_of("pipeline-4p-repl")
                ),
            },
            "cluster": {
                "routing": "ketama",
                "vnodes": cluster_stats[4]["vnodes"],
                "frame_transport": cluster_stats[4]["frame_transport"],
                "slot_capacity": cluster_stats[4]["slot_capacity"],
                "tenants": len(cluster_stats[4]["tenants"]),
                "cpu_count": os.cpu_count(),
                "workers_1_updates_per_sec": cluster_rows[1]["updates_per_sec"],
                "workers_4_updates_per_sec": cluster_rows[4]["updates_per_sec"],
                "per_worker_updates_per_sec": (
                    cluster_rows[4]["updates_per_sec"] / 4
                ),
                "scaling_vs_1w": scaling,
                # The >= 2.5x gate only binds where 4 workers can actually
                # run in parallel; below 4 cores the figure is recorded,
                # not enforced (see benchmarks/bench_serve_throughput.py).
                "gate_enforced": (os.cpu_count() or 1) >= 4,
            },
            "failover": failover_detail,
            "gates": {
                "failover_mttr_seconds": failover_detail["mttr_seconds"],
                "pipeline_4p_updates_per_sec": rate_of("pipeline-4p"),
                "pipeline_4p_repl_updates_per_sec": rate_of("pipeline-4p-repl"),
                "pipeline_4p_repl2_updates_per_sec": rate_of(
                    "pipeline-4p-repl2"
                ),
                "cluster_scaling_vs_1w": scaling,
            },
        }
        atomic_write_json(json_path, document)
    return table
