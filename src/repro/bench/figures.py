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
    packet_exact,
    packet_stream,
    time_feed,
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
