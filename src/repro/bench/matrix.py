"""The declared experiment matrix behind ``python -m repro.bench report``.

Modeled on ``google/fuzzbench``'s experiment pipeline: a *declared*
matrix (backend × decrement policy × Zipf skew × k × growth mode) is
executed cell by cell, and every execution persists **one JSON document
per run** under ``bench_runs/`` — stamped with git hash, UTC timestamp,
host/CPU and :func:`repro.native.runtime_metadata` provenance — so the
run history is an append-only trajectory the analysis layer
(:mod:`repro.bench.results`) can load as a frame and the renderer
(:mod:`repro.bench.render`) can plot across PRs.

Each cell feeds the Section 4.5 Zipf workload (shared with the ingest
profile via :func:`repro.bench.figures.profile_arrays` — the identical
update sequence, materialized once) through ``update_batch`` with the
garbage collector fenced off, samples **repeats × median** wall-clock
(single shots flake; medians gate), and records accuracy against the
exact counter plus the Section 2.3.3 space model — the two axes of the
accuracy-vs-space frontier.
"""

from __future__ import annotations

import os
import platform
import socket
from dataclasses import asdict, dataclass, field
from typing import Iterator

from repro.bench.harness import (
    BenchConfig,
    repeat_median,
    time_feed_batches,
    zipf_exact,
)
from repro.bench.io import atomic_write_json, git_revision, utc_timestamp
from repro.core.frequent_items import FrequentItemsSketch
from repro.core.policies import SampleQuantilePolicy
from repro.metrics.accuracy import max_error
from repro.metrics.space import space_model_bytes
from repro.selection.sampling import DEFAULT_SAMPLE_SIZE

#: Schema tag every run document carries; bump on breaking layout change.
RUN_SCHEMA = "repro.bench.matrix/v1"

#: Default directory for run documents, relative to the working dir.
DEFAULT_RUNS_DIR = "bench_runs"

#: Decrement-policy quantiles the matrix sweeps (paper names).
POLICY_QUANTILES = {"smed": 0.5, "smin": 0.0}


@dataclass(frozen=True)
class MatrixSpec:
    """One declared experiment matrix (the cross product of its axes)."""

    backends: tuple[str, ...] = ("probing", "dict")
    policies: tuple[str, ...] = ("smed", "smin")
    alphas: tuple[float, ...] = (0.8, 1.05, 1.3)
    k_values: tuple[int, ...] = field(default=())  # empty = config.k_values
    growth_modes: tuple[str, ...] = ("fixed", "adaptive")
    repeats: int = 3
    batch_size: int = 4_096

    def resolve_k(self, config: BenchConfig) -> tuple[int, ...]:
        return self.k_values or config.k_values

    def cells(self, config: BenchConfig) -> Iterator[dict]:
        """Every cell of the cross product, in declaration order."""
        for policy in self.policies:
            if policy not in POLICY_QUANTILES:
                raise ValueError(f"unknown matrix policy {policy!r}")
            for backend in self.backends:
                for alpha in self.alphas:
                    for k in self.resolve_k(config):
                        for growth in self.growth_modes:
                            yield {
                                "policy": policy,
                                "backend": backend,
                                "alpha": alpha,
                                "k": k,
                                "growth": growth,
                            }

    def num_cells(self, config: BenchConfig) -> int:
        return (
            len(self.policies)
            * len(self.backends)
            * len(self.alphas)
            * len(self.resolve_k(config))
            * len(self.growth_modes)
        )


#: The full matrix (overnight scale) and the CI-sized ``--quick`` subset.
FULL_MATRIX = MatrixSpec()
QUICK_MATRIX = MatrixSpec(
    backends=("probing", "dict"),
    policies=("smed",),
    alphas=(1.05,),
    growth_modes=("fixed", "adaptive"),
    repeats=3,
)


def matrix_for_scale(scale: str) -> MatrixSpec:
    """The declared matrix for a workload scale (``quick`` subsets)."""
    if scale == "quick":
        return QUICK_MATRIX
    return FULL_MATRIX


def _build_sketch(cell: dict, seed: int) -> FrequentItemsSketch:
    return FrequentItemsSketch(
        cell["k"],
        policy=SampleQuantilePolicy(
            POLICY_QUANTILES[cell["policy"]], DEFAULT_SAMPLE_SIZE
        ),
        backend=cell["backend"],
        seed=seed,
        growth=cell["growth"],
    )


def run_cell(cell: dict, config: BenchConfig, spec: MatrixSpec) -> dict:
    """Execute one matrix cell: median-timed ingest + accuracy + space.

    The feed is deterministic (seeded workload, seeded sketch), so every
    repeat reproduces the identical final state; the last repeat's
    sketch answers the accuracy query while the median of the sampled
    wall-clocks carries the throughput.
    """
    from repro.bench.figures import profile_arrays

    all_items, all_weights = profile_arrays(config, cell["alpha"])
    n = len(all_items)
    batch = spec.batch_size
    batches = [
        (all_items[lo : lo + batch], all_weights[lo : lo + batch])
        for lo in range(0, n, batch)
    ]
    sketches: list[FrequentItemsSketch] = []

    def one_run() -> float:
        sketch = _build_sketch(cell, config.seed)
        seconds = time_feed_batches(sketch, batches)
        sketches.append(sketch)
        return seconds

    median_seconds, samples = repeat_median(one_run, spec.repeats)
    sketch = sketches[-1]
    exact = zipf_exact(
        config.num_updates, config.unique_sources, cell["alpha"], config.seed
    )
    error = max_error(sketch, exact)
    total_weight = exact.total_weight
    return {
        **cell,
        "updates": n,
        "repeats": spec.repeats,
        "batch_size": batch,
        "seconds_median": median_seconds,
        "seconds_samples": samples,
        "updates_per_sec": n / median_seconds if median_seconds else float("inf"),
        "max_error": error,
        "rel_error": error / total_weight if total_weight else 0.0,
        "space_bytes": space_model_bytes(cell["policy"], cell["k"]),
        "decrements": sketch.stats.decrements,
    }


def host_info() -> dict:
    """Host/CPU provenance for a run document."""
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


def run_provenance() -> dict:
    """Everything that must travel with a run's numbers to trust them."""
    from repro import native

    return {
        **git_revision(),
        "timestamp_utc": utc_timestamp(),
        "host": host_info(),
        "metadata": native.runtime_metadata(),
    }


def run_matrix(
    config: BenchConfig,
    spec: MatrixSpec,
    scale: str = "quick",
    runs_dir: str | None = DEFAULT_RUNS_DIR,
    progress=None,
) -> tuple[dict, str | None]:
    """Execute ``spec`` and persist one stamped run document.

    Returns ``(document, path)``; ``path`` is ``None`` when ``runs_dir``
    is ``None`` (persistence disabled — tests exercising only the
    sweep).  The
    document is written atomically, so a crash mid-run never leaves a
    torn JSON for the results loader to trip over.
    """
    provenance = run_provenance()
    stamp = provenance["timestamp_utc"].replace(":", "").replace("-", "")
    run_id = f"{stamp}-{provenance['git_hash'][:8]}"
    cells = []
    total = spec.num_cells(config)
    for index, cell in enumerate(spec.cells(config)):
        if progress is not None:
            progress(
                f"[{index + 1}/{total}] {cell['policy']}/{cell['backend']}"
                f" alpha={cell['alpha']} k={cell['k']} {cell['growth']}"
            )
        cells.append(run_cell(cell, config, spec))
    document = {
        "schema": RUN_SCHEMA,
        "bench": "matrix",
        "run_id": run_id,
        "scale": scale,
        "num_updates": config.num_updates,
        "unique_sources": config.unique_sources,
        "seed": config.seed,
        **provenance,
        "matrix": asdict(spec),
        "cells": cells,
    }
    path = None
    if runs_dir is not None:
        os.makedirs(runs_dir, exist_ok=True)
        path = os.path.join(runs_dir, f"run-{run_id}.json")
        atomic_write_json(path, document)
    return document, path
