"""The memoized analysis layer: frames over run documents + seed gates."""

import json

import pytest

from repro.bench.io import atomic_write_json
from repro.bench.matrix import RUN_SCHEMA
from repro.bench.results import PROVENANCE_FIELDS, ExperimentResults, Frame


def _cell(backend="dict", k=64, alpha=1.05, rate=1e6, error=40.0, **extra):
    return {
        "policy": "smed",
        "backend": backend,
        "alpha": alpha,
        "k": k,
        "growth": "fixed",
        "updates_per_sec": rate,
        "max_error": error,
        "rel_error": error / 1e4,
        "space_bytes": 16 * k,
        **extra,
    }


def _run_document(run_id, timestamp, cells, git_hash="a" * 40):
    return {
        "schema": RUN_SCHEMA,
        "bench": "matrix",
        "run_id": run_id,
        "scale": "tiny",
        "git_hash": git_hash,
        "git_dirty": False,
        "timestamp_utc": timestamp,
        "host": {"hostname": "h", "cpu_count": 1},
        "metadata": {"ingest_path": "native"},
        "matrix": {},
        "cells": cells,
    }


@pytest.fixture
def history(tmp_path):
    """Two runs on disk plus seed BENCH_* documents at a fake repo root."""
    runs_dir = tmp_path / "bench_runs"
    runs_dir.mkdir()
    atomic_write_json(
        runs_dir / "run-one.json",
        _run_document(
            "one", "2026-01-01T00:00:00Z",
            [_cell(backend="dict", k=64, rate=2e6)],
        ),
    )
    atomic_write_json(
        runs_dir / "run-two.json",
        _run_document(
            "two", "2026-02-01T00:00:00Z",
            [
                _cell(backend="dict", k=64, rate=3e6, error=50.0),
                _cell(backend="dict", k=128, rate=2.5e6, error=20.0),
                _cell(backend="probing", k=64, rate=1.5e6),
            ],
        ),
    )
    atomic_write_json(
        tmp_path / "BENCH_ingest.json",
        {
            "bench": "ingest-profile",
            "metadata": {"ingest_path": "native"},
            "gates": {"probing_batch_per_sec_alpha1.05": 3.5e6},
            "rows": [
                {
                    "backend": "probing", "alpha": 1.05,
                    "batch_speedup": 11.0, "batch_per_sec": 3.5e6,
                    "scalar_per_sec": 3.2e5, "adaptive_per_sec": 3.0e6,
                },
                {
                    "backend": "dict", "alpha": 1.05,
                    "batch_speedup": 5.0, "batch_per_sec": 1.8e6,
                    "scalar_per_sec": 3.6e5, "adaptive_per_sec": 1.5e6,
                },
            ],
        },
    )
    atomic_write_json(
        tmp_path / "BENCH_serve.json",
        {
            "bench": "serve",
            "metadata": {"ingest_path": "native"},
            "gates": {"pipeline_4p_updates_per_sec": 3.0e5},
        },
    )
    return tmp_path


# -- Frame ------------------------------------------------------------------


def test_frame_columns_first_appearance_order():
    frame = Frame([{"b": 1, "a": 2}, {"a": 3, "c": 4}])
    assert frame.columns == ["b", "a", "c"]
    assert frame.column("a") == [2, 3]
    assert frame.column("missing") == [None, None]
    assert len(frame) == 2
    assert not frame.empty
    assert Frame([]).empty


def test_frame_where_equality_and_predicate():
    frame = Frame([{"x": 1, "y": "p"}, {"x": 2, "y": "p"}, {"x": 3, "y": "q"}])
    assert frame.where(y="p").column("x") == [1, 2]
    assert frame.where(lambda row: row["x"] > 1, y="p").column("x") == [2]
    assert frame.where(y="zzz").empty


def test_frame_sort_handles_missing_values():
    frame = Frame([{"k": 2}, {"k": None}, {"k": 1}, {}])
    assert frame.sort("k").column("k") == [None, None, 1, 2]
    assert frame.sort("k", reverse=True).column("k") == [2, 1, None, None]


def test_frame_unique_preserves_order():
    frame = Frame([{"b": "x"}, {"b": "y"}, {"b": "x"}])
    assert frame.unique("b") == ["x", "y"]


def test_frame_to_pandas_requires_pandas():
    frame = Frame([{"a": 1}])
    try:
        import pandas  # noqa: F401
    except ImportError:
        with pytest.raises(ImportError, match="pandas"):
            frame.to_pandas()
    else:  # pragma: no cover - env-dependent
        assert frame.to_pandas().shape == (1, 1)


# -- ExperimentResults -------------------------------------------------------


def test_run_documents_sorted_oldest_first(history):
    results = ExperimentResults(
        runs_dir=str(history / "bench_runs"), repo_root=str(history)
    )
    assert [d["run_id"] for d in results.run_documents] == ["one", "two"]
    assert results.started == "2026-01-01T00:00:00Z"
    assert results.ended == "2026-02-01T00:00:00Z"
    assert results.name == "two"
    assert results.git_hash == "a" * 40


def test_torn_and_foreign_files_skipped(history):
    runs_dir = history / "bench_runs"
    (runs_dir / "run-torn.json").write_text('{"schema": "repro.bench.matr')
    (runs_dir / "run-foreign.json").write_text('{"schema": "other/v9"}')
    (runs_dir / "notes.txt").write_text("ignored: wrong name pattern")
    results = ExperimentResults(runs_dir=str(runs_dir), repo_root=str(history))
    assert [d["run_id"] for d in results.run_documents] == ["one", "two"]


def test_runs_frame_carries_provenance_columns(history):
    results = ExperimentResults(
        runs_dir=str(history / "bench_runs"), repo_root=str(history)
    )
    assert len(results.runs) == 4  # 1 cell + 3 cells
    assert set(results.runs.unique("run_id")) == {"one", "two"}
    assert results.runs.unique("ingest_path") == ["native"]
    assert len(results.latest_cells) == 3
    assert results.latest_cells.unique("run_id") == ["two"]


def test_frontier_series_and_sort(history):
    results = ExperimentResults(
        runs_dir=str(history / "bench_runs"), repo_root=str(history)
    )
    frontier = results.frontier
    assert len(frontier) == 3  # latest run only
    assert "smed/dict/fixed@a1.05" in frontier.unique("series")
    spaces = frontier.column("space_bytes")
    assert spaces == sorted(spaces)


def test_trajectory_seed_points_come_first(history):
    results = ExperimentResults(
        runs_dir=str(history / "bench_runs"), repo_root=str(history)
    )
    trajectory = results.trajectory
    assert trajectory.column("run_id")[:2] == ["seed:ingest", "seed:serve"]
    assert trajectory.where(run_id="seed:ingest").column("updates_per_sec") == [3.5e6]
    assert trajectory.where(run_id="seed:serve").column("updates_per_sec") == [3.0e5]
    # Per run × backend: run one has dict only, run two both backends.
    matrix_points = trajectory.where(source="bench_runs")
    assert len(matrix_points) == 3
    # Best cell at the canonical skew wins (3e6 beats 2.5e6 in run two).
    best = matrix_points.where(run_id="two", metric="matrix_dict_updates_per_sec")
    assert best.column("updates_per_sec") == [3e6]


def test_trajectory_without_seed_documents(history):
    results = ExperimentResults(
        runs_dir=str(history / "bench_runs"),
        repo_root=str(history / "nowhere"),
    )
    assert results.ingest_document is None
    assert results.serve_document is None
    assert results.trajectory.unique("source") == ["bench_runs"]


def test_speedups_per_backend(history):
    results = ExperimentResults(
        runs_dir=str(history / "bench_runs"), repo_root=str(history)
    )
    speedups = results.speedups
    assert speedups.unique("backend") == ["probing", "dict"]
    assert speedups.where(backend="probing").column("batch_speedup") == [11.0]
    assert speedups.unique("ingest_path") == ["native"]


def test_summary_facts(history):
    results = ExperimentResults(
        runs_dir=str(history / "bench_runs"), repo_root=str(history)
    )
    summary = results.summary
    assert summary["num_runs"] == 2
    assert summary["num_cells"] == 4
    assert summary["scale"] == "tiny"
    assert summary["ingest_path"] == "native"
    assert summary["has_seed_ingest"] and summary["has_seed_serve"]


def test_empty_history_is_harmless(tmp_path):
    results = ExperimentResults(
        runs_dir=str(tmp_path / "missing"), repo_root=str(tmp_path)
    )
    assert results.run_documents == []
    assert results.name == "bench"
    assert results.git_hash is None
    assert results.runs.empty
    assert results.frontier.empty
    assert results.trajectory.empty
    assert results.speedups.empty
    assert results.summary["num_runs"] == 0


def test_validate_provenance(history):
    results = ExperimentResults(runs_dir=str(history / "bench_runs"))
    document = results.run_documents[-1]
    assert results.validate_provenance(document) == []
    stripped = {k: v for k, v in document.items() if k != "git_hash"}
    stripped["host"] = {}
    assert results.validate_provenance(stripped) == ["git_hash", "host"]
    assert list(PROVENANCE_FIELDS) == [
        "run_id", "git_hash", "timestamp_utc", "host", "metadata",
    ]


def test_results_memoize(history):
    results = ExperimentResults(
        runs_dir=str(history / "bench_runs"), repo_root=str(history)
    )
    first = results.trajectory
    # New files written after first access are not re-read: memoized.
    (history / "bench_runs" / "run-three.json").write_text(
        json.dumps(_run_document("three", "2026-03-01T00:00:00Z", [_cell()]))
    )
    assert results.trajectory is first
    assert [d["run_id"] for d in results.run_documents] == ["one", "two"]
