"""``ExperimentResults``: the memoized analysis layer over the run history.

Modeled on ``google/fuzzbench``'s ``analysis/experiment_results.py``:
one object wraps the experiment dataframe and every report artifact is
a **lazily-computed, memoized property**, so a template that only needs
the throughput trajectory never pays for the frontier and vice versa.

Data sources, combined into frames:

* every ``bench_runs/run-*.json`` matrix document (the append-only run
  history :mod:`repro.bench.matrix` grows), and
* the seed ``BENCH_ingest.json`` / ``BENCH_serve.json`` documents at the
  repo root — their gate figures become the earliest points of the
  throughput trajectory, so the rendered report shows the full arc from
  the first PR's numbers to the current run.

pandas is optional: frames are plain record lists with a pandas-like
access surface, and :meth:`Frame.to_pandas` upgrades to a real
``pandas.DataFrame`` when the library is installed (the container this
repo grows in does not ship it, so nothing here may require it).
"""

from __future__ import annotations

import glob
import os
from functools import cached_property
from typing import Any, Callable, Iterator

from repro.bench.io import load_json
from repro.bench.matrix import DEFAULT_RUNS_DIR, RUN_SCHEMA

#: Provenance keys every run document must carry to be trusted (the CI
#: round-trip gate asserts these survive the loader).
PROVENANCE_FIELDS = ("run_id", "git_hash", "timestamp_utc", "host", "metadata")


class Frame:
    """A minimal record frame: ordered rows of dicts, column access.

    Deliberately tiny — just what the analysis layer and the renderer
    consume — with :meth:`to_pandas` as the bridge to real dataframes
    where pandas exists.
    """

    def __init__(self, rows: list[dict[str, Any]]) -> None:
        self.rows = list(rows)

    # -- pandas-like surface ----------------------------------------------

    @property
    def empty(self) -> bool:
        return not self.rows

    @property
    def columns(self) -> list[str]:
        """Union of row keys, in first-appearance order."""
        seen: dict[str, None] = {}
        for row in self.rows:
            for key in row:
                seen.setdefault(key)
        return list(seen)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.rows)

    def column(self, name: str) -> list[Any]:
        return [row.get(name) for row in self.rows]

    def where(self, predicate: Callable[[dict], bool] | None = None, **eq: Any) -> "Frame":
        """Rows matching a predicate and/or column equality constraints."""
        out = []
        for row in self.rows:
            if predicate is not None and not predicate(row):
                continue
            if all(row.get(key) == value for key, value in eq.items()):
                out.append(row)
        return Frame(out)

    def sort(self, *keys: str, reverse: bool = False) -> "Frame":
        """A new frame sorted by the given columns (missing sorts first)."""
        def sort_key(row: dict) -> tuple:
            return tuple(
                (row.get(key) is not None, row.get(key)) for key in keys
            )

        return Frame(sorted(self.rows, key=sort_key, reverse=reverse))

    def unique(self, name: str) -> list[Any]:
        """Distinct values of one column, in first-appearance order."""
        seen: dict[Any, None] = {}
        for value in self.column(name):
            seen.setdefault(value)
        return list(seen)

    def to_pandas(self):
        """This frame as a ``pandas.DataFrame`` (pandas required)."""
        try:
            import pandas
        except ImportError as exc:  # pragma: no cover - env-dependent
            raise ImportError(
                "pandas is not installed; Frame.to_pandas needs it "
                "(the record-list surface works without)"
            ) from exc
        return pandas.DataFrame(self.rows)


class ExperimentResults:
    """Lazily-computed, memoized report properties over the run history.

    Usable directly as a template/render context: every property is
    computed on first access and cached (``functools.cached_property``),
    mirroring fuzzbench's report-generation pattern.
    """

    def __init__(
        self,
        runs_dir: str = DEFAULT_RUNS_DIR,
        repo_root: str = ".",
        experiment_name: str | None = None,
    ) -> None:
        self._runs_dir = runs_dir
        self._repo_root = repo_root
        self._name = experiment_name

    # -- raw documents -----------------------------------------------------

    @cached_property
    def run_documents(self) -> list[dict]:
        """Every parseable matrix run document, oldest first."""
        documents = []
        for path in sorted(glob.glob(os.path.join(self._runs_dir, "run-*.json"))):
            try:
                document = load_json(path)
            except (OSError, ValueError):
                continue  # torn/foreign file: the trajectory must survive it
            if document.get("schema") != RUN_SCHEMA:
                continue
            documents.append(document)
        documents.sort(key=lambda d: (d.get("timestamp_utc") or "", d.get("run_id") or ""))
        return documents

    @cached_property
    def ingest_document(self) -> dict | None:
        """The seed ``BENCH_ingest.json`` trajectory document, if present."""
        return self._load_root("BENCH_ingest.json")

    @cached_property
    def serve_document(self) -> dict | None:
        """The seed ``BENCH_serve.json`` trajectory document, if present."""
        return self._load_root("BENCH_serve.json")

    def _load_root(self, filename: str) -> dict | None:
        path = os.path.join(self._repo_root, filename)
        if not os.path.exists(path):
            return None
        try:
            return load_json(path)
        except (OSError, ValueError):
            return None

    # -- identity ----------------------------------------------------------

    @property
    def name(self) -> str:
        if self._name:
            return self._name
        if self.run_documents:
            return self.run_documents[-1]["run_id"]
        return "bench"

    @property
    def git_hash(self) -> str | None:
        """The latest run's repo commit (fuzzbench stamps the same way)."""
        if self.run_documents:
            return self.run_documents[-1].get("git_hash")
        return None

    @property
    def started(self) -> str | None:
        """Earliest run timestamp in the history."""
        if self.run_documents:
            return self.run_documents[0].get("timestamp_utc")
        return None

    @property
    def ended(self) -> str | None:
        """Latest run timestamp in the history."""
        if self.run_documents:
            return self.run_documents[-1].get("timestamp_utc")
        return None

    # -- frames ------------------------------------------------------------

    @cached_property
    def runs(self) -> Frame:
        """Every matrix cell of every run, with run provenance columns."""
        rows = []
        for document in self.run_documents:
            stamp = {
                "run_id": document.get("run_id"),
                "timestamp_utc": document.get("timestamp_utc"),
                "git_hash": document.get("git_hash"),
                "scale": document.get("scale"),
                "ingest_path": (document.get("metadata") or {}).get("ingest_path"),
            }
            for cell in document.get("cells", []):
                rows.append({**stamp, **cell})
        return Frame(rows)

    @cached_property
    def latest_cells(self) -> Frame:
        """The most recent run's cells only (the report's current state)."""
        if not self.run_documents:
            return Frame([])
        latest = self.run_documents[-1]["run_id"]
        return self.runs.where(run_id=latest)

    @cached_property
    def frontier(self) -> Frame:
        """Accuracy-vs-space points from the latest run, series-labeled.

        One series per ``policy/backend/growth`` at each skew, sorted by
        modeled space — exactly the frontier the FDCMSS comparisons plot
        (error shrinking as counters grow).
        """
        rows = []
        for cell in self.latest_cells.sort("space_bytes", "k"):
            rows.append(
                {
                    "series": (
                        f"{cell['policy']}/{cell['backend']}/{cell['growth']}"
                        f"@a{cell['alpha']}"
                    ),
                    "policy": cell["policy"],
                    "backend": cell["backend"],
                    "growth": cell["growth"],
                    "alpha": cell["alpha"],
                    "k": cell["k"],
                    "space_bytes": cell["space_bytes"],
                    "max_error": cell["max_error"],
                    "rel_error": cell["rel_error"],
                    "updates_per_sec": cell["updates_per_sec"],
                }
            )
        return Frame(rows)

    @cached_property
    def trajectory(self) -> Frame:
        """Throughput across history: seed BENCH documents, then runs.

        The seed points come first — ``BENCH_ingest.json``'s canonical
        probing batch rate and ``BENCH_serve.json``'s 4-producer
        pipeline rate — then one point per matrix run and backend (the
        best cell at the canonical skew), so a regression shows up as a
        dip at the right edge of the rendered chart.
        """
        rows = []
        ingest = self.ingest_document
        if ingest is not None:
            gates = ingest.get("gates", {})
            rate = gates.get("probing_batch_per_sec_alpha1.05")
            if rate is not None:
                rows.append(
                    {
                        "source": "BENCH_ingest.json",
                        "run_id": "seed:ingest",
                        "timestamp_utc": None,
                        "git_hash": None,
                        "metric": "probing_batch_per_sec",
                        "updates_per_sec": rate,
                        "ingest_path": (ingest.get("metadata") or {}).get(
                            "ingest_path"
                        ),
                    }
                )
        serve = self.serve_document
        if serve is not None:
            gates = serve.get("gates", {})
            rate = gates.get("pipeline_4p_updates_per_sec")
            if rate is not None:
                rows.append(
                    {
                        "source": "BENCH_serve.json",
                        "run_id": "seed:serve",
                        "timestamp_utc": None,
                        "git_hash": None,
                        "metric": "pipeline_4p_updates_per_sec",
                        "updates_per_sec": rate,
                        "ingest_path": (serve.get("metadata") or {}).get(
                            "ingest_path"
                        ),
                    }
                )
        for document in self.run_documents:
            cells = Frame(document.get("cells", []))
            alphas = cells.unique("alpha")
            canonical = 1.05 if 1.05 in alphas else (alphas[0] if alphas else None)
            for backend in cells.unique("backend"):
                candidates = cells.where(backend=backend, alpha=canonical)
                if candidates.empty:
                    continue
                best = max(candidates, key=lambda c: c["updates_per_sec"])
                rows.append(
                    {
                        "source": "bench_runs",
                        "run_id": document.get("run_id"),
                        "timestamp_utc": document.get("timestamp_utc"),
                        "git_hash": document.get("git_hash"),
                        "metric": f"matrix_{backend}_updates_per_sec",
                        "updates_per_sec": best["updates_per_sec"],
                        "ingest_path": (document.get("metadata") or {}).get(
                            "ingest_path"
                        ),
                    }
                )
        return Frame(rows)

    @cached_property
    def speedups(self) -> Frame:
        """Batch/native speedup table from the seed ingest trajectory.

        Per backend: the best batch-vs-scalar speedup at the canonical
        skew plus the absolute batch rate, stamped with the ingest path
        (native C kernels vs NumPy fallback) the numbers were measured
        on — the two are not comparable, so the column must be shown.
        """
        ingest = self.ingest_document
        if ingest is None:
            return Frame([])
        ingest_path = (ingest.get("metadata") or {}).get("ingest_path")
        rows = []
        cells = Frame(ingest.get("rows", []))
        for backend in cells.unique("backend"):
            candidates = cells.where(backend=backend, alpha=1.05)
            if candidates.empty:
                candidates = cells.where(backend=backend)
            if candidates.empty:
                continue
            best = max(candidates, key=lambda c: c.get("batch_speedup") or 0.0)
            rows.append(
                {
                    "backend": backend,
                    "batch_speedup": best.get("batch_speedup"),
                    "batch_per_sec": best.get("batch_per_sec"),
                    "scalar_per_sec": best.get("scalar_per_sec"),
                    "adaptive_per_sec": best.get("adaptive_per_sec"),
                    "ingest_path": ingest_path,
                }
            )
        return Frame(rows)

    @cached_property
    def summary(self) -> dict[str, Any]:
        """Header facts for the rendered report."""
        latest = self.run_documents[-1] if self.run_documents else None
        return {
            "name": self.name,
            "git_hash": self.git_hash,
            "started": self.started,
            "ended": self.ended,
            "num_runs": len(self.run_documents),
            "num_cells": len(self.runs),
            "scale": latest.get("scale") if latest else None,
            "host": (latest.get("host") or {}) if latest else {},
            "ingest_path": (
                (latest.get("metadata") or {}).get("ingest_path")
                if latest
                else None
            ),
            "has_seed_ingest": self.ingest_document is not None,
            "has_seed_serve": self.serve_document is not None,
        }

    def validate_provenance(self, document: dict) -> list[str]:
        """Missing provenance fields of one run document (empty = good)."""
        return [key for key in PROVENANCE_FIELDS if not document.get(key)]
