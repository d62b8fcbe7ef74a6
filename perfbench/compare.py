"""Summarize result sets and compare two of them.

Usage::

    python3 perfbench/compare.py DIR            # medians and spreads of one set
    python3 perfbench/compare.py BASE NEW       # NEW against BASE

A set is a directory of result documents written by ``run.py``.  Two
sets are compared only when they ran the same ingest path on the same
kind of host (CPU model, CPU count, calibration score within
``CALIBRATION_TOLERANCE``); otherwise the comparison is refused with
exit status 2.  For each workload and end-to-end metric the verdict
follows the bounds in ``BENCHMARK.json``: ``worse`` when NEW's median is
worse than BASE's by more than the bound, ``unresolved`` when BASE's own
spread exceeds the bound, ``ok`` otherwise.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

import measure

#: Largest relative difference of host calibration scores two sets may have.
CALIBRATION_TOLERANCE = 0.25


class RefusedComparison(ValueError):
    """The two sets were not measured under comparable conditions."""


def load_set(directory: str) -> list[dict]:
    docs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, "r", encoding="ascii") as fh:
            docs.append(json.load(fh))
    if not docs:
        raise FileNotFoundError(f"no result documents in {directory!r}")
    return docs


def conditions(docs: list[dict]) -> dict:
    """The ingest path, host and median calibration score of one set.

    Raises :class:`RefusedComparison` when the set itself mixes ingest
    paths or hosts.
    """
    paths = {doc["provenance"]["ingest_path"] for doc in docs}
    hosts = {json.dumps(doc["provenance"]["host"], sort_keys=True) for doc in docs}
    if len(paths) != 1:
        raise RefusedComparison(f"set mixes ingest paths {sorted(paths)}")
    if len(hosts) != 1:
        raise RefusedComparison(f"set mixes hosts {sorted(hosts)}")
    return {
        "ingest_path": paths.pop(),
        "host": json.loads(hosts.pop()),
        "calibration": statistics.median(
            doc["provenance"]["calibration_loops_per_s"] for doc in docs
        ),
    }


def check_comparable(base: list[dict], new: list[dict]) -> None:
    a, b = conditions(base), conditions(new)
    if a["ingest_path"] != b["ingest_path"]:
        raise RefusedComparison(
            f"ingest paths differ: {a['ingest_path']} vs {b['ingest_path']}"
        )
    if a["host"] != b["host"]:
        raise RefusedComparison(f"hosts differ: {a['host']} vs {b['host']}")
    drift = abs(a["calibration"] - b["calibration"]) / a["calibration"]
    if drift > CALIBRATION_TOLERANCE:
        raise RefusedComparison(
            f"host calibration scores differ by {drift:.0%} "
            f"({a['calibration']:.4g} vs {b['calibration']:.4g} loops/s)"
        )


def values_by_metric(docs: list[dict]) -> dict:
    """``{(workload, metric): [values...]}`` over the set's runs."""
    out: dict = {}
    for doc in docs:
        for name, metric in doc["metrics"].items():
            out.setdefault((doc["workload"], name), []).append(metric["value"])
    return out


def summarize(docs: list[dict]) -> list[tuple]:
    rows = []
    for (workload, name), values in sorted(values_by_metric(docs).items()):
        spread = measure.iqr_share(values) if len(values) >= 2 else float("nan")
        rows.append((workload, name, len(values), statistics.median(values), spread))
    return rows


def compare(base: list[dict], new: list[dict], bounds: dict) -> list[tuple]:
    """Verdict rows for every end-to-end metric both sets measured."""
    check_comparable(base, new)
    a, b = values_by_metric(base), values_by_metric(new)
    rows = []
    for key in sorted(set(a) & set(b)):
        workload, name = key
        if name not in bounds:
            continue
        bound, better = bounds[name]
        base_median, new_median = statistics.median(a[key]), statistics.median(b[key])
        change = (new_median - base_median) / base_median if base_median else 0.0
        worse_by = change if better == "lower" else -change
        spread = measure.iqr_share(a[key]) if len(a[key]) >= 2 else float("inf")
        if worse_by > bound:
            verdict = "worse"
        elif spread > bound:
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append((workload, name, base_median, new_median, change, verdict))
    return rows


def load_bounds(path: str) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        spec = json.load(fh)
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        for workload, name, n, median, spread in summarize(load_set(argv[0])):
            print(f"{workload:<16} {name:<36} n={n:<3} median={median:<14.6g} iqr/median={spread:.3f}")
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bounds = load_bounds("BENCHMARK.json")
    try:
        rows = compare(load_set(argv[0]), load_set(argv[1]), bounds)
    except RefusedComparison as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    for workload, name, base, new, change, verdict in rows:
        print(f"{workload:<16} {name:<22} {base:<14.6g} {new:<14.6g} {change:+8.2%} {verdict}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
