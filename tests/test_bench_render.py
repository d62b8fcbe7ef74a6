"""The report renderer: SVG charts, tables, HTML/markdown assembly."""

import xml.etree.ElementTree as ET

from repro.bench.io import atomic_write_json
from repro.bench.matrix import RUN_SCHEMA
from repro.bench.render import (
    format_number,
    frontier_chart,
    html_table,
    markdown_table,
    render_html,
    render_markdown,
    render_report,
    svg_line_chart,
    trajectory_chart,
)
from repro.bench.results import ExperimentResults, Frame


def _results(tmp_path):
    runs_dir = tmp_path / "bench_runs"
    runs_dir.mkdir(exist_ok=True)
    cells = [
        {
            "policy": "smed", "backend": backend, "alpha": 1.05, "k": k,
            "growth": "fixed", "updates_per_sec": rate, "max_error": error,
            "rel_error": error / 1e4, "space_bytes": 16 * k,
            "seconds_median": 0.01, "decrements": 3,
        }
        for backend, k, rate, error in [
            ("dict", 64, 2e6, 50.0),
            ("dict", 128, 1.8e6, 20.0),
            ("probing", 64, 1e6, 55.0),
        ]
    ]
    atomic_write_json(
        runs_dir / "run-r1.json",
        {
            "schema": RUN_SCHEMA, "bench": "matrix", "run_id": "r1",
            "scale": "tiny", "git_hash": "b" * 40, "git_dirty": False,
            "timestamp_utc": "2026-01-01T00:00:00Z",
            "host": {"hostname": "h", "cpu_count": 1},
            "metadata": {"ingest_path": "native"}, "matrix": {},
            "cells": cells,
        },
    )
    atomic_write_json(
        tmp_path / "BENCH_ingest.json",
        {
            "bench": "ingest-profile", "metadata": {"ingest_path": "native"},
            "gates": {"probing_batch_per_sec_alpha1.05": 3.5e6},
            "rows": [{
                "backend": "probing", "alpha": 1.05, "batch_speedup": 11.0,
                "batch_per_sec": 3.5e6, "scalar_per_sec": 3.2e5,
            }],
        },
    )
    return ExperimentResults(runs_dir=str(runs_dir), repo_root=str(tmp_path))


def _assert_well_formed(svg: str) -> ET.Element:
    return ET.fromstring(svg)


# -- svg_line_chart ----------------------------------------------------------


def test_chart_with_data_is_well_formed_svg():
    svg = svg_line_chart(
        {"a": [(1.0, 10.0), (2.0, 20.0)], "b": [(1.0, 5.0)]},
        title="t", x_label="x", y_label="y",
    )
    _assert_well_formed(svg)
    assert svg.count("<polyline") == 1  # single-point series gets no line
    assert svg.count("<circle") == 3
    assert "a</text>" in svg and "b</text>" in svg  # legend entries


def test_chart_empty_series_says_no_data():
    svg = svg_line_chart({}, title="t", x_label="x", y_label="y")
    _assert_well_formed(svg)
    assert "no data" in svg


def test_chart_drops_nonfinite_and_nonpositive_log_points():
    svg = svg_line_chart(
        {
            "s": [(1.0, 10.0), (2.0, float("nan")), (3.0, float("inf"))],
            "gone": [(0.0, 5.0), (-1.0, 5.0)],  # filtered on log-x
        },
        title="t", x_label="x", y_label="y", log_x=True, log_y=True,
    )
    _assert_well_formed(svg)
    assert svg.count("<circle") == 1  # only (1.0, 10.0) survives
    assert "gone" not in svg  # fully-filtered series leaves the legend too


def test_chart_category_axis_labels():
    svg = svg_line_chart(
        {"m": [(0.0, 1.0), (1.0, 2.0)]},
        title="t", x_label="run", y_label="y",
        x_categories=["seed:ingest", "r1"],
    )
    _assert_well_formed(svg)
    assert "seed:ingest" in svg and "rotate(-35" in svg


# -- tables ------------------------------------------------------------------


def test_markdown_table_and_empty():
    frame = Frame([{"a": 1, "b": 2.5}, {"a": 3}])
    text = markdown_table(frame)
    assert text.splitlines()[0] == "| a | b |"
    assert "| 3 |  |" in text
    assert markdown_table(Frame([])) == "_(no data)_"


def test_html_table_escapes_and_empty():
    frame = Frame([{"a": "<script>"}])
    text = html_table(frame)
    assert "&lt;script&gt;" in text and "<script>" not in text
    assert "no data" in html_table(Frame([]))


def test_format_number():
    assert format_number(None) == ""
    assert format_number(0.0) == "0"
    assert format_number(float("nan")) == "nan"
    assert format_number(float("-inf")) == "-inf"
    assert format_number(3.5e6) == "3.5e+06"
    assert format_number(303.03) == "303.0"
    assert format_number("probing") == "probing"


# -- report assembly ---------------------------------------------------------


def test_render_markdown_contains_sections(tmp_path):
    text = render_markdown(_results(tmp_path))
    assert "# Bench report — r1" in text
    assert "## Throughput trajectory" in text
    assert "## Accuracy vs space frontier" in text
    assert "seed:ingest" in text  # the BENCH_ingest.json seed point
    assert "smed/dict/fixed@a1.05" in text


def test_render_html_self_contained(tmp_path):
    document = render_html(_results(tmp_path))
    assert document.startswith("<!DOCTYPE html>")
    assert "<style>" in document  # embedded CSS, no external refs
    assert "http" not in document.split("</style>")[1].split("<svg")[0]
    assert document.count("<svg") == 2  # trajectory + frontier
    assert "Accuracy vs space frontier" in document


def test_charts_from_results_are_well_formed(tmp_path):
    results = _results(tmp_path)
    _assert_well_formed(frontier_chart(results))
    _assert_well_formed(trajectory_chart(results))


def test_render_report_writes_both_artifacts(tmp_path):
    results = _results(tmp_path)
    out_dir = tmp_path / "report"
    paths = render_report(results, str(out_dir))
    assert sorted(paths) == ["html", "markdown"]
    assert (out_dir / "report.html").read_text().count("<svg") == 2
    assert "# Bench report" in (out_dir / "report.md").read_text()


def test_render_report_with_empty_history(tmp_path):
    results = ExperimentResults(
        runs_dir=str(tmp_path / "none"), repo_root=str(tmp_path / "none")
    )
    paths = render_report(results, str(tmp_path / "report"))
    html_doc = open(paths["html"]).read()
    assert "no data" in html_doc  # charts and tables degrade, never crash
    assert "# Bench report — bench" in open(paths["markdown"]).read()
