"""The bench CLI end to end, on a monkeypatched tiny scale."""

import pytest

from repro.bench import cli
from repro.bench.harness import SCALES, BenchConfig

TINY = BenchConfig(
    num_updates=1_500,
    unique_sources=300,
    k_values=(8, 16),
    merge_pairs=2,
    merge_updates_per_sketch_factor=3,
    quantiles=(0, 50),
    seed=21,
)


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setitem(SCALES, "tiny", TINY)


@pytest.mark.parametrize(
    "experiment, landmark",
    [
        ("fig1", "Figure 1"),
        ("fig2", "Figure 2"),
        ("fig3", "Figure 3"),
        ("fig4", "Figure 4"),
        ("claims", "Section 4.3 claims"),
        ("context", "Context"),
        ("adversarial", "adversarial stream"),
        ("bounds", "Theorem 4 check"),
        ("batch", "Batch ingestion engine"),
        ("decay", "Engine consumers"),
    ],
)
def test_each_experiment_runs(experiment, landmark, capsys):
    assert cli.main([experiment, "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert landmark in out


def test_ablations_run(capsys):
    assert cli.main(["ablations", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "decrement policy" in out
    assert "sample size" in out
    assert "merge iteration order" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        cli.main(["figure9"])


def test_experiments_registry_matches_readme_surface():
    assert set(cli.EXPERIMENTS) == {
        "fig1", "fig2", "fig3", "fig4", "claims", "space",
        "context", "bounds", "adversarial", "batch", "shard", "decay",
        "serve", "ingest-profile", "ablations",
    }


def test_ingest_profile_writes_json(tmp_path, monkeypatch, capsys):
    import json

    monkeypatch.chdir(tmp_path)
    assert cli.main(["ingest-profile", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "Ingest profile" in out
    document = json.loads((tmp_path / "BENCH_ingest.json").read_text())
    assert document["bench"] == "ingest-profile"
    assert document["gates"]["probing_batch_speedup_alpha1.05"] > 0
    backends = {row["backend"] for row in document["rows"]}
    assert backends == {"dict", "probing"}


def test_quick_flag_is_scale_alias(monkeypatch, tmp_path, capsys):
    # --quick must parse and select the quick scale; use the cheapest
    # experiment so the test stays fast.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(SCALES, "quick", TINY)
    assert cli.main(["space", "--quick"]) == 0
    assert "space" in capsys.readouterr().out.lower()


def test_out_appends_are_stamped_with_run_headers(tmp_path, capsys):
    """Satellite: two appends → two attributable blocks, not one blob."""
    out = tmp_path / "report.txt"
    assert cli.main(["space", "--scale", "tiny", "--out", str(out)]) == 0
    assert cli.main(["bounds", "--scale", "tiny", "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    headers = [line for line in text.splitlines() if line.startswith("==== bench run:")]
    assert len(headers) == 2
    assert "==== bench run: space | scale=tiny | git " in headers[0]
    assert "==== bench run: bounds | scale=tiny | git " in headers[1]
    # Each header carries the commit and a UTC instant.
    for header in headers:
        assert "T" in header and header.rstrip().endswith("====")
        assert "Z" in header
    # The stamped blocks still contain their tables, in append order.
    assert text.index(headers[0]) < text.index("Theorem 4 check")


def test_run_header_format():
    header = cli.run_header("fig1", "quick")
    assert header.startswith("==== bench run: fig1 | scale=quick | git ")
    assert header.endswith("====")


def test_report_command_end_to_end(tmp_path, monkeypatch, capsys):
    """The tentpole: matrix run → stamped document → rendered report."""
    import json

    from repro.bench import matrix

    monkeypatch.chdir(tmp_path)
    tiny_spec = matrix.MatrixSpec(
        backends=("probing",),
        policies=("smed",),
        alphas=(1.05,),
        k_values=(16,),
        growth_modes=("fixed",),
        repeats=2,
        batch_size=512,
    )
    monkeypatch.setattr(matrix, "matrix_for_scale", lambda scale: tiny_spec)
    out = tmp_path / "out.txt"
    assert cli.main([
        "report", "--scale", "tiny",
        "--runs-dir", str(tmp_path / "runs"),
        "--report-dir", str(tmp_path / "rep"),
        "--out", str(out),
    ]) == 0
    printed = capsys.readouterr().out
    assert "Experiment matrix" in printed
    assert "run document:" in printed

    run_files = list((tmp_path / "runs").glob("run-*.json"))
    assert len(run_files) == 1
    document = json.loads(run_files[0].read_text())
    assert document["scale"] == "tiny"
    assert document["git_hash"] and document["timestamp_utc"].endswith("Z")
    assert len(document["cells"]) == 1

    html_doc = (tmp_path / "rep" / "report.html").read_text()
    assert "Accuracy vs space frontier" in html_doc
    assert "Throughput trajectory" in html_doc
    assert "report" in out.read_text().splitlines()[0]  # stamped --out header


def test_report_dir_defaults_under_runs_dir(tmp_path, monkeypatch):
    from repro.bench import matrix

    monkeypatch.chdir(tmp_path)
    tiny_spec = matrix.MatrixSpec(
        backends=("dict",), policies=("smed",), alphas=(1.05,),
        k_values=(16,), growth_modes=("fixed",), repeats=1, batch_size=512,
    )
    monkeypatch.setattr(matrix, "matrix_for_scale", lambda scale: tiny_spec)
    assert cli.main(["report", "--scale", "tiny", "--runs-dir", "runs"]) == 0
    assert (tmp_path / "runs" / "report" / "report.md").exists()
