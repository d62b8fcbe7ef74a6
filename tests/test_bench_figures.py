"""Experiment definitions produce well-formed tables at a tiny scale.

These are smoke + shape tests: the full runs live in benchmarks/.  The
tiny config keeps the whole file under a few seconds.
"""

import pytest

from repro.bench.figures import (
    FOUR_ALGORITHMS,
    ablation_backend,
    ablation_merge_order,
    ablation_policies,
    ablation_sample_size,
    bounds_table,
    claims_table,
    context_table,
    fig1_runtime,
    fig2_error,
    fig3_quantile_tradeoff,
    fig4_merge,
    space_table,
)
from repro.bench.harness import BenchConfig

TINY = BenchConfig(
    num_updates=3_000,
    unique_sources=600,
    k_values=(16, 32),
    merge_pairs=2,
    merge_updates_per_sketch_factor=4,
    quantiles=(0, 50, 98),
    seed=11,
)


@pytest.fixture(scope="module")
def fig12_tables():
    return fig1_runtime(TINY), fig2_error(TINY)


def test_fig1_structure(fig12_tables):
    (equal_space, equal_counters), _ = fig12_tables
    for table in (equal_space, equal_counters):
        assert set(table.column("algorithm")) == set(FOUR_ALGORITHMS)
        assert len(table.rows) == len(FOUR_ALGORITHMS) * len(TINY.k_values)
        assert all(seconds > 0 for seconds in table.column("seconds"))


def test_fig1_equal_space_gives_mhe_fewer_counters(fig12_tables):
    (equal_space, _), _ = fig12_tables
    for k in TINY.k_values:
        mhe_k = equal_space.cell({"algorithm": "MHE", "k": k}, "actual_k")
        smed_k = equal_space.cell({"algorithm": "SMED", "k": k}, "actual_k")
        assert mhe_k < smed_k


def test_fig2_errors_positive_and_decreasing_in_k(fig12_tables):
    _, (equal_space, equal_counters) = fig12_tables
    for table in (equal_space, equal_counters):
        for algorithm in FOUR_ALGORITHMS:
            errors = [
                row["max_error"]
                for row in table.rows
                if row["algorithm"] == algorithm
            ]
            assert all(error >= 0 for error in errors)
            assert errors[-1] <= errors[0]  # larger k, smaller error


def test_fig2_equal_k_rbmc_smin_mhe_indistinguishable(fig12_tables):
    """The paper's Figure 2 note, as an assertion."""
    _, (_, equal_counters) = fig12_tables
    for k in TINY.k_values:
        rbmc = equal_counters.cell({"algorithm": "RBMC", "k": k}, "max_error")
        smin = equal_counters.cell({"algorithm": "SMIN", "k": k}, "max_error")
        mhe = equal_counters.cell({"algorithm": "MHE", "k": k}, "max_error")
        scale = max(rbmc, smin, mhe, 1.0)
        assert abs(rbmc - smin) / scale < 0.15
        assert abs(rbmc - mhe) / scale < 0.15


def test_claims_table(fig12_tables):
    table = claims_table(TINY)
    assert len(table.rows) == 7
    for row in table.rows:
        assert row["measured_min"] <= row["measured_max"]


def test_fig3_shape():
    table = fig3_quantile_tradeoff(TINY)
    ks = sorted(set(table.column("k")))
    assert ks == sorted(TINY.k_values[-2:])
    for k in ks:
        rows = [row for row in table.rows if row["k"] == k]
        by_quantile = {row["quantile_pct"]: row for row in rows}
        # Error grows with the quantile; decrement count shrinks.
        assert by_quantile[98]["max_error"] >= by_quantile[0]["max_error"]
        assert by_quantile[98]["decrements"] <= by_quantile[0]["decrements"]


def test_fig4_shape():
    table = fig4_merge(TINY)
    procedures = set(table.column("procedure"))
    assert procedures == {"ours(Alg5)", "Hoa61", "ACH+13"}
    for row in table.rows:
        assert row["seconds"] > 0
        assert row["mean_max_error"] >= 0
        if row["procedure"] == "ours(Alg5)":
            assert row["scratch_bytes"] == 0
        else:
            assert row["scratch_bytes"] > 0


def test_space_table():
    table = space_table((1024, 3072))
    assert table.cell({"k": 3072}, "bytes_per_counter_ours") == pytest.approx(
        24.0, abs=0.1
    )
    ours = table.cell({"k": 1024}, "smed_smin_rbmc")
    assert table.cell({"k": 1024}, "mhe") > ours
    assert table.cell({"k": 1024}, "med") > ours


def test_context_table():
    table = context_table(TINY)
    names = table.column("algorithm")
    assert any("SMED" in name for name in names)
    assert any("CountMin" in name for name in names)
    assert all(seconds > 0 for seconds in table.column("seconds"))


def test_bounds_table_all_hold():
    table = bounds_table(TINY)
    assert len(table.rows) == 4
    assert all(table.column("holds"))


def test_ablation_tables():
    policies = ablation_policies(TINY)
    assert len(policies.rows) == 4
    sample = ablation_sample_size(TINY)
    assert sample.column("ell") == [8, 32, 128, 512, 1024]
    backend = ablation_backend(TINY)
    assert set(backend.column("backend")) == {"probing", "dict"}
    order = ablation_merge_order(TINY)
    assert set(order.column("order")) == {"in-order", "random"}
    assert all(probes > 0 for probes in order.column("probes"))
