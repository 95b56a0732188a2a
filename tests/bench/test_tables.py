"""Smoke tests for the table-reproduction functions at tiny scale.

The real runs live in ``benchmarks/``; these verify the plumbing and the
shape contracts quickly.
"""

import pytest

from repro.bench import (
    ablation_dedup_merge,
    ablation_oldnew,
    ablation_scheduler,
    compile_workload,
    dataflow_input,
    figure4_series,
    graphchi_rows,
    race_rows,
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
    table5_rows,
    table6_rows,
)
from repro.grammar import pointsto_grammar_extended


@pytest.fixture(scope="module")
def httpd_small():
    return compile_workload("httpd", scale=0.5)


class TestTableFunctions:
    def test_table1(self):
        rows = table1_rows()
        assert len(rows) == 11
        assert {r["checker"] for r in rows} >= {"Null", "UNTest", "Race", "Taint", "Async"}

    def test_table2(self, httpd_small):
        rows = table2_rows([httpd_small])
        assert rows[0]["inlines"] == httpd_small.pg.inline_count
        assert rows[0]["paper_inlines"] == 58_269

    def test_table3_and_4(self, httpd_small):
        rows, result = table3_rows(httpd_small)
        by_name = {r["checker"]: r for r in rows}
        assert by_name["Null"]["gr_new_true"] == by_name["Null"]["truth"]
        t4 = table4_rows(httpd_small, result)
        total = next(r for r in t4 if r["module"] == "Total")
        assert total["untests"] > 0

    def test_race_rows(self, httpd_small):
        (row,) = race_rows([httpd_small])
        assert row["injected"] > 0
        assert row["gr_recall"] == 1.0
        assert row["gr_fp"] < row["bl_fp"]
        assert row["threads"] > 1
        assert row["extra_closure_runs"] == 0

    def test_table5_and_figure4(self, httpd_small):
        rows, stats = table5_rows([httpd_small], partitions_hint=3)
        assert len(rows) == 2  # pointer + dataflow
        pointer = next(r for r in rows if r["analysis"] == "pointer/alias")
        assert pointer["edges_final"] > pointer["edges_initial"]
        series = figure4_series(stats)
        assert len(series) == 2
        assert all(0 <= r["first_half_share"] <= 1 for r in series)

    def test_table6(self, httpd_small):
        rows = table6_rows(
            [httpd_small], memory_bytes=1 << 22, time_budget_seconds=30
        )
        assert all(r["graspan_status"] == "ok" for r in rows)

    def test_graphchi(self, httpd_small):
        rows = graphchi_rows(
            httpd_small, edge_budget=100_000, time_budget_seconds=20
        )
        by_system = {r["system"]: r for r in rows}
        assert by_system["Graspan (merge dedup)"]["status"] == "ok"
        assert by_system["vertex-centric (dedup=none)"]["status"] in (
            "diverged",
            "timeout",
        )

    def test_dataflow_input_has_sources(self, httpd_small):
        graph = dataflow_input(httpd_small)
        assert graph.num_edges > 0


class TestAblations:
    def test_oldnew_same_closure(self, httpd_small):
        rows = ablation_oldnew(httpd_small.pointer, pointsto_grammar_extended())
        full, oldnew = rows
        assert full["final_edges"] == oldnew["final_edges"]

    def test_dedup_variants_agree(self):
        import numpy as np

        rng = np.random.default_rng(1)
        arrays = [
            np.unique(rng.integers(0, 500, 80).astype(np.int64)) for _ in range(4)
        ]
        rows = ablation_dedup_merge(arrays)
        assert len(rows) == 3

    def test_scheduler_ablation(self, httpd_small):
        rows = ablation_scheduler(
            httpd_small.pointer, pointsto_grammar_extended(), partitions_hint=3
        )
        ddm, rr, sets = rows
        assert ddm["final_edges"] == rr["final_edges"] == sets["final_edges"]
        assert ddm["supersteps"] <= rr["supersteps"]
        assert sets["supersteps"] <= ddm["supersteps"]
