"""The whole benchmark command at smoke size, checked against its contract.

    PYTHONPATH=src python -m pytest benchmarks/perf/test_smoke.py

Not part of the tier-1 ``testpaths``: it starts daemons and lease workers
and takes about half a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_PY = os.path.join(HERE, "run.py")

sys.path.insert(0, ROOT)

from benchmarks.perf import compare, metrics, trace  # noqa: E402


def _run(*args, check=True):
    done = subprocess.run(
        [sys.executable, RUN_PY, *args], capture_output=True, text=True, check=False
    )
    if check:
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return done


def test_benchmark_json_lists_the_metrics_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert sorted(spec) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"
    ]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        w for w in metrics.WORKLOADS if w[0] in metrics.GATED_WORKLOADS
    ]
    assert len(spec["workloads"]) == len(metrics.GATED_WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == metrics.PER_LAYER
    assert "setup_s" in metrics.END_TO_END_NAMES
    assert all(bound <= 0.25 for *_, bound in metrics.END_TO_END)
    names = metrics.END_TO_END_NAMES + metrics.PER_LAYER_NAMES + metrics.WORKLOAD_NAMES
    assert len(names) == len(set(names))
    assert len(metrics.PER_LAYER) <= 128


def test_all_workloads_at_smoke_size(tmp_path):
    out = tmp_path / "smoke.json"
    done = _run("--smoke", "--out", str(out))
    results = json.loads(out.read_text())
    assert set(results["workloads"]) == set(metrics.WORKLOAD_NAMES)
    assert {"nproc", "cpu", "python", "numpy", "scipy"} <= set(results["environment"])
    for name, record in results["workloads"].items():
        assert record["failed"] == 0 and record["attempted"] >= 1, name
        for metric in metrics.END_TO_END_NAMES:
            assert record["end_to_end"][metric] > 0, (name, metric)
    assert "query_p99_ms" in results["workloads"]["service-mix"]["extra"]
    assert "disk_mb" in results["workloads"]["dataflow-ooc"]["extra"]
    assert "== summary ==" in done.stdout

    # The same file on both sides: nothing improved, nothing regressed.
    spec = [(n, better, bound) for n, _, better, bound in metrics.END_TO_END]
    rows = compare.compare([str(out)] * 2, [str(out)] * 2, spec)
    assert rows and {row["verdict"] for row in rows} == {"unchanged"}


def test_driver_line_and_traced_run():
    plain = _run("--workload", "dataflow-ooc", "--seed", "5", "--seconds", "1",
                 "--trace", "0", "--smoke")
    line = json.loads(plain.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == metrics.END_TO_END_NAMES
    assert all(m["value"] > 0 for m in line["metrics"].values())

    traced = _run("--workload", "dataflow-ooc", "--seed", "5", "--seconds", "1",
                  "--trace", "1", "--smoke")
    line = json.loads(traced.stdout.strip().splitlines()[-1])
    assert list(line["metrics"]) == metrics.PER_LAYER_NAMES
    values = {k: v["value"] for k, v in line["metrics"].items()}
    assert values["engine.checkpoint.commits"] > 0
    assert values["engine.session.coverage"] >= 0.9
    assert values["trace.overhead_ratio"] > 0
    assert values["distributed.leases_issued"] == 0  # a layer this workload does not run


def test_same_seed_same_inputs():
    from benchmarks.perf.workloads import SMOKE_SIZES, strongly_connected_digraph

    a = strongly_connected_digraph(7, SMOKE_SIZES["dense_n"])
    b = strongly_connected_digraph(7, SMOKE_SIZES["dense_n"])
    c = strongly_connected_digraph(8, SMOKE_SIZES["dense_n"])
    assert (a[0] == b[0]).all() and (a[1] == b[1]).all()
    assert not ((a[0] == c[0]).all() and (a[1] == c[1]).all())


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; second child [5, 9]
    spans = [
        [trace.ROOT_SPAN, 0.0, 10.0, -1, 0],
        ["partition:load", 1.0, 4.0, 0, 0],
        ["engine.join:join", 2.0, 3.0, 1, 0],
        ["engine.checkpoint:commit", 5.0, 9.0, 0, 0],
    ]
    assert trace.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    table = trace.share_table(spans)
    assert table["layers"] == {
        "engine.checkpoint": 4.0, "engine.join": 1.0,
        "engine.session.other": 3.0, "partition": 2.0,
    }
    assert abs(table["coverage"] - 0.7) < 1e-9


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [p * 0.8 for p in parent]
    slower = [p * 1.3 for p in parent]
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    assert compare.verdict(parent, faster, "lower", 0.10)[0] == "improved"
    assert compare.verdict(parent, slower, "lower", 0.10)[0] == "regressed"
    assert compare.verdict(parent, parent, "lower", 0.10)[0] == "unchanged"
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.10)[0] == "unresolved"
    assert compare.verdict(parent, slower, "higher", 0.10)[0] == "improved"


def test_exits_non_zero_without_the_program(tmp_path):
    """A tree holding only BENCHMARK.json and this directory cannot run."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "benchmarks" / "perf" / "run.py"),
         "--workload", "dense-reach", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, check=False, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
