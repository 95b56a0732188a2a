"""Differential fuzzing: the engine agrees with the Datalog oracle.

A handful of pinned seeds run here (the CI ``fuzz-smoke`` job and
``python -m repro fuzz`` sweep many more): the full default config
matrix — including the matmul backend and the crash/resume leg — must
match the oracle fact-for-fact and each other byte-for-byte, and the
fault-composed re-runs must end in a correct closure or a loud
corruption detection, never a silent wrong answer.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fuzz import (
    DEFAULT_CONFIGS,
    DifferentialMismatch,
    EngineConfig,
    case_for_seed,
    check_case,
    minic_case,
    oracle_closure,
    raw_case,
    run_seed,
)

#: Seeds pinned for the in-repo smoke: two MiniC (taint + nullflow), one
#: raw topology.  seed % 3 == 0 selects the raw family.
SMOKE_SEEDS = (1, 2, 3)


class TestDifferentialMatrix:
    @pytest.mark.parametrize("seed", SMOKE_SEEDS)
    def test_matrix_agrees_with_oracle(self, seed, tmp_path):
        case = case_for_seed(seed)
        outcomes = check_case(case, DEFAULT_CONFIGS, tmp_path)
        assert set(outcomes) == {c.name for c in DEFAULT_CONFIGS}
        assert all(o.status == "ok" for o in outcomes.values())
        # The resume leg must actually exercise crash/restore, not just
        # rerun cold — otherwise the matrix quietly loses a dimension.
        assert outcomes["budget-resume"].resumed

    def test_matmul_config_is_in_the_default_matrix(self):
        assert any(c.backend == "matmul" for c in DEFAULT_CONFIGS)
        assert any(c.resume for c in DEFAULT_CONFIGS)

    def test_serial_config_is_in_the_default_matrix(self):
        """The edge-pair reference is named, not left to the engine
        default (matmul whenever scipy is installed)."""
        serial = [c for c in DEFAULT_CONFIGS if c.backend == "serial"]
        assert serial and serial[0].describe() == "serial"

    def test_budgeted_resume_runs_the_batched_join(self):
        """Only edge-pair joins are cut into budget batches, so the
        crash/resume config under a budget must name one."""
        budgeted = [c for c in DEFAULT_CONFIGS if c.memory_budget and c.resume]
        assert budgeted
        assert all(c.backend in ("serial", "thread", "process") for c in budgeted)

    def test_empty_graph_case(self, tmp_path):
        seed = next(
            s for s in range(0, 90, 3) if "empty" in raw_case(s).name
        )
        case = raw_case(seed)
        assert case.graph.num_edges == 0
        outcomes = check_case(case, DEFAULT_CONFIGS, tmp_path)
        assert all(o.status == "ok" for o in outcomes.values())

    def test_broken_oracle_is_detected(self, tmp_path):
        case = case_for_seed(2)
        bogus = oracle_closure(case) | {(10**6, 10**6, 0)}
        with pytest.raises(DifferentialMismatch) as err:
            check_case(
                case, (EngineConfig("serial"),), tmp_path, oracle=bogus
            )
        assert err.value.missing  # the fact the engine rightly lacks
        assert not err.value.extra

    def test_mismatch_names_case_and_config(self, tmp_path):
        case = case_for_seed(2)
        bogus = oracle_closure(case) | {(10**6, 10**6, 0)}
        with pytest.raises(DifferentialMismatch, match=r"minic-2.*serial"):
            check_case(
                case, (EngineConfig("serial"),), tmp_path, oracle=bogus
            )


class TestFaultComposition:
    @pytest.mark.parametrize("seed", (1, 2))
    def test_fault_composed_rerun_survives(self, seed):
        result = run_seed(seed, configs=DEFAULT_CONFIGS[:1], fault=True)
        assert result.status == "ok", result.error
        assert result.fault_outcomes, "the fault leg did not run"
        assert set(result.fault_outcomes.values()) <= {
            "ok",
            "corruption-detected",
        }

    def test_fault_plans_vary_with_offset(self):
        a = run_seed(3, configs=DEFAULT_CONFIGS[:1], fault=True, fault_offset=0)
        b = run_seed(3, configs=DEFAULT_CONFIGS[:1], fault=True, fault_offset=1)
        assert a.status == b.status == "ok"
        assert a.fault_plan != b.fault_plan


class TestCaseDeterminism:
    """The whole campaign replays from a seed — across processes."""

    @pytest.mark.parametrize("seed", (1, 3))
    def test_same_seed_same_case_across_processes(self, seed):
        case = case_for_seed(seed)
        script = (
            "import json, sys, zlib\n"
            "from repro.fuzz import case_for_seed\n"
            f"case = case_for_seed({seed})\n"
            "print(json.dumps({\n"
            "    'name': case.name,\n"
            "    'edges': int(case.graph.num_edges),\n"
            "    'src': zlib.crc32(case.graph.src.tobytes()),\n"
            "    'keys': zlib.crc32(case.graph.keys.tobytes()),\n"
            "}))\n"
        )
        src_root = Path(__file__).resolve().parents[2] / "src"
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": str(src_root), "PATH": "/usr/bin:/bin"},
        )
        other = json.loads(out.stdout)
        import zlib

        assert other == {
            "name": case.name,
            "edges": int(case.graph.num_edges),
            "src": zlib.crc32(case.graph.src.tobytes()),
            "keys": zlib.crc32(case.graph.keys.tobytes()),
        }

    def test_minic_sources_ride_along(self):
        case = minic_case(2)
        assert case.is_minic
        assert case.sources and case.graph_builder in (
            "pointer",
            "nullflow",
            "taint",
        )

    def test_raw_cases_have_no_sources(self):
        case = raw_case(3)
        assert not case.is_minic
