"""Printing, result files, the all-workloads runner and the A/A check."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

from benchmarks.perf import HERE, ROOT, WORK_DIR
from benchmarks.perf import trace as tracing
from benchmarks.perf.compare import quartiles, spread, worse_by
from benchmarks.perf.metrics import (
    END_TO_END,
    END_TO_END_NAMES,
    GATED_WORKLOADS,
    PER_LAYER_NAMES,
    UNITS,
    WORKLOAD_NAMES,
)

RUN_PY = os.path.join(HERE, "run.py")
AA_FILE = os.path.join(HERE, "aa_spreads.json")
TRACE_DIR = os.path.join(WORK_DIR, "traces")


def environment() -> Dict[str, object]:
    """What the numbers were measured on; written into every result file."""
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "platform": platform.platform(),
    }


def _number(value) -> float:
    """A JSON-safe number (a run with no good repeat has none to report)."""
    return float(value) if value == value and value is not None else 0.0


def driver_line(record: Dict[str, object]) -> str:
    """The one-line JSON object the driver reads from the end of stdout."""
    if record["traced"]:
        values = record.get("per_layer", {})
        names = PER_LAYER_NAMES
    else:
        values = record["end_to_end"]
        names = END_TO_END_NAMES
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": int(record["attempted"]),
            "failed": int(record["failed"]),
            "metrics": {
                name: {"value": _number(values.get(name, 0.0)), "unit": UNITS[name]}
                for name in names
            },
        }
    )


def print_record(record: Dict[str, object]) -> None:
    name = record["workload"]
    print(f"== {name}  seed {record['seed']}  "
          f"{'traced ' if record['traced'] else ''}{'SMOKE ' if record['smoke'] else ''}==")
    print(f"input: {json.dumps(record.get('input', {}))}")
    samples = record.get("samples", {})
    for metric in END_TO_END_NAMES:
        value = record["end_to_end"].get(metric)
        count = samples.get(metric)
        note = f"  (n={count})" if count else ""
        print(f"  {metric:28} {_number(value):14.4f} {UNITS[metric]:6}{note}")
    failed, attempted = record["failed"], record["attempted"]
    print(f"  {'failed_ops_share':28} {failed / attempted:14.4f} {'ratio':6}  "
          f"({failed} of {attempted} operations)")
    for metric, value in record.get("extra", {}).items():
        count = samples.get(metric)
        note = f"  (n={count})" if count else ""
        print(f"  {metric:28} {_number(value):14.4f} {UNITS.get(metric, ''):6}{note}")
    if record["traced"]:
        print("  per-layer (a layer this workload does not run reports 0 and is not shown):")
        for metric in PER_LAYER_NAMES:
            value = record["per_layer"].get(metric, 0.0)
            if value:
                print(f"    {metric:38} {_number(value):16.6g} {UNITS[metric]}")
        shares = record.get("shares")
        if shares and shares.get("repeats"):
            wall = shares["wall_s"]
            print(f"  share of traced closure wall ({wall:.4f} s, mean of {shares['repeats']}), "
                  f"self time by layer on the calling thread:")
            for layer, seconds in sorted(shares["layers"].items(), key=lambda kv: -kv[1]):
                print(f"    {layer:38} {seconds:10.4f} s {100 * seconds / wall:6.1f} %")
            print(f"    {'covered by wrapped layers':38} {100 * shares['coverage']:17.1f} %")


def finish_single(record: Dict[str, object], out: Optional[str]) -> int:
    """Print one workload's record, write its files, emit the driver line."""
    dumps = [d for d in (record.pop("trace_dump", None), record.pop("daemon_dump", None)) if d]
    if dumps:
        path = os.path.join(TRACE_DIR, f"{record['workload']}-seed{record['seed']}.json")
        tracing.write_chrome_trace(path, dumps)
        print(f"chrome trace: {os.path.relpath(path, ROOT)}")
    print_record(record)
    if out:
        write_results(out, [record])
    print(driver_line(record), flush=True)
    return 0 if record["failed"] == 0 else 1


def write_results(path: str, records: List[Dict[str, object]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"environment": environment(),
             "workloads": {r["workload"]: r for r in records}},
            fh, indent=1, sort_keys=True,
        )


# ---------------------------------------------------------------------------
# every workload, each in a fresh subprocess
# ---------------------------------------------------------------------------


def run_subprocess(name: str, seed: int, seconds: float, trace: int, smoke: bool,
                   quiet: bool = False) -> Dict[str, object]:
    """One workload in a fresh process; returns its record (exit status kept)."""
    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        out = os.path.join(tmp, "result.json")
        command = [sys.executable, RUN_PY, "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace), "--out", out]
        if smoke:
            command.append("--smoke")
        done = subprocess.run(
            command, stdout=subprocess.PIPE if quiet else None, text=True, check=False
        )
        if not os.path.exists(out):
            raise RuntimeError(f"{name} produced no result (exit {done.returncode})")
        with open(out, encoding="utf-8") as fh:
            record = json.load(fh)["workloads"][name]
    record["exit"] = done.returncode
    return record


def run_many(args, seconds: float) -> int:
    names = args.workload or WORKLOAD_NAMES
    records = []
    for name in names:
        records.append(run_subprocess(name, args.seed, seconds, int(bool(args.trace)), args.smoke))
        sys.stdout.flush()
    print("\n== summary ==")
    header = f"{'metric':24} {'unit':5}" + "".join(f"{n:>20}" for n in names)
    print(header)
    for metric in END_TO_END_NAMES:
        cells = "".join(f"{_number(r['end_to_end'].get(metric)):>20.4f}" for r in records)
        print(f"{metric:24} {UNITS[metric]:5}{cells}")
    cells = "".join(f"{r['failed'] / r['attempted']:>20.4f}" for r in records)
    print(f"{'failed_ops_share':24} {'ratio':5}{cells}")
    extras = sorted({m for r in records for m in r.get("extra", {})})
    for metric in extras:
        cells = "".join(
            f"{_number(r['extra'][metric]):>20.4f}" if metric in r.get("extra", {}) else f"{'null':>20}"
            for r in records
        )
        print(f"{metric:24} {UNITS.get(metric, ''):5}{cells}")
    if args.out:
        write_results(args.out, records)
    return 0 if all(r["failed"] == 0 and r["exit"] == 0 for r in records) else 1


# ---------------------------------------------------------------------------
# A/A: the same code measured twice
# ---------------------------------------------------------------------------


def run_aa(args, seconds: float) -> int:
    """Two sets of runs over ``--aa-seeds`` seeds per gated workload, as the
    driver makes them; prints each end-to-end metric's quartile spread and the shift
    of the second set's median beside its bound, and records them."""
    names = args.workload or GATED_WORKLOADS
    seeds = [args.seed + i for i in range(args.aa_seeds)]
    sets: List[Dict[str, Dict[str, List[float]]]] = []
    failed = 0
    for which in (1, 2):
        values: Dict[str, Dict[str, List[float]]] = {n: {m: [] for m in END_TO_END_NAMES} for n in names}
        for name in names:
            for seed in seeds:
                record = run_subprocess(name, seed, seconds, 0, args.smoke, quiet=True)
                failed += record["failed"] + (1 if record["exit"] else 0)
                for metric in END_TO_END_NAMES:
                    values[name][metric].append(_number(record["end_to_end"].get(metric)))
                print(f"set {which} {name} seed {seed}: " + " ".join(
                    f"{m}={values[name][m][-1]:.4g}" for m in END_TO_END_NAMES), flush=True)
        sets.append(values)

    misses = 0
    cells: Dict[str, Dict[str, Dict[str, float]]] = {}
    print(f"\n{'workload':20} {'metric':22} {'bound':>6} {'spread1':>8} {'spread2':>8} "
          f"{'median1':>12} {'median2':>12} {'shift':>8}")
    for name in names:
        cells[name] = {}
        for metric, _, better, bound in END_TO_END:
            first, second = sets[0][name][metric], sets[1][name][metric]
            spreads = [spread(first), spread(second)]
            medians = [quartiles(first)[1], quartiles(second)[1]]
            shift = worse_by(medians[0], medians[1], better)
            ok = shift <= bound and (metric == "setup_s" or max(spreads) <= bound)
            misses += 0 if ok else 1
            cells[name][metric] = {
                "bound": bound, "spread_first": spreads[0], "spread_second": spreads[1],
                "median_first": medians[0], "median_second": medians[1],
                "second_worse_by": shift, "within_bound": ok,
            }
            print(f"{name:20} {metric:22} {bound:>6.2f} {spreads[0]:>8.4f} {spreads[1]:>8.4f} "
                  f"{medians[0]:>12.5g} {medians[1]:>12.5g} {shift:>+8.4f}"
                  f"{'' if ok else '  MISS'}")
    if not args.smoke:
        with open(AA_FILE, "w", encoding="utf-8") as fh:
            json.dump(
                {"environment": environment(), "seconds": seconds, "seeds": seeds,
                 "cells": cells},
                fh, indent=1, sort_keys=True,
            )
            fh.write("\n")
        print(f"spreads written to {os.path.relpath(AA_FILE, ROOT)}")
    print(f"{misses} cell(s) outside their bound, {failed} failed operation(s)")
    return 0 if misses == 0 and failed == 0 else 1
