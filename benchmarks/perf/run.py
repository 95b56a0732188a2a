#!/usr/bin/env python3
"""One-command end-to-end benchmark of the Graspan reproduction.

    python3 benchmarks/perf/run.py                       # all six workloads
    python3 benchmarks/perf/run.py --workload dense-reach --seed 3 --trace 1
    python3 benchmarks/perf/run.py --aa                  # same code twice
    python3 benchmarks/perf/run.py --smoke               # seconds, not minutes

With one ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: every end-to-end metric
with ``--trace 0``, every per-layer metric with ``--trace 1``.  With none,
or several, each workload runs in a fresh subprocess of this script and a
table of every metric is printed.  See README.md beside this file.
"""

from __future__ import annotations

import os
import sys
import time

_PROCESS_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# The script's directory leaves the import path (trace.py there would
# shadow the standard library's); the program is imported from src/.
sys.path[0:1] = [os.path.join(ROOT, "src"), ROOT]

#: glibc allocator settings the workload process runs under.  Closures
#: allocate and free arrays of tens of MB per iteration; by default glibc
#: returns them to the kernel and page-faults them back, which made one
#: closure's time swing 0.7-0.95 s run to run.  Keeping freed memory in the
#: heap removes that swing (and about a quarter of the time) on both sides
#: of any comparison.
ALLOCATOR_ENV = {
    "MALLOC_TOP_PAD_": str(256 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(4 << 30),
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    # One arena: lease-worker and daemon threads otherwise each keep a heap
    # of their own, and peak RSS then depends on which thread freed what
    # (402-434 MB run to run on dense-reach-dist2w, against a steady 170).
    "MALLOC_ARENA_MAX": "1",
}
START_ENV = "GRASPAN_BENCH_START"

DEFAULT_SEED = 1


def _reexec_under_allocator_env() -> None:
    """Restart this process with ``ALLOCATOR_ENV`` set (glibc reads it once)."""
    if all(os.environ.get(k) == v for k, v in ALLOCATOR_ENV.items()):
        return
    env = dict(os.environ, **ALLOCATOR_ENV)
    env.setdefault(START_ENV, repr(_PROCESS_START))
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)


def _parse_args(argv):
    import argparse

    from benchmarks.perf.metrics import WORKLOAD_NAMES

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="run only this workload (repeatable); default all six")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="closure/service time measured per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, nargs="?", const=1,
                        help="1: a traced run reporting the per-layer metrics")
    parser.add_argument("--out", help="write the full result records here as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every size constant; a functional check, not a measurement")
    parser.add_argument("--aa", action="store_true",
                        help="run the gated workloads twice over ten seeds; report spreads against the bounds")
    parser.add_argument("--aa-seeds", type=int, default=10, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _run_seconds() -> float:
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return float(json.load(fh)["run_seconds"])


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest waited-for child."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run_one(name: str, seed: int, seconds: float, traced: bool, smoke: bool):
    """Measure one workload in this process; returns its result record."""
    import shutil

    try:
        import repro  # noqa: F401  (the program under test; fail early without it)
    except ImportError as exc:
        raise SystemExit(f"cannot import the program from {ROOT}/src: {exc}")
    from benchmarks.perf import WORK_DIR, closure, service, workloads

    sizes = workloads.SMOKE_SIZES if smoke else workloads.SIZES
    workroot = os.path.join(WORK_DIR, f"{name}-{os.getpid()}")
    shutil.rmtree(workroot, ignore_errors=True)
    os.makedirs(workroot)
    started = float(os.environ.get(START_ENV, _PROCESS_START))
    startup_s = time.perf_counter() - started
    try:
        if name == "service-mix":
            record = service.run(seed, seconds, sizes, traced, startup_s, workroot,
                                 peak_rss_mb, _log)
        else:
            record = closure.run(workloads.CLOSURE_WORKLOADS[name], seed, seconds, sizes,
                                 traced, startup_s, workroot, peak_rss_mb, _log)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    record.update(workload=name, seed=seed, seconds=seconds, traced=traced, smoke=smoke)
    return record


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    from benchmarks.perf import report

    seconds = args.seconds if args.seconds is not None else (1.0 if args.smoke else _run_seconds())
    if args.aa:
        return report.run_aa(args, seconds)
    if args.workload and len(args.workload) == 1:
        _reexec_under_allocator_env()
        record = run_one(args.workload[0], args.seed, seconds, bool(args.trace), args.smoke)
        return report.finish_single(record, args.out)
    return report.run_many(args, seconds)


if __name__ == "__main__":
    sys.exit(main())
