"""Command-line interface: ``python -m repro <subcommand>``.

Nine subcommands cover the system's main entry points:

``analyze``
    Run the pointer/alias + dataflow analyses and the checkers on a
    MiniC source file and print the reports — Graspan as the "backend
    analysis engine" for checkers (§1.4).

``closure``
    The raw engine: a text edge-list graph plus a text grammar file in,
    the grammar-guided transitive closure out (optionally written back
    as a text edge list), with the Table 5 style statistics.

``races``
    Run the interprocedural lockset race detector on a MiniC source
    file: one pointer-closure computation, then threads, locksets, and
    race reports derived from it without further engine runs.

``taint``
    Run the grammar-driven taint/injection analysis on a MiniC source
    file: ``input()`` sources, ``query()``/``exec()`` sinks,
    ``sanitize()`` barriers; unsanitized source-to-sink flows are
    reported with their context counts.

``workload``
    Generate one of the evaluation codebases to a directory (MiniC
    sources per module plus the ground-truth JSON).

``coordinator`` / ``worker``
    Distributed supersteps (DESIGN.md §16): the coordinator owns the
    scheduler, DDM, and checkpoint manifest for one closure and hands
    out pair leases over TCP; each worker shares nothing with it but
    the partition files in the workdir, joins its leased pair locally,
    and ships the new-edge delta back.  ``closure --backend
    distributed`` runs the same protocol self-contained with in-process
    workers.

``serve``
    Closure-as-a-service: start the daemon over a persistent closure
    store.  Programs loaded through it resolve as cache hits or
    incremental delta re-closures when possible; checker queries are
    served concurrently against pinned-resident closures, with bounded
    in-flight admission, optional per-request deadlines, and graceful
    ``SIGTERM`` drain.

``fuzz``
    Seeded differential fuzzing: generate adversarial MiniC programs
    and degenerate raw graphs, close them under every engine
    configuration in the matrix, compare against the Datalog oracle,
    re-run composed with seeded fault plans, and shrink any failure to
    a minimal repro artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional


def _positive_int(text: str) -> int:
    """argparse type: an integer strictly greater than zero."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite float strictly greater than zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not value > 0 or value != value or value == float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {text}"
        )
    return value


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.checkers import ALL_CHECKERS, check_program
    from repro.frontend import compile_program

    source = Path(args.file).read_text()
    pg = compile_program(
        source,
        module=args.module,
        context_depth=args.context_depth,
    )
    print(
        f"{args.file}: {pg.num_vertices} vertices, {pg.num_edges} edges, "
        f"{pg.inline_count} inlines",
        file=sys.stderr,
    )
    result = check_program(pg)
    wanted = set(args.checkers.split(",")) if args.checkers else None
    modes = ("baseline", "augmented") if args.mode == "both" else (args.mode,)
    exit_code = 0
    for mode in modes:
        table = result.baseline if mode == "baseline" else result.augmented
        for cls in ALL_CHECKERS:
            if wanted is not None and cls.name not in wanted:
                continue
            for report in table.get(cls.name, []):
                exit_code = 1
                print(
                    f"[{mode[:2].upper()}:{report.checker}] "
                    f"{report.function}:{report.line}: {report.message}"
                )
    return exit_code


def _cmd_closure(args: argparse.Namespace) -> int:
    from repro.engine import GraspanEngine
    from repro.grammar import parse_grammar_file
    from repro.graph import read_text, write_text
    from repro.util.faults import FaultInjector, FaultPlan
    from repro.util.memory import MemoryBudgetExceeded, parse_memory_size

    if args.resume and not args.workdir:
        print("error: --resume requires --workdir", file=sys.stderr)
        return 2
    grammar = parse_grammar_file(args.grammar)
    graph = read_text(args.graph)
    memory_budget = (
        parse_memory_size(args.memory_budget) if args.memory_budget else None
    )
    fault_plan = FaultPlan.from_env()
    injector = None
    if not fault_plan.empty():
        injector = FaultInjector(fault_plan)
        print(f"fault injection active: {fault_plan}", file=sys.stderr)
    distributed = None
    if args.backend == "distributed":
        distributed = {
            "workers": args.workers or args.threads,
            "lease_timeout": args.lease_timeout,
            "max_inflight": args.max_inflight,
        }
    engine = GraspanEngine(
        grammar,
        max_edges_per_partition=args.max_edges_per_partition,
        workdir=args.workdir,
        num_threads=args.threads,
        parallel_backend=args.backend,
        memory_budget=memory_budget,
        checkpoint=False if args.no_checkpoint else None,
        pipeline=args.pipeline,
        fault_injector=injector,
        distributed=distributed,
    )
    computation = engine.run(graph, resume=args.resume)
    try:
        computation.load_resident()
    except MemoryBudgetExceeded as exc:
        # Queries below still work; partitions cycle through the budget.
        print(f"not loading closure resident: {exc}", file=sys.stderr)
    stats = computation.stats
    print(
        f"closure: {stats.original_edges} -> {stats.final_edges} edges "
        f"({stats.growth_factor:.2f}x) in {stats.num_supersteps} supersteps, "
        f"{stats.final_partitions} partitions "
        f"({stats.repartition_count} repartitions); "
        f"compute {stats.timers.get('compute'):.2f}s "
        f"io {stats.timers.get('io'):.2f}s",
        file=sys.stderr,
    )
    par = stats.parallelism_summary()
    print(
        f"join backend {par['backend']}: {par['chunks']} chunks "
        f"(worst balance {par['worst_chunk_balance']}x), "
        f"pool {par['pool_s']}s vs serial-estimate {par['serial_estimate_s']}s "
        f"(~{par['speedup_estimate']}x)",
        file=sys.stderr,
    )
    if args.backend == "distributed":
        dist = stats.distributed_summary()
        print(
            f"distributed: {dist['workers']} workers, "
            f"{dist['leases_issued']} leases issued / "
            f"{dist['leases_completed']} completed, "
            f"{dist['leases_reissued']} reissued "
            f"({dist['reissue_fraction']:.1%}), "
            f"{dist['worker_deaths']} worker deaths, "
            f"{dist['delta_edges_applied']} delta edges applied, "
            f"{dist['duplicate_deltas_suppressed']} duplicates suppressed, "
            f"{dist['stale_deltas_rejected']} stale rejected",
            file=sys.stderr,
        )
    if str(par["backend"]).startswith("matmul"):
        mm = stats.matmul_summary()
        print(
            f"matmul: {mm['products']} label-block products "
            f"({mm['product_nnz']} nnz); "
            f"{mm['blocks_built']} blocks built, "
            f"{mm['blocks_reused']} reused "
            f"({mm['block_reuse_fraction']:.0%})",
            file=sys.stderr,
        )
    if memory_budget is not None:
        print(
            f"residency: budget {stats.memory_budget} B, "
            f"peak {stats.peak_resident_bytes} B resident, "
            f"{stats.evictions} evictions, {stats.cache_hits} cache hits, "
            f"{stats.partition_loads} loads; "
            f"read {stats.bytes_read} B, wrote {stats.bytes_written} B",
            file=sys.stderr,
        )
    dur = stats.durability_summary()
    if dur["checkpoint"] or args.resume or injector is not None:
        resumed = (
            f"resumed from superstep {dur['resumed_from']}"
            if dur["resumed_from"] is not None
            else "fresh run"
        )
        print(
            f"durability: {dur['checkpoints_written']} checkpoints "
            f"({dur['checkpoint_s']}s), {resumed}; "
            f"{dur['io_retries']} io retries, "
            f"{dur['tmp_scrubbed']} tmp scrubbed, "
            f"{dur['files_purged']} files purged, "
            f"{dur['worker_respawns']} worker respawns"
            + (", backend degraded" if dur["backend_degraded"] else ""),
            file=sys.stderr,
        )
    if stats.pipeline_enabled:
        pipe = stats.pipeline_summary()
        print(
            f"overlap: {pipe['overlap_fraction']:.0%} of background io hidden "
            f"({pipe['io_hidden_s']}s of {pipe['io_busy_s']}s); "
            f"prefetch {pipe['prefetch_hits']}/{pipe['prefetch_issued']} hits "
            f"({pipe['prefetch_wasted']} wasted); "
            f"waited {pipe['load_wait_s']}s loads, "
            f"{pipe['flush_wait_s']}s flushes",
            file=sys.stderr,
        )
    if args.label:
        src, dst = computation.edges_with_label_arrays(args.label)
        for s, d in zip(src.tolist(), dst.tolist()):
            print(f"{s}\t{d}\t{args.label}")
    if args.out:
        write_text(computation.to_memgraph(), args.out)
        print(f"full closure written to {args.out}", file=sys.stderr)
    return 0


def _cmd_races(args: argparse.Namespace) -> int:
    from repro.analysis.escape import EscapeAnalysis
    from repro.analysis.pointsto import PointsToAnalysis
    from repro.analysis.races import RaceAnalysis
    from repro.frontend import compile_program

    source = Path(args.file).read_text()
    pg = compile_program(
        source,
        module=args.module,
        context_depth=args.context_depth,
    )
    pointsto = PointsToAnalysis().run(pg)
    escape = EscapeAnalysis().run(pg, pointsto)
    races = RaceAnalysis().run(pg, pointsto, escape=escape)
    print(
        f"{args.file}: {len(pg.spawn_contexts)} spawn sites, "
        f"{races.num_threads} static threads, "
        f"{races.num_shared_objects} shared objects, "
        f"{races.num_accesses} heap accesses "
        f"(1 closure run, {pointsto.num_points_to_facts} points-to facts "
        "reused by escape + race clients)",
        file=sys.stderr,
    )
    for report in races.reports:
        print(report.describe())
    return 1 if races.reports else 0


def _cmd_taint(args: argparse.Namespace) -> int:
    from repro.analysis.pointsto import PointsToAnalysis
    from repro.analysis.taint import TaintAnalysis
    from repro.frontend import compile_program

    source = Path(args.file).read_text()
    pg = compile_program(
        source,
        module=args.module,
        context_depth=args.context_depth,
    )
    pointsto = PointsToAnalysis().run(pg)
    taint = TaintAnalysis().run(pg, pointsto=pointsto)
    print(
        f"{args.file}: {taint.num_tainted} tainted vertices, "
        f"{taint.num_flows} unsanitized source-to-sink flows "
        f"(taint grammar over {pointsto.num_points_to_facts} alias-aware "
        "points-to facts)",
        file=sys.stderr,
    )
    for flow in taint.flows:
        print(flow.describe())
    return 1 if taint.flows else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ClosureDaemon
    from repro.util.faults import FaultInjector, FaultPlan
    from repro.util.memory import parse_memory_size

    fault_plan = FaultPlan.from_env()
    injector = None
    if not fault_plan.empty():
        injector = FaultInjector(fault_plan)
        print(f"fault injection active: {fault_plan}", file=sys.stderr)
    daemon = ClosureDaemon(
        store_root=args.store,
        host=args.host,
        port=args.port,
        max_edges_per_partition=args.max_edges_per_partition,
        memory_budget=(
            parse_memory_size(args.memory_budget) if args.memory_budget else None
        ),
        num_threads=args.threads,
        parallel_backend=args.backend,
        num_workers=args.workers,
        fault_injector=injector,
        crash_mode="exit",
        announce=True,
        max_inflight=args.max_inflight,
        request_timeout=args.request_timeout,
        drain_grace=args.drain_grace,
    )
    daemon.serve_forever()
    return 0


def _cmd_coordinator(args: argparse.Namespace) -> int:
    import time

    from repro.distributed import DistributedCoordinator
    from repro.engine import GraspanEngine
    from repro.grammar import parse_grammar_file
    from repro.graph import read_text, write_text
    from repro.util.faults import FaultInjector, FaultPlan
    from repro.util.memory import parse_memory_size

    grammar = parse_grammar_file(args.grammar)
    graph = read_text(args.graph)
    fault_plan = FaultPlan.from_env()
    injector = None
    if not fault_plan.empty():
        injector = FaultInjector(fault_plan)
        print(f"fault injection active: {fault_plan}", file=sys.stderr)
    engine = GraspanEngine(
        grammar,
        max_edges_per_partition=args.max_edges_per_partition,
        workdir=args.workdir,
        parallel_backend="distributed",
        memory_budget=(
            parse_memory_size(args.memory_budget) if args.memory_budget else None
        ),
        checkpoint=False if args.no_checkpoint else None,
        fault_injector=injector,
    )
    with engine.session(graph, resume=args.resume) as session:
        coordinator = DistributedCoordinator(
            session,
            host=args.host,
            port=args.port,
            lease_timeout=args.lease_timeout,
            max_inflight=args.max_inflight,
            worker_backend=args.worker_backend,
        )
        coordinator.start()
        print(
            f"coordinator listening on {coordinator.host}:{coordinator.port}",
            file=sys.stderr,
            flush=True,
        )
        try:
            # Wait for the *drain*, not the first "done": stopping the
            # instant one worker sees the fixpoint races the others'
            # in-flight lease polls into connection-refused failures.
            while not coordinator.drained() and coordinator.failure is None:
                time.sleep(0.05)
        finally:
            coordinator.stop()
        if coordinator.failure is not None:
            raise coordinator.failure
        stats = session.stats
        dist = stats.distributed_summary()
        print(
            f"closure complete: {stats.num_supersteps} supersteps over "
            f"{dist['workers']} workers; {dist['leases_issued']} leases "
            f"issued, {dist['leases_reissued']} reissued, "
            f"{dist['worker_deaths']} worker deaths",
            file=sys.stderr,
        )
        if args.out:
            write_text(session.pset.to_memgraph(), args.out)
            print(f"full closure written to {args.out}", file=sys.stderr)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.distributed import DistributedWorker
    from repro.util.faults import FaultPlan
    from repro.util.memory import parse_memory_size

    fault_plan = FaultPlan.from_env()
    if fault_plan.empty():
        fault_plan = None
    else:
        print(f"fault injection active: {fault_plan}", file=sys.stderr)
    worker = DistributedWorker(
        args.host,
        args.port,
        workdir=args.workdir,
        worker_id=args.worker_id,
        memory_budget=(
            parse_memory_size(args.memory_budget) if args.memory_budget else None
        ),
        fault_plan=fault_plan,
        hard_kill=True,
    )
    completed = worker.run()
    print(f"{args.worker_id}: {completed} leases completed", file=sys.stderr)
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import os

    from repro.fuzz import DEFAULT_CONFIGS, FULL_CONFIGS, fuzz

    if args.seed_list:
        seeds = [int(s) for s in args.seed_list.split(",") if s.strip()]
    else:
        seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    configs = FULL_CONFIGS if args.full else DEFAULT_CONFIGS
    if args.configs:
        wanted = {name.strip() for name in args.configs.split(",")}
        configs = tuple(c for c in FULL_CONFIGS if c.name in wanted)
        unknown = wanted - {c.name for c in configs}
        if unknown:
            known = ", ".join(c.name for c in FULL_CONFIGS)
            print(
                f"error: unknown config(s) {sorted(unknown)}; known: {known}",
                file=sys.stderr,
            )
            return 2
    fault_offset = args.fault_seed
    if fault_offset is None:
        fault_offset = int(os.environ.get("REPRO_FAULT_SEED", "0") or "0")
    artifact_dir = Path(args.artifacts) if args.artifacts else None

    def progress(result) -> None:
        mark = "ok" if result.status == "ok" else "FAIL"
        print(
            f"{mark} seed {result.seed} {result.case_name} "
            f"({result.seconds:.2f}s)",
            file=sys.stderr,
            flush=True,
        )

    report = fuzz(
        seeds,
        configs=configs,
        artifact_dir=artifact_dir,
        fault=not args.no_fault,
        fault_offset=fault_offset,
        shrink=not args.no_shrink,
        on_result=progress,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.workloads import workload_by_name

    workload = workload_by_name(args.name, scale=args.scale)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for module, source in workload.sources:
        (out / f"{module}.c").write_text(source)
    truth = [
        {"checker": t.checker, "function": t.function, "variable": t.variable}
        for t in workload.ground_truth
    ]
    (out / "ground_truth.json").write_text(json.dumps(truth, indent=2))
    print(
        f"{workload.name}: {len(workload.sources)} modules, {workload.loc} LoC, "
        f"{len(truth)} ground-truth findings -> {out}",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Graspan reproduction: interprocedural static analysis "
        "as disk-based graph processing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run analyses + checkers on MiniC")
    analyze.add_argument("file", help="MiniC source file")
    analyze.add_argument("--module", default="", help="module label for reports")
    analyze.add_argument(
        "--context-depth",
        type=int,
        default=None,
        help="bound inlining depth (default: fully context-sensitive)",
    )
    analyze.add_argument(
        "--checkers", default=None, help="comma-separated checker names"
    )
    analyze.add_argument(
        "--mode",
        choices=("baseline", "augmented", "both"),
        default="augmented",
    )
    analyze.set_defaults(func=_cmd_analyze)

    closure = sub.add_parser("closure", help="raw grammar-guided closure")
    closure.add_argument("--graph", required=True, help="text edge-list file")
    closure.add_argument("--grammar", required=True, help="grammar text file")
    closure.add_argument("--label", default=None, help="print edges with this label")
    closure.add_argument("--out", default=None, help="write full closure here")
    closure.add_argument(
        "--max-edges-per-partition",
        type=int,
        default=None,
        dest="max_edges_per_partition",
        help="partition size threshold: sets the grain of loading and "
        "repartitioning, not how much is resident at once; without "
        "--memory-budget every dirty partition loads in each superstep",
    )
    closure.add_argument("--workdir", default=None)
    closure.add_argument(
        "--memory-budget",
        default=None,
        dest="memory_budget",
        help="resident-partition byte budget, e.g. 64M or 2G (requires "
        "--workdir); it sets how many partitions a superstep loads and "
        "how large the serial/thread/process edge-pair join batches are "
        "(the default matmul join runs whole), and partitions beyond it "
        "are evicted least-recently-used",
    )
    closure.add_argument(
        "--resume",
        action="store_true",
        help="resume from the last committed checkpoint in --workdir",
    )
    closure.add_argument(
        "--no-checkpoint",
        action="store_true",
        dest="no_checkpoint",
        help="disable the run journal + manifest even with --workdir",
    )
    closure.add_argument(
        "--pipeline",
        action="store_true",
        dest="pipeline",
        default=None,
        help="overlap disk I/O with compute: background prefetch of the "
        "predicted next pair + asynchronous write-back (requires "
        "--workdir; on by default when one is set)",
    )
    closure.add_argument(
        "--no-pipeline",
        action="store_false",
        dest="pipeline",
        help="force the sequential load/compute/flush loop",
    )
    closure.add_argument("--threads", type=int, default=1)
    closure.add_argument(
        "--backend",
        choices=("serial", "thread", "process", "matmul", "distributed"),
        default=None,
        help="join data plane (default: matmul = per-label boolean sparse "
        "matrix products when scipy is installed, else thread when "
        "--threads > 1, else serial; process = shared-memory worker pool; "
        "distributed = coordinator + in-process lease workers, requires "
        "--workdir)",
    )
    closure.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="lease workers for --backend distributed (default: --threads)",
    )
    closure.add_argument(
        "--lease-timeout",
        type=_positive_float,
        default=30.0,
        dest="lease_timeout",
        help="seconds before an unrenewed pair lease is reissued "
        "(--backend distributed)",
    )
    closure.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=None,
        dest="max_inflight",
        help="cap on concurrently leased pairs (--backend distributed)",
    )
    closure.set_defaults(func=_cmd_closure)

    races = sub.add_parser(
        "races", help="interprocedural lockset race detection on MiniC"
    )
    races.add_argument("file", help="MiniC source file")
    races.add_argument("--module", default="", help="module label for reports")
    races.add_argument(
        "--context-depth",
        type=int,
        default=None,
        help="bound inlining depth (default: fully context-sensitive)",
    )
    races.set_defaults(func=_cmd_races)

    taint = sub.add_parser(
        "taint", help="grammar-driven taint/injection analysis on MiniC"
    )
    taint.add_argument("file", help="MiniC source file")
    taint.add_argument("--module", default="", help="module label for reports")
    taint.add_argument(
        "--context-depth",
        type=int,
        default=None,
        help="bound inlining depth (default: fully context-sensitive)",
    )
    taint.set_defaults(func=_cmd_taint)

    coordinator = sub.add_parser(
        "coordinator",
        help="distributed supersteps: serve pair leases for one closure",
    )
    coordinator.add_argument("--graph", required=True, help="text edge-list file")
    coordinator.add_argument("--grammar", required=True, help="grammar text file")
    coordinator.add_argument(
        "--workdir",
        required=True,
        help="partition directory shared with the workers",
    )
    coordinator.add_argument("--host", default="127.0.0.1")
    coordinator.add_argument(
        "--port", type=int, default=0, help="0 picks a free port (announced on stderr)"
    )
    coordinator.add_argument(
        "--max-edges-per-partition",
        type=int,
        default=None,
        dest="max_edges_per_partition",
    )
    coordinator.add_argument(
        "--memory-budget",
        default=None,
        dest="memory_budget",
        help="coordinator-side resident-partition byte budget, e.g. 64M",
    )
    coordinator.add_argument(
        "--lease-timeout",
        type=_positive_float,
        default=30.0,
        dest="lease_timeout",
        help="seconds before an unrenewed pair lease is reissued",
    )
    coordinator.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=None,
        dest="max_inflight",
        help="cap on concurrently leased pairs",
    )
    coordinator.add_argument(
        "--worker-backend",
        choices=("serial", "thread", "matmul"),
        default=None,
        dest="worker_backend",
        help="join backend each worker runs locally (default: matmul when "
        "scipy is installed, else serial)",
    )
    coordinator.add_argument(
        "--resume",
        action="store_true",
        help="resume from the last committed checkpoint in --workdir",
    )
    coordinator.add_argument(
        "--no-checkpoint",
        action="store_true",
        dest="no_checkpoint",
        help="disable the run journal + manifest",
    )
    coordinator.add_argument("--out", default=None, help="write full closure here")
    coordinator.set_defaults(func=_cmd_coordinator)

    worker = sub.add_parser(
        "worker",
        help="distributed supersteps: pull and compute pair leases",
    )
    worker.add_argument("--host", default="127.0.0.1")
    worker.add_argument("--port", type=_positive_int, required=True)
    worker.add_argument(
        "--workdir",
        required=True,
        help="partition directory shared with the coordinator",
    )
    worker.add_argument(
        "--worker-id", default="worker", dest="worker_id", help="name in telemetry"
    )
    worker.add_argument(
        "--memory-budget",
        default=None,
        dest="memory_budget",
        help="worker-side partition-cache byte budget, e.g. 64M",
    )
    worker.set_defaults(func=_cmd_worker)

    serve = sub.add_parser(
        "serve", help="closure-as-a-service daemon over a persistent store"
    )
    serve.add_argument(
        "--store", required=True, help="closure store directory (created if missing)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="0 picks a free port (announced on stderr)"
    )
    serve.add_argument(
        "--max-edges-per-partition",
        type=int,
        default=None,
        dest="max_edges_per_partition",
    )
    serve.add_argument(
        "--memory-budget",
        default=None,
        dest="memory_budget",
        help="resident-partition byte budget per closure, e.g. 64M; also "
        "sets how many partitions a superstep loads (without it, every "
        "dirty partition)",
    )
    serve.add_argument("--threads", type=int, default=1)
    serve.add_argument(
        "--backend",
        choices=("serial", "thread", "process", "matmul"),
        default=None,
        help="join data plane of every closure the daemon runs (default: "
        "matmul when scipy is installed, else thread when --threads > 1, "
        "else serial)",
    )
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=8,
        help="concurrent query worker threads",
    )
    serve.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=32,
        dest="max_inflight",
        help="blocking requests admitted at once; the excess is shed "
        "with a typed 'overloaded' response",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        dest="request_timeout",
        help="per-request deadline in seconds (default: none)",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        dest="drain_grace",
        help="seconds SIGTERM waits for in-flight requests before stopping",
    )
    serve.set_defaults(func=_cmd_serve)

    fuzz = sub.add_parser(
        "fuzz",
        help="seeded differential fuzzing of the engine vs the Datalog oracle",
    )
    fuzz.add_argument(
        "--seeds", type=int, default=25, help="number of consecutive seeds"
    )
    fuzz.add_argument(
        "--first-seed",
        type=int,
        default=1,
        dest="first_seed",
        help="first seed of the consecutive range",
    )
    fuzz.add_argument(
        "--seed-list",
        default=None,
        dest="seed_list",
        help="explicit comma-separated seeds (overrides --seeds)",
    )
    fuzz.add_argument(
        "--full",
        action="store_true",
        help="widen the config matrix with the process pool and "
        "degenerate-partition configurations",
    )
    fuzz.add_argument(
        "--configs",
        default=None,
        help="comma-separated config names to run (subset of the matrix)",
    )
    fuzz.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        dest="fault_seed",
        help="offset for the per-case fault plans (default: "
        "REPRO_FAULT_SEED or 0)",
    )
    fuzz.add_argument(
        "--no-fault",
        action="store_true",
        dest="no_fault",
        help="skip the fault-composed re-run of each case",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        dest="no_shrink",
        help="skip ddmin shrinking of failing MiniC cases",
    )
    fuzz.add_argument(
        "--artifacts",
        default=None,
        help="directory for minimized repro artifacts of failing cases",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    workload = sub.add_parser("workload", help="generate an evaluation codebase")
    workload.add_argument("name", choices=("linux", "postgresql", "httpd"))
    workload.add_argument("--scale", type=float, default=1.0)
    workload.add_argument("--out", required=True)
    workload.set_defaults(func=_cmd_workload)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
