"""The benchmark's metric names, units and directions, in one place.

``BENCHMARK.json`` lists exactly these; ``test_smoke.py`` checks the two
agree.  An end-to-end metric is reported by every workload (the driver
compares each one per workload), so only quantities all six workloads
have are gated; what only some workloads have is in ``PER_LAYER``,
reported by ``--trace 1`` runs and never gated.  A layer that a workload
does not run reports 0.

Every time among the end-to-end metrics is wall time scaled to the
reference machine speed (``calibrate.py``).
"""

from __future__ import annotations

WORKLOADS = [
    ("pointer-ooc",
     "out-of-core pointer/alias closure under a memory budget: every engine layer at its realistic share"),
    ("pointer-matmul",
     "same graphs in memory on the matmul backend: engine.matmul does the work, partition/checkpoint/pipeline none"),
    ("dense-reach",
     "one-label dense reachability in memory, one superstep: join + dedup kernel only, no I/O"),
    ("dense-reach-dist2w",
     "dense reachability over 2 lease workers: the only workload where the distributed layer does the work"),
    ("dataflow-ooc",
     "NULL-dataflow closure over many small partitions: checkpoint/partition/scheduler/pipeline dominate, join is a few percent"),
    ("service-mix",
     "daemon under closed-loop clients: cold loads, check queries, source edits re-closed incrementally beside readers"),
]
WORKLOAD_NAMES = [name for name, _ in WORKLOADS]

#: The workloads ``BENCHMARK.json`` lists, which the driver runs and gates.
#: Its time limit covers 4 + 22 runs per workload, and on this shared host
#: a run has to measure for 25 s to be steady; that leaves room for four.
#: ``dense-reach`` (its join + dedup kernel is three quarters of
#: ``pointer-ooc``) and ``dense-reach-dist2w`` (5 s of each 7.6 s closure is
#: a fixed join timeout, so few repeats fit) run from the command line only.
GATED_WORKLOADS = ["pointer-ooc", "pointer-matmul", "dataflow-ooc", "service-mix"]

#: (name, unit, better, bound).  ``closure_wall_s`` on ``service-mix`` is
#: the cold ``load`` round trip (compile + four closures + store commit).
END_TO_END = [
    ("closure_wall_s", "s", "lower", 0.25),
    ("closure_edges_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
]

#: (name, unit, better).
PER_LAYER = [
    # What users of only some workloads see: reported, not gated.
    ("disk_mb", "MB", "lower"),
    ("query_p50_ms", "ms", "lower"),
    ("query_p99_ms", "ms", "lower"),
    ("query_qps", "1/s", "higher"),
    ("edit_reclosure_s", "s", "lower"),
    ("mixed_query_p95_ms", "ms", "lower"),
    ("failed_ops_share", "ratio", "lower"),
    # The clock's own reading of closure_wall_s, and the machine speed the
    # calibration kernel saw (1.0 = reference), whose quotient it is.
    ("closure_raw_wall_s", "s", "lower"),
    ("machine.speed_ratio", "ratio", "higher"),
    # frontend
    ("frontend.compile_s", "s", "lower"),
    ("frontend.loc_per_s", "1/s", "higher"),
    ("frontend.vertices", "count", "lower"),
    ("frontend.edges", "count", "lower"),
    # analysis
    ("analysis.pointsto_s", "s", "lower"),
    ("analysis.nullflow_s", "s", "lower"),
    ("analysis.taintflow_s", "s", "lower"),
    ("analysis.taint_s", "s", "lower"),
    ("analysis.escape_races_s", "s", "lower"),
    # checkers
    ("checkers.all_s", "s", "lower"),
    ("checkers.single_s", "s", "lower"),
    ("checkers.reports", "count", "higher"),
    # partition
    ("partition.preprocess_s", "s", "lower"),
    ("partition.load_s", "s", "lower"),
    ("partition.loads", "count", "lower"),
    ("partition.bytes_read", "B", "lower"),
    ("partition.save_s", "s", "lower"),
    ("partition.bytes_written", "B", "lower"),
    ("partition.evictions", "count", "lower"),
    ("partition.cache_hit_ratio", "ratio", "higher"),
    ("partition.repartitions", "count", "lower"),
    ("partition.peak_resident_bytes", "B", "lower"),
    ("partition.io_retries", "count", "lower"),
    # engine.scheduler
    ("engine.scheduler.choose_s", "s", "lower"),
    ("engine.supersteps", "count", "lower"),
    # engine.superstep
    ("engine.superstep.self_s", "s", "lower"),
    ("engine.superstep.iterations", "count", "lower"),
    ("engine.superstep.edges_added", "count", "higher"),
    # engine.join
    ("engine.join.s", "s", "lower"),
    ("engine.join.calls", "count", "lower"),
    ("engine.join.candidates", "count", "lower"),
    ("engine.join.useful_ratio", "ratio", "higher"),
    # engine.matmul
    ("engine.matmul.s", "s", "lower"),
    ("engine.matmul.products", "count", "lower"),
    ("engine.matmul.product_nnz", "count", "lower"),
    ("engine.matmul.blocks_built", "count", "lower"),
    ("engine.matmul.block_reuse_ratio", "ratio", "higher"),
    ("engine.matmul.fallbacks", "count", "lower"),
    # engine.pipeline
    ("engine.pipeline.io_busy_s", "s", "lower"),
    ("engine.pipeline.overlap_fraction", "ratio", "higher"),
    ("engine.pipeline.load_wait_s", "s", "lower"),
    ("engine.pipeline.flush_wait_s", "s", "lower"),
    ("engine.pipeline.prefetch_issued", "count", "lower"),
    ("engine.pipeline.prefetch_hit_ratio", "ratio", "higher"),
    ("engine.pipeline.prefetch_wasted", "count", "lower"),
    # engine.checkpoint
    ("engine.checkpoint.s", "s", "lower"),
    ("engine.checkpoint.commits", "count", "lower"),
    ("engine.checkpoint.s_per_commit", "s", "lower"),
    ("engine.checkpoint.files_purged", "count", "lower"),
    ("engine.checkpoint.share_of_wall", "ratio", "lower"),
    # engine.session: the share table every later issue quotes
    ("engine.session.compute_s", "s", "lower"),
    ("engine.session.io_s", "s", "lower"),
    ("engine.session.preprocess_s", "s", "lower"),
    ("engine.session.other_s", "s", "lower"),
    ("engine.session.coverage", "ratio", "higher"),
    # engine.store
    ("engine.store.closure_s", "s", "lower"),
    ("engine.store.cold", "count", "lower"),
    ("engine.store.incremental", "count", "higher"),
    ("engine.store.cache_hits", "count", "higher"),
    ("engine.store.incremental_hit_ratio", "ratio", "higher"),
    ("engine.store.incremental_supersteps", "count", "lower"),
    ("engine.store.cold_supersteps", "count", "lower"),
    ("engine.store.entries", "count", "lower"),
    ("engine.store.degraded_to_cold", "count", "lower"),
    # distributed
    ("distributed.leases_issued", "count", "lower"),
    ("distributed.leases_reissued", "count", "lower"),
    ("distributed.worker_compute_s", "s", "lower"),
    ("distributed.busiest_worker_s", "s", "lower"),
    ("distributed.fan_out", "ratio", "higher"),
    ("distributed.work_inflation", "ratio", "lower"),
    ("distributed.coordinator_self_s", "s", "lower"),
    ("distributed.delta_edges", "count", "lower"),
    # service
    ("service.ping_p50_ms", "ms", "lower"),
    ("service.check_all_p50_ms", "ms", "lower"),
    ("service.check_single_p50_ms", "ms", "lower"),
    ("service.load_incremental_p50_s", "s", "lower"),
    ("service.shed", "count", "lower"),
    ("service.client_retries", "count", "lower"),
    ("service.deadline_hits", "count", "lower"),
    ("service.requests_served", "count", "higher"),
    ("service.pinned_partitions", "count", "higher"),
    ("service.peak_resident_bytes", "B", "lower"),
    # trace
    ("trace.overhead_ratio", "ratio", "lower"),
]

END_TO_END_NAMES = [name for name, *_ in END_TO_END]
PER_LAYER_NAMES = [name for name, *_ in PER_LAYER]
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
