"""Per-layer metrics of the engine, from public ``EngineStats`` plus spans.

Shared by the closure workloads (stats read in-process) and ``service-mix``
(stats rows and spans shipped out of the traced daemon), so both report a
layer the same way.  Every value is a mean per measured unit of work — one
closure, or one cold ``load`` — so it can be set beside ``closure_wall_s``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

from benchmarks.perf import trace as tracing


def stats_row(stats) -> Dict[str, float]:
    """The numbers of one ``EngineStats`` the layer metrics are built from."""
    matmul = stats.matmul_summary()
    per_worker: Dict[str, float] = defaultdict(float)
    for record in stats.supersteps:
        per_worker[record.worker] += record.seconds
    return {
        "supersteps": stats.num_supersteps,
        "iterations": sum(r.iterations for r in stats.supersteps),
        "edges_added": stats.total_edges_added,
        "loads": stats.partition_loads,
        "cache_hits": stats.cache_hits,
        "bytes_read": stats.bytes_read,
        "bytes_written": stats.bytes_written,
        "evictions": stats.evictions,
        "repartitions": stats.repartition_count,
        "peak_resident_bytes": stats.peak_resident_bytes,
        "io_retries": stats.io_retries,
        "matmul_products": matmul["products"],
        "matmul_nnz": matmul["product_nnz"],
        "matmul_built": matmul["blocks_built"],
        "matmul_reused": matmul["blocks_reused"],
        "io_busy_s": stats.io_busy_seconds,
        "io_hidden_s": stats.io_hidden_seconds,
        "load_wait_s": stats.load_wait_seconds,
        "flush_wait_s": stats.flush_wait_seconds,
        "prefetch_issued": stats.prefetch_issued,
        "prefetch_hits": stats.prefetch_hits,
        "prefetch_wasted": stats.prefetch_wasted,
        "checkpoint_s": stats.timers.get("checkpoint"),
        "commits": stats.checkpoints_written,
        "files_purged": stats.files_purged,
        "compute_s": stats.timers.get("compute"),
        "io_s": stats.timers.get("io"),
        "preprocess_s": stats.timers.get("preprocess"),
        "leases_issued": stats.leases_issued,
        "leases_reissued": stats.leases_reissued,
        "delta_edges": stats.delta_edges_applied,
        "worker_compute_s": sum(per_worker.values()),
        "busiest_worker_s": max(per_worker.values(), default=0.0),
    }


def aggregate(
    threads: Iterable[Tuple[str, List[list]]],
    lo: float = float("-inf"),
    hi: float = float("inf"),
) -> Tuple[Dict[str, Tuple[int, float]], Dict[str, float]]:
    """Span totals and per-layer self seconds of spans started in ``[lo, hi)``.

    Returns ``({span name: (calls, seconds)}, {layer: self seconds})`` over
    every thread given — background I/O and lease-worker threads included.
    """
    totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    layer_self: Dict[str, float] = defaultdict(float)
    for _, spans in threads:
        for span, own in zip(spans, tracing.self_times(spans)):
            if lo <= span[tracing.START] < hi:
                cell = totals[span[tracing.NAME]]
                cell[0] += 1
                cell[1] += span[tracing.END] - span[tracing.START]
                layer_self[tracing.layer_of(span[tracing.NAME])] += own
    return {k: (int(c), s) for k, (c, s) in totals.items()}, dict(layer_self)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def engine_layers(
    rows: List[Dict[str, float]],
    totals: Dict[str, Tuple[int, float]],
    layer_self: Dict[str, float],
    join_candidates: float,
    units: int,
) -> Dict[str, float]:
    """partition / engine.* / distributed.* metrics, each a mean per unit."""
    units = max(1, units)

    def mean(key: str) -> float:
        return sum(row[key] for row in rows) / units

    def span_s(*names: str) -> float:
        return sum(totals.get(n, (0, 0.0))[1] for n in names) / units

    def span_calls(*names: str) -> float:
        return sum(totals.get(n, (0, 0))[0] for n in names) / units

    # Non-distributed records carry worker "" and their own seconds; only
    # leased supersteps are worker compute.
    leased = bool(mean("leases_issued"))
    worker_s = mean("worker_compute_s") if leased else 0.0
    busiest_s = mean("busiest_worker_s") if leased else 0.0
    candidates = join_candidates / units
    return {
        "partition.preprocess_s": span_s("partition:preprocess"),
        "partition.load_s": span_s("partition:load"),
        "partition.loads": mean("loads"),
        "partition.bytes_read": mean("bytes_read"),
        "partition.save_s": span_s("partition:save"),
        "partition.bytes_written": mean("bytes_written"),
        "partition.evictions": mean("evictions"),
        "partition.cache_hit_ratio": _ratio(mean("cache_hits"), mean("cache_hits") + mean("loads")),
        "partition.repartitions": mean("repartitions"),
        "partition.peak_resident_bytes": max((row["peak_resident_bytes"] for row in rows), default=0),
        "partition.io_retries": mean("io_retries"),
        "engine.scheduler.choose_s": span_s("engine.scheduler:choose", "engine.scheduler:peek"),
        "engine.supersteps": mean("supersteps"),
        "engine.superstep.self_s": layer_self.get("engine.superstep", 0.0) / units,
        "engine.superstep.iterations": mean("iterations"),
        "engine.superstep.edges_added": mean("edges_added"),
        "engine.join.s": span_s("engine.join:join"),
        "engine.join.calls": span_calls("engine.join:join"),
        "engine.join.candidates": candidates,
        "engine.join.useful_ratio": _ratio(mean("edges_added"), candidates),
        "engine.matmul.s": span_s("engine.matmul:join"),
        "engine.matmul.products": mean("matmul_products"),
        "engine.matmul.product_nnz": mean("matmul_nnz"),
        "engine.matmul.blocks_built": mean("matmul_built"),
        "engine.matmul.block_reuse_ratio": _ratio(
            mean("matmul_reused"), mean("matmul_built") + mean("matmul_reused")
        ),
        "engine.matmul.fallbacks": span_calls("engine.matmul:fallback"),
        "engine.pipeline.io_busy_s": mean("io_busy_s"),
        "engine.pipeline.overlap_fraction": _ratio(mean("io_hidden_s"), mean("io_busy_s")),
        "engine.pipeline.load_wait_s": mean("load_wait_s"),
        "engine.pipeline.flush_wait_s": mean("flush_wait_s"),
        "engine.pipeline.prefetch_issued": mean("prefetch_issued"),
        "engine.pipeline.prefetch_hit_ratio": _ratio(mean("prefetch_hits"), mean("prefetch_issued")),
        "engine.pipeline.prefetch_wasted": mean("prefetch_wasted"),
        "engine.checkpoint.s": mean("checkpoint_s"),
        "engine.checkpoint.commits": mean("commits"),
        "engine.checkpoint.s_per_commit": _ratio(mean("checkpoint_s"), mean("commits")),
        "engine.checkpoint.files_purged": mean("files_purged"),
        "engine.session.compute_s": mean("compute_s"),
        "engine.session.io_s": mean("io_s"),
        "engine.session.preprocess_s": mean("preprocess_s"),
        "distributed.leases_issued": mean("leases_issued"),
        "distributed.leases_reissued": mean("leases_reissued"),
        "distributed.worker_compute_s": worker_s,
        "distributed.busiest_worker_s": busiest_s,
        "distributed.fan_out": _ratio(worker_s, busiest_s),
        "distributed.delta_edges": mean("delta_edges"),
    }
