"""Measurement loop of the five closure workloads.

One run: build the instances (timed: set-up), one warm-up closure, then
timed repeats of ``GraspanEngine.run(graph)`` cycling over the instances,
each in a fresh workdir, until ``--seconds`` of closure wall time has been
measured (at least ``min_repeats`` repeats).  Every repeat's closure is digested
and compared with the instance's independently computed reference.

The calibration kernel (``calibrate.py``) is timed between repeats, and
every reported time is the measured wall time scaled to the reference
machine speed by the two kernel timings around it.

A traced run alternates untraced and traced repeats of the same instance
so that the tracing overhead is measured inside the run.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from benchmarks.perf import layers
from benchmarks.perf import trace as tracing
from benchmarks.perf import verify
from benchmarks.perf.calibrate import Calibrator
from benchmarks.perf.workloads import ClosureWorkload, Instance, sub_seed

MIN_TRACED_PAIRS = 2


def tree_bytes(path: Optional[str]) -> int:
    """Bytes under ``path``, each inode counted once (hard links share)."""
    if path is None or not os.path.isdir(path):
        return 0
    seen = set()
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            try:
                st = os.lstat(os.path.join(root, name))
            except FileNotFoundError:
                continue  # retired partition file purged while walking
            if (st.st_dev, st.st_ino) not in seen:
                seen.add((st.st_dev, st.st_ino))
                total += st.st_size
    return total


@dataclass
class _Repeat:
    """Outcome of one closure: wall time, stats, digest, disk, failure."""

    instance: int
    wall: float = 0.0  # at the reference machine speed
    raw_wall: float = 0.0  # as the clock read it
    prepare: float = 0.0  # fresh workdir + engine construction
    stats: object = None
    digest: Optional[verify.Digest] = None
    disk_bytes: int = 0
    error: Optional[str] = None


class ClosureRunner:
    def __init__(self, workload: ClosureWorkload, seed: int, sizes, workroot: str) -> None:
        self.calibrator = Calibrator()
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.workroot = workroot
        self.grammar = workload.grammar()
        self.instances: List[Instance] = []
        self.references: Dict[int, verify.Digest] = {}  # instance -> digest
        self._counter = 0

    def build_instances(self) -> List[float]:
        """Generate every instance; returns the seconds each set-up took."""
        times = []
        for index in range(int(self.sizes["instances"])):
            started = time.perf_counter()
            self.instances.append(
                self.workload.build(sub_seed(self.seed, index), self.sizes, self.grammar)
            )
            times.append(self.calibrator.at_reference(time.perf_counter() - started))
        return times

    @contextlib.contextmanager
    def fresh_workdir(self) -> Iterator[Optional[str]]:
        """A new empty workdir, removed on exit; None for in-memory workloads."""
        if not self.workload.out_of_core:
            yield None
            return
        self._counter += 1
        workdir = os.path.join(self.workroot, f"run-{self._counter:04d}")
        os.makedirs(workdir)
        try:
            yield workdir
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def engine(self, graph, workdir: Optional[str]):
        from repro import GraspanEngine

        return GraspanEngine(
            self.grammar, **self.workload.engine_args(graph, workdir, self.sizes)
        )

    def closure(self, index: int, tracer=None) -> _Repeat:
        """One closure of instance ``index`` in a fresh workdir.

        With a ``tracer`` the wrappers are installed around the engine call
        alone, so reading the result back for its digest leaves no spans.
        """
        repeat = _Repeat(index)
        graph = self.instances[index].graph
        started = time.perf_counter()
        with self.fresh_workdir() as workdir:
            engine = self.engine(graph, workdir)
            repeat.prepare = time.perf_counter() - started
            try:
                if tracer is not None:
                    tracing.install(tracer)
                try:
                    started = time.perf_counter()
                    computation = engine.run(graph)
                    repeat.raw_wall = time.perf_counter() - started
                finally:
                    if tracer is not None:
                        tracer.uninstall()
                repeat.wall = self.calibrator.at_reference(repeat.raw_wall)
                repeat.stats = computation.stats
                repeat.disk_bytes = tree_bytes(workdir)
                repeat.digest = verify.digest_computation(computation)
            except Exception as exc:  # a failed operation is counted, not fatal
                repeat.error = f"{type(exc).__name__}: {exc}"
        return repeat

    # ------------------------------------------------------------------
    def check(self, repeats: List[_Repeat], log) -> int:
        """Count repeats whose closure is wrong; logs each mismatch."""
        references = self.references
        failed = 0
        for repeat in repeats:
            if repeat.error is None:
                if repeat.instance not in references:
                    references[repeat.instance] = self.instances[repeat.instance].reference()
                want = references[repeat.instance]
                if repeat.digest != want:
                    repeat.error = f"closure digest {repeat.digest} != reference {want}"
            if repeat.error is not None:
                failed += 1
                log(f"FAILED repeat on instance {repeat.instance}: {repeat.error}")
        return failed

    def anchor_check(self, log) -> Optional[bool]:
        """The references against the checked-in digests, where a seed has any."""
        want = verify.expected(self.workload.name, self.seed) if self.sizes["anchored"] else None
        if want is None:
            return None
        got = [list(self.references[i]) for i in sorted(self.references)]
        if got != want[:len(got)]:
            log(f"FAILED reference digests {got} != checked-in {want}")
            return False
        return True

    def datalog_check(self, log) -> Optional[bool]:
        """The workload's engine config against Datalog at reduced scale."""
        if self.workload.datalog_graph is None:
            return None
        graph = self.workload.datalog_graph(self.seed, self.sizes, self.grammar)
        try:
            with self.fresh_workdir() as workdir:
                computation = self.engine(graph, workdir).run(graph)
                ok = verify.datalog_agrees(graph, self.grammar, computation)
        except Exception as exc:
            log(f"FAILED datalog check: {type(exc).__name__}: {exc}")
            return False
        if not ok:
            log(f"FAILED datalog check on {graph.num_edges} input edges")
        return ok


def run(workload: ClosureWorkload, seed: int, seconds: float, sizes, traced: bool,
        startup_s: float, workroot: str, rss_mb, log) -> Dict[str, object]:
    """Measure one closure workload; returns the result record."""
    runner = ClosureRunner(workload, seed, sizes, workroot)
    setup_times = runner.build_instances()
    warmup = runner.closure(0)
    instance_s = statistics.median(setup_times)
    # Interpreter start and imports ran before any kernel timing; they are
    # scaled by the speed of the whole set-up.
    speed = runner.calibrator.mean_speed()
    startup_s *= speed
    warmup_s = warmup.prepare * speed + warmup.wall

    count = len(runner.instances)
    plain: List[_Repeat] = []
    traced_repeats: List[_Repeat] = []
    tracer = tracing.Tracer() if traced else None
    min_repeats = int(sizes["min_repeats"])
    enough = min(MIN_TRACED_PAIRS, min_repeats) if traced else min_repeats
    spent = 0.0
    while True:
        index = len(plain) % count
        pair = [runner.closure(index)]
        plain.append(pair[0])
        if tracer is not None:
            tracer.repeat = len(traced_repeats)
            pair.append(runner.closure(index, tracer))
            traced_repeats.append(pair[1])
        # A repeat that raised measured nothing; charge it a share of the
        # budget so a run of failures still ends.
        spent += sum(r.raw_wall if r.error is None else seconds / min_repeats for r in pair)
        if spent >= seconds and len(plain) >= enough:
            break
    peak_rss = rss_mb()  # before verification allocates its references

    everything = [warmup] + plain + traced_repeats
    failed = runner.check(everything, log)
    attempted = len(everything)
    for ok in (runner.anchor_check(log), runner.datalog_check(log)):
        if ok is not None:
            attempted += 1
            failed += 0 if ok else 1

    good = [r for r in plain if r.error is None]
    walls = [r.wall for r in good] or [float("nan")]
    # The instances differ in size by a few percent, so the median over all
    # repeats would be the middle instance's: take each instance's median,
    # then the mean over the instances.
    by_instance: Dict[int, List[_Repeat]] = {}
    for repeat in good:
        by_instance.setdefault(repeat.instance, []).append(repeat)
    medians = [statistics.median(r.wall for r in rs) for rs in by_instance.values()]
    edges = [rs[0].stats.final_edges for rs in by_instance.values()]
    wall = statistics.fmean(medians) if medians else float("nan")
    rate = sum(edges) / sum(medians) if medians else float("nan")
    sample = good[0].stats if good else None
    record: Dict[str, object] = {
        "attempted": attempted,
        "failed": failed,
        "samples": {"closure_wall_s": len(good), "setup_s": len(setup_times)},
        "input": {
            "instances": count,
            "input_edges": [int(i.graph.num_edges) for i in runner.instances],
            "reference_digests": [list(runner.references[i]) for i in sorted(runner.references)],
            "supersteps": sample.num_supersteps if sample else 0,
            "walls_s": [round(w, 4) for w in walls],
            "raw_walls_s": [round(r.raw_wall, 4) for r in good],
            "machine_speed": round(runner.calibrator.median_speed(), 4),
            "setup_parts_s": {
                "startup": round(startup_s, 4),
                "instance_median": round(instance_s, 4),
                "warmup_closure": round(warmup_s, 4),
            },
        },
        "end_to_end": {
            "closure_wall_s": wall,
            "closure_edges_per_s": rate,
            "peak_rss_mb": peak_rss,
            "setup_s": startup_s + instance_s + warmup_s,
        },
    }
    if workload.out_of_core:
        record["extra"] = {
            "disk_mb": statistics.median([r.disk_bytes for r in good] or [0]) / 1e6
        }
    if tracer is not None:
        record["per_layer"], record["shares"] = layer_metrics(
            runner, tracer, plain, traced_repeats, failed / attempted, log
        )
        record["per_layer"].update(record.get("extra", {}))
        record["trace_dump"] = tracer.dump()
    return record


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run
# ---------------------------------------------------------------------------


def layer_metrics(runner: ClosureRunner, tracer, plain, traced, failed_share, log):
    """Per-closure layer metrics: means over the traced repeats."""
    good = [r for r in traced if r.error is None]
    threads = tracer.all_spans()
    totals, layer_self = layers.aggregate(threads)
    out = layers.engine_layers(
        [layers.stats_row(r.stats) for r in good],
        totals,
        layer_self,
        tracer.counters.get("engine.join.candidates", 0.0),
        len(good),
    )
    main = next(
        (spans for _, spans in threads
         if any(s[tracing.NAME] == tracing.ROOT_SPAN for s in spans)),
        [],
    )
    shares = tracing.share_table(main)
    # Layer seconds are as the clock read them, so they are set beside the
    # traced repeats' raw wall; the overhead compares reference-speed walls.
    traced_wall = statistics.median([r.wall for r in good] or [0.0])
    traced_raw = statistics.median([r.raw_wall for r in good] or [0.0])
    plain_wall = statistics.median([r.wall for r in plain if r.error is None] or [0.0])
    out.update(
        {
            "failed_ops_share": failed_share,
            "engine.checkpoint.share_of_wall": (
                out["engine.checkpoint.s"] / traced_raw if traced_raw else 0.0
            ),
            "engine.session.other_s": shares["layers"].get("engine.session.other", 0.0),
            "engine.session.coverage": shares["coverage"],
            "trace.overhead_ratio": traced_wall / plain_wall if plain_wall else 0.0,
            "closure_raw_wall_s": traced_raw,
            "machine.speed_ratio": runner.calibrator.median_speed(),
        }
    )
    if out["distributed.leases_issued"] and good:
        serial_s = serial_compute_seconds(runner, good, log)
        lease_s = out["distributed.worker_compute_s"]
        out["distributed.work_inflation"] = lease_s / serial_s if serial_s else 0.0
        out["distributed.coordinator_self_s"] = traced_raw - out["distributed.busiest_worker_s"]
    return out, shares


def serial_compute_seconds(runner: ClosureRunner, good, log) -> float:
    """Mean compute seconds of the serial out-of-core engine on the same
    graphs and partition cap: the base of ``distributed.work_inflation``."""
    from repro import GraspanEngine

    total = 0.0
    for repeat in good:
        graph = runner.instances[repeat.instance].graph
        cap = runner.workload.engine_args(graph, None, runner.sizes)["max_edges_per_partition"]
        with runner.fresh_workdir() as workdir:
            serial = GraspanEngine(
                runner.grammar, max_edges_per_partition=cap, workdir=workdir
            ).run(graph)
            if verify.digest_computation(serial) != repeat.digest:
                log("FAILED serial baseline closure differs from the distributed one")
            total += serial.stats.timers.get("compute")
    return total / len(good)
