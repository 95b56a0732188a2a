"""The ``service-mix`` workload: the closure daemon under closed-loop clients.

``python -m repro serve`` runs as a subprocess over a fresh store.  Load is
a closed loop — every client sends its next request only when the previous
reply has arrived — from at most ``nproc`` client connections of this one
process.  ``--seconds`` is split over three phases:

A  cold    ``load`` programs the store has never seen, one after another
           (as many as fit in the phase at the nominal
           ``service_cold_load_s`` each, at least three): the round trips, scaled to the reference
           machine speed by the calibration kernel timed between them
           (``calibrate.py``), are ``closure_wall_s``.
B  reads   every client cycles ``check`` requests ``[all, Null, Taint,
           Free, Race]`` against the first program.
C  writes  one client re-``load``s the first program with one more
   beside  ``buf = p1;`` statement each time (each must resolve
   reads   ``incremental``), then the original source again (must resolve
           ``cache``), while the other clients keep issuing phase-B checks.

Every reply is checked: a ``check`` must report the same findings as the
reference reply of its kind, which is itself scored against the
generator's ground truth.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from benchmarks.perf import HERE, ROOT, layers, verify
from benchmarks.perf import trace as tracing
from benchmarks.perf.calibrate import Calibrator
from benchmarks.perf.closure import tree_bytes
from benchmarks.perf.workloads import generated_program, sub_seed

#: The per-client query mix: one broad all-checker sweep, then targeted
#: single-checker queries — what an editor integration produces.
CHECKER_MIX: List[Optional[str]] = [None, "Null", "Taint", "Free", "Race"]

#: Half the run goes to the cold loads, the one gated timing of the three.
PHASE_SHARES = {"cold": 0.50, "reads": 0.25, "writes": 0.25}
MIN_COLD_LOADS = 3
MIN_EDITS = 4
DAEMON_STARTS = 3  # set-up is repeated; its median is reported
WARMUP_INSTANCE = 900  # sub-seed index of the program that warms the daemon

#: Every generated leaf function ends its pointer chain by storing through
#: ``slot``; an edit adds, after that line, an assignment between two of
#: the function's existing locals, so the vertex set stays the same and the
#: store may re-close incrementally.
EDIT_ANCHOR = re.compile(r"^    \*slot = p\d+;\n", re.MULTILINE)
EDIT_LINE = "    buf = p1;\n"


def edited_sources(sources: List[Tuple[str, str]], edits: int) -> List[Tuple[str, str]]:
    """``sources`` with ``EDIT_LINE`` inserted into its first ``edits`` functions."""
    out = []
    left = edits
    for module, text in sources:
        if left:
            text, done = EDIT_ANCHOR.subn(lambda m: m.group(0) + EDIT_LINE, text, count=left)
            left -= done
        out.append((module, text))
    if left:
        raise ValueError(f"program has {edits - left} edit sites, {edits} wanted")
    return out


def _median(values: List[float], default: float = 0.0) -> float:
    return statistics.median(values) if values else default


def percentile_with_tail(samples: List[float], tail: int = 10) -> Tuple[float, float]:
    """The highest percentile with ``tail`` samples beyond it, capped at p99.

    Returns ``(percent, value)``; 4000 samples give p99, 500 give p98.
    """
    ordered = sorted(samples)
    share = min(0.99, 1.0 - tail / len(ordered)) if len(ordered) > tail else 0.5
    return 100.0 * share, ordered[min(len(ordered) - 1, int(share * len(ordered)))]


class Daemon:
    """One ``repro serve`` subprocess; always stopped and waited for."""

    def __init__(self, store: str, sizes, log_path: str, spans_path: Optional[str]) -> None:
        serve = ["serve", "--store", store, "--port", "0",
                 "--max-edges-per-partition", str(sizes["service_max_edges"]),
                 "--memory-budget", str(sizes["service_budget"])]
        if spans_path is None:
            command = [sys.executable, "-m", "repro"] + serve
        else:
            command = [sys.executable, os.path.join(HERE, "traced_serve.py"),
                       "--spans", spans_path] + serve
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._log = open(log_path, "w+", encoding="utf-8")
        self.process = subprocess.Popen(command, stderr=self._log, stdout=self._log, env=env)
        self.address = self._await_address(log_path)

    def _await_address(self, log_path: str, timeout: float = 60.0) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(log_path, encoding="utf-8") as fh:
                match = re.search(r"serving on (\S+):(\d+)", fh.read())
            if match:
                return match.group(1), int(match.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        with open(log_path, encoding="utf-8") as fh:
            raise RuntimeError(f"daemon did not start: {fh.read()[-2000:]}")

    def client(self):
        from repro.service import ServiceClient

        return ServiceClient(*self.address, timeout=120.0)

    def stop(self) -> int:
        """Ask for shutdown, then make sure the process is gone."""
        if self.process.poll() is None:
            try:
                with self.client() as client:
                    client.shutdown()
                self.process.wait(timeout=30)
            except Exception:
                self.process.kill()
        code = self.process.wait()
        self._log.close()
        return code


class _Reader(threading.Thread):
    """A closed-loop client cycling the checker mix until told to stop."""

    def __init__(self, daemon: Daemon, program: str, reference: Dict[Optional[str], frozenset],
                 stop: threading.Event, offset: int) -> None:
        super().__init__(name=f"reader-{offset}")
        self.daemon = daemon
        self.program = program
        self.reference = reference
        self.stop_event = stop
        self.offset = offset
        self.samples: List[Tuple[Optional[str], float]] = []  # (checker, ms)
        self.failures: List[str] = []
        self.retries = 0

    def run(self) -> None:
        try:
            with self.daemon.client() as client:
                turn = self.offset
                while not self.stop_event.is_set():
                    checker = CHECKER_MIX[turn % len(CHECKER_MIX)]
                    turn += 1
                    started = time.perf_counter()
                    try:
                        reports = client.check(self.program, checker=checker)
                    except Exception as exc:
                        self.failures.append(f"check {checker}: {type(exc).__name__}: {exc}")
                        continue
                    self.samples.append((checker, (time.perf_counter() - started) * 1e3))
                    if verify.report_keys(reports) != self.reference[checker]:
                        self.failures.append(f"check {checker}: findings differ from the reference")
                self.retries = client.retries
        except Exception as exc:  # connection-level failure ends this client
            self.failures.append(f"reader: {type(exc).__name__}: {exc}")


def _read_phase(daemon, program, reference, clients: int, seconds: float, writer=None):
    """Run ``clients`` readers for ``seconds`` (or until ``writer()`` returns)."""
    stop = threading.Event()
    readers = [_Reader(daemon, program, reference, stop, i) for i in range(clients)]
    started = time.perf_counter()
    for reader in readers:
        reader.start()
    try:
        if writer is None:
            time.sleep(seconds)
        else:
            writer()
    finally:
        stop.set()
        for reader in readers:
            reader.join()
    return readers, time.perf_counter() - started


@dataclass
class _Observed:
    """What the clients saw, phase by phase; the layer metrics read it back."""

    programs: list = field(default_factory=list)
    windows: Dict[str, Tuple[float, float]] = field(default_factory=dict)  # phase -> (start, end)
    cold_s: List[float] = field(default_factory=list)  # nan where the load failed
    cold_raw_s: List[float] = field(default_factory=list)  # as the clock read them
    cold_replies: list = field(default_factory=list)  # None where the load failed
    reference: Dict[Optional[str], frozenset] = field(default_factory=dict)
    read_samples: List[Tuple[Optional[str], float]] = field(default_factory=list)
    mixed_samples: List[Tuple[Optional[str], float]] = field(default_factory=list)
    edit_s: List[float] = field(default_factory=list)
    edit_replies: list = field(default_factory=list)
    reload_reply: dict = field(default_factory=dict)
    ping_ms: List[float] = field(default_factory=list)
    health: dict = field(default_factory=dict)
    status: dict = field(default_factory=dict)
    retries: int = 0


def run(seed: int, seconds: float, sizes, traced: bool, startup_s: float,
        workroot: str, rss_mb, log) -> Dict[str, object]:
    def make_program(index: int):
        return generated_program(
            sizes["service_program"], float(sizes["service_scale"]), sub_seed(seed, index)
        )

    def timed(request, *args, **kwargs):
        started = time.perf_counter()
        reply = request(*args, **kwargs)
        return reply, time.perf_counter() - started

    calibrator = Calibrator()
    clients = max(1, min(2, os.cpu_count() or 1))
    seen = _Observed()
    programs, windows = seen.programs, seen.windows
    failures: List[str] = []
    attempted = 0

    # -- set-up: generate the inputs and start a daemon, several times ----
    setup_times = []
    daemon: Optional[Daemon] = None
    spans_path = os.path.join(workroot, "daemon-spans.json")
    try:
        for attempt in range(DAEMON_STARTS):
            if daemon is not None:
                daemon.stop()
            started = time.perf_counter()
            programs[:] = [make_program(i) for i in range(MIN_COLD_LOADS)]
            warm_program = make_program(WARMUP_INSTANCE)
            last = attempt == DAEMON_STARTS - 1
            store = os.path.join(workroot, f"store-{attempt}")
            daemon = Daemon(
                store, sizes, os.path.join(workroot, f"daemon-{attempt}.log"),
                spans_path if traced and last else None,
            )
            with daemon.client() as client:
                client.ping()
            setup_times.append(calibrator.at_reference(time.perf_counter() - started))

        control = daemon.client()
        # -- warm-up: every code path once, on a program of its own --------
        started = time.perf_counter()
        control.load("warm", sources=warm_program.sources)
        for checker in CHECKER_MIX * 4:
            control.check("warm", checker=checker)
        control.load("warm", sources=edited_sources(warm_program.sources, 1))
        control.load("warm", sources=warm_program.sources)
        warmup_s = calibrator.at_reference(time.perf_counter() - started)
        # Interpreter start and imports ran before any kernel timing; they
        # are scaled by the speed of the whole set-up.
        setup_s = startup_s * calibrator.mean_speed() + statistics.median(setup_times) + warmup_s

        # -- phase A: cold loads -----------------------------------------
        # A fixed number of loads, not a fixed time: the store scans its
        # entries for an incremental base, so a load's time (and the
        # daemon's memory) grows with the loads before it, and a run that
        # fitted more of them in would report a slower median.
        phase_started = time.perf_counter()
        cold_loads = max(
            MIN_COLD_LOADS,
            int(seconds * PHASE_SHARES["cold"] / float(sizes["service_cold_load_s"])),
        )
        for index in range(cold_loads):
            if index >= len(programs):
                programs.append(make_program(index))
            attempted += 1
            try:
                reply, took = timed(control.load, f"prog{index}", sources=programs[index].sources)
            except Exception as exc:
                failures.append(f"cold load {index}: {type(exc).__name__}: {exc}")
                if index >= 2 * MIN_COLD_LOADS:
                    break
                reply, took = None, float("nan")
            seen.cold_raw_s.append(took)
            seen.cold_s.append(calibrator.at_reference(took))
            seen.cold_replies.append(reply)
        windows["cold"] = (phase_started, time.perf_counter())

        # -- reference replies, scored against the generator's ground truth
        reference = seen.reference
        for checker in CHECKER_MIX:
            reference[checker] = verify.report_keys(control.check("prog0", checker=checker))
        all_checkers = sorted({key[0] for key in reference[None]} | set(verify.EXACT_CHECKERS))
        scores = verify.score_reports(reference[None], programs[0].ground_truth, all_checkers)
        attempted += 1
        anchored = verify.expected("service-mix", seed) if sizes["anchored"] else None
        failures += verify.verdict_failures(scores, anchored)
        for checker in CHECKER_MIX[1:]:
            attempted += 1
            if reference[checker] != {k for k in reference[None] if k[0] == checker}:
                failures.append(f"check {checker} disagrees with the all-checker reply")
        for index in range(1, len(programs)):
            if seen.cold_replies[index] is None:
                continue
            attempted += 1
            keys = verify.report_keys(control.check(f"prog{index}"))
            other = verify.score_reports(keys, programs[index].ground_truth, verify.EXACT_CHECKERS)
            failures += [f"prog{index} {p}" for p in verify.verdict_failures(other, None)]

        # -- phase B: reads ------------------------------------------------
        phase_started = time.perf_counter()
        readers, read_wall = _read_phase(
            daemon, "prog0", reference, clients, seconds * PHASE_SHARES["reads"]
        )
        windows["reads"] = (phase_started, time.perf_counter())
        seen.read_samples = [s for r in readers for s in r.samples]

        # -- phase C: edits beside reads -----------------------------------
        def writer() -> None:
            began = time.perf_counter()
            budget = seconds * PHASE_SHARES["writes"]
            for edits in range(1, int(sizes["service_edits"]) + 1):
                if edits > MIN_EDITS and time.perf_counter() - began >= budget:
                    break
                sources = edited_sources(programs[0].sources, edits)
                try:
                    reply, took = timed(control.load, "prog0", sources=sources)
                except Exception as exc:
                    failures.append(f"edit {edits}: {type(exc).__name__}: {exc}")
                    seen.edit_replies.append(None)
                    continue
                seen.edit_s.append(took)
                seen.edit_replies.append(reply)
            try:
                seen.reload_reply = control.load("prog0", sources=programs[0].sources)
            except Exception as exc:
                failures.append(f"reload: {type(exc).__name__}: {exc}")

        mixed_readers, _ = _read_phase(
            daemon, "prog0", reference, max(1, clients - 1), 0.0, writer
        )
        seen.mixed_samples = [s for r in mixed_readers for s in r.samples]
        attempted += len(seen.edit_replies) + 1
        for number, reply in enumerate(seen.edit_replies, 1):
            if reply is None:
                continue
            sources = {c["source"] for c in reply["closures"].values()}
            if "cold" in sources:
                failures.append(f"edit {number} resolved {sorted(sources)}, want incremental")
        reloaded = {c["source"] for c in seen.reload_reply.get("closures", {}).values()}
        if reloaded and reloaded != {"cache"}:
            failures.append("reload of the original source did not resolve from the cache")

        for reader in readers + mixed_readers:
            attempted += len(reader.samples) + len(reader.failures)
            failures += reader.failures

        disk_bytes = tree_bytes(store)
        if traced:
            seen.ping_ms = [timed(control.ping)[1] * 1e3 for _ in range(200)]
        seen.health = control.health()
        seen.status = control.status()
        seen.retries = control.retries + sum(r.retries for r in readers + mixed_readers)
        control.close()
    finally:
        exit_code = daemon.stop() if daemon is not None else 1
    attempted += 1
    if exit_code != 0:
        failures.append(f"daemon exited with status {exit_code}")
    peak_rss = rss_mb()  # the daemon has been waited for: its peak counts
    for failure in failures:
        log(f"FAILED {failure}")

    nan = float("nan")
    loaded = [(reply, took) for reply, took in zip(seen.cold_replies, seen.cold_s) if reply]
    edge_rates = [
        sum(c["final_edges"] for c in reply["closures"].values()) / took for reply, took in loaded
    ]
    read_ms = [ms for _, ms in seen.read_samples] or [nan]
    mixed_ms = [ms for _, ms in seen.mixed_samples] or [nan]
    tail_percent, tail_ms = percentile_with_tail(read_ms)
    record: Dict[str, object] = {
        "attempted": attempted,
        "failed": len(failures),
        "samples": {
            "closure_wall_s": len(loaded), "setup_s": len(setup_times),
            "query_p50_ms": len(read_ms), "query_p99_ms": len(read_ms),
            "query_qps": len(read_ms), "edit_reclosure_s": len(seen.edit_s),
            "mixed_query_p95_ms": len(mixed_ms),
        },
        "input": {
            "programs": len(programs), "clients": clients,
            "loc": [p.loc for p in programs],
            "graph_edges": [reply["edges"] for reply, _ in loaded],
            "query_tail_percentile": tail_percent,
            "scores": {name: list(score) for name, score in scores.items()},
            "cold_loads_s": [round(s, 4) for s in seen.cold_s],
            "raw_cold_loads_s": [round(s, 4) for s in seen.cold_raw_s],
            "machine_speed": round(calibrator.median_speed(), 4),
        },
        "end_to_end": {
            "closure_wall_s": _median([took for _, took in loaded], nan),
            "closure_edges_per_s": _median(edge_rates, nan),
            "peak_rss_mb": peak_rss,
            "setup_s": setup_s,
        },
        "extra": {
            "disk_mb": disk_bytes / 1e6,
            "query_p50_ms": statistics.median(read_ms),
            "query_p99_ms": tail_ms,
            "query_qps": len(read_ms) / read_wall,
            "edit_reclosure_s": _median(seen.edit_s, nan),
            "mixed_query_p95_ms": sorted(mixed_ms)[int(0.95 * len(mixed_ms))],
        },
    }
    if traced:
        record["per_layer"], record["daemon_dump"] = layer_metrics(record, spans_path, seen)
    return record


def layer_metrics(record, spans_path: str, seen: _Observed):
    """Per-layer metrics from the traced daemon's spans and stats rows.

    Engine and frontend/analysis layers are means per cold ``load`` over the
    cold phase's window; the checkers are medians per ``check`` in the read
    phase; the store is tallied from the load replies of phases A and C.
    """
    import json

    with open(spans_path, encoding="utf-8") as fh:
        dump = json.load(fh)
    threads = dump["threads"]
    cold_lo, cold_hi = seen.windows["cold"]
    good = [r for r in seen.cold_replies if r is not None]
    loads = max(1, len(good))
    totals, layer_self = layers.aggregate(threads, cold_lo, cold_hi)
    rows = [row for stamp, row in dump["stats_rows"] if cold_lo <= stamp < cold_hi]
    candidates = sum(c for stamp, c in dump["join_candidates"] if cold_lo <= stamp < cold_hi)
    out = layers.engine_layers(rows, totals, layer_self, candidates, loads)

    def per_load(name: str) -> float:
        return totals.get(name, (0, 0.0))[1] / loads

    compile_s = per_load("frontend:compile")
    out.update(record["extra"])
    out.update(
        {
            "failed_ops_share": record["failed"] / record["attempted"],
            "closure_raw_wall_s": _median([s for s in seen.cold_raw_s if s == s]),
            "machine.speed_ratio": record["input"]["machine_speed"],
            "frontend.compile_s": compile_s,
            "frontend.loc_per_s": (
                statistics.mean(p.loc for p in seen.programs) / compile_s if compile_s else 0.0
            ),
            "frontend.vertices": statistics.mean(r["vertices"] for r in good) if good else 0,
            "frontend.edges": statistics.mean(r["edges"] for r in good) if good else 0,
            "analysis.pointsto_s": per_load("analysis:pointsto"),
            "analysis.nullflow_s": per_load("analysis:nullflow"),
            "analysis.taintflow_s": per_load("analysis:taintflow"),
            "analysis.taint_s": per_load("analysis:taint"),
            "analysis.escape_races_s": per_load("analysis:escape_races"),
            "engine.store.closure_s": per_load("engine.store:closure"),
        }
    )

    # Seconds inside the checkers per query: each service:check span's time
    # covered by its checkers:* children (eleven of them for an "all" query).
    read_lo, read_hi = seen.windows["reads"]
    all_s, single_s = [], []
    for _, spans in threads:
        covered = [0.0] * len(spans)
        children = [0] * len(spans)
        for span in spans:
            parent = span[tracing.PARENT]
            if parent >= 0 and span[tracing.NAME].startswith("checkers:"):
                covered[parent] += span[tracing.END] - span[tracing.START]
                children[parent] += 1
        for i, span in enumerate(spans):
            if span[tracing.NAME] == "service:check" and read_lo <= span[tracing.START] < read_hi:
                (all_s if children[i] > 1 else single_s).append(covered[i])

    by_source = {"cold": 0, "incremental": 0, "cache": 0}
    supersteps = dict(by_source)
    edit_closures = [c for r in seen.edit_replies if r for c in r["closures"].values()]
    measured = [c for r in good for c in r["closures"].values()] + edit_closures
    measured += list(seen.reload_reply.get("closures", {}).values())
    for closure in measured:
        by_source[closure["source"]] += 1
        supersteps[closure["source"]] += closure["supersteps"]
    incremental_edits = sum(1 for c in edit_closures if c["source"] == "incremental")
    health, status = seen.health, seen.status
    closures = [c for p in status["programs"].values() for c in p["closures"].values()]
    out.update(
        {
            "checkers.all_s": _median(all_s),
            "checkers.single_s": _median(single_s),
            "checkers.reports": len(seen.reference[None]),
            "engine.store.cold": by_source["cold"],
            "engine.store.incremental": by_source["incremental"],
            "engine.store.cache_hits": by_source["cache"],
            "engine.store.incremental_hit_ratio": (
                incremental_edits / len(edit_closures) if edit_closures else 0.0
            ),
            "engine.store.incremental_supersteps": supersteps["incremental"],
            "engine.store.cold_supersteps": supersteps["cold"],
            "engine.store.entries": status["store_entries"],
            "engine.store.degraded_to_cold": health["degraded_to_cold"],
            "service.ping_p50_ms": _median(seen.ping_ms),
            "service.check_all_p50_ms": _median(
                [ms for checker, ms in seen.read_samples if checker is None]
            ),
            "service.check_single_p50_ms": _median(
                [ms for checker, ms in seen.read_samples if checker is not None]
            ),
            "service.load_incremental_p50_s": _median(seen.edit_s),
            "service.shed": health["shed"],
            "service.client_retries": seen.retries,
            "service.deadline_hits": health["deadline_hits"],
            "service.requests_served": health["requests_served"],
            "service.pinned_partitions": sum(len(c["pinned"]) for c in closures),
            "service.peak_resident_bytes": max(
                (c["peak_resident_bytes"] for c in closures), default=0
            ),
        }
    )
    return out, {"pid": dump["pid"], "threads": threads}
