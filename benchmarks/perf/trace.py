"""Span tracing installed from outside the program (no file under src/ changes).

A traced run wraps each layer's entry points with a timing wrapper that
records one span per call: ``[name, start, end, parent, repeat]``, kept in
a per-thread list in memory and written out as Chrome-trace JSON when the
run ends.  A span's name is ``<layer>:<operation>``; the layer is the
module the entry point belongs to.  A span's *self time* is its duration
minus the part its child spans cover, so per-layer self times on the
thread that called ``GraspanEngine.run`` add up to the closure's wall time.

End-to-end metrics are never measured with these wrappers installed.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# Indexes into one span record.
NAME, START, END, PARENT, REPEAT = range(5)

ROOT_SPAN = "engine.session:run"

_INHERITED = object()


class Tracer:
    """Collects spans and counters; owns the monkeypatches it installed."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: List[Tuple[str, List[list]]] = []  # (thread name, spans)
        self.counters: Dict[str, float] = defaultdict(float)
        self.repeat = 0  # stamped on every span; the caller bumps it per repeat
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            with self._lock:
                self.threads.append((threading.current_thread().name, local.spans))
        return local

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Optional[Callable[["Tracer", object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper recording a ``name`` span."""
        # A class attribute is read through __dict__ so static/class methods
        # keep their descriptor; an inherited method gets a wrapper of its
        # own on the subclass (removed again by uninstall).
        if isinstance(owner, type):
            fn = owner.__dict__.get(attr, _INHERITED)
            raw = getattr(owner, attr) if fn is _INHERITED else fn
        else:
            fn = raw = getattr(owner, attr)
        if isinstance(raw, (staticmethod, classmethod)):
            raw = raw.__func__
        perf = time.perf_counter
        state = self._state
        tracer = self

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            st = state()
            spans, stack = st.spans, st.stack
            index = len(spans)
            spans.append([name, perf(), 0.0, stack[-1] if stack else -1, tracer.repeat])
            stack.append(index)
            try:
                result = raw(*args, **kwargs)
            finally:
                spans[index][END] = perf()
                stack.pop()
            if after is not None:
                after(tracer, result)
            return result

        replacement = wrapper
        if isinstance(fn, staticmethod):
            replacement = staticmethod(wrapper)
        elif isinstance(fn, classmethod):
            replacement = classmethod(wrapper)
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------
    def all_spans(self) -> Iterable[Tuple[str, List[list]]]:
        with self._lock:
            return list(self.threads)

    def dump(self) -> Dict[str, object]:
        """Plain data for shipping a subprocess's spans to the benchmark."""
        return {
            "pid": os.getpid(),
            "threads": [[name, spans] for name, spans in self.all_spans()],
            "counters": dict(self.counters),
        }


def self_times(spans: List[list]) -> List[float]:
    """Per-span self time: duration minus the time direct children cover.

    Spans of one thread nest and never overlap, so the covered part of a
    span is the sum of its direct children's durations.
    """
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[END] - span[START]
    return out


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


def share_table(spans: List[list], root: str = ROOT_SPAN) -> Dict[str, object]:
    """Per-layer self seconds under the ``root`` spans of one thread.

    Returns ``{"wall_s", "repeats", "layers": {layer: self_s}, "coverage"}``
    averaged per root span.  The root's own self time is reported as
    ``engine.session.other`` — wall time no wrapped entry point accounts
    for — and ``coverage`` is the share the other layers explain.
    """
    selfs = self_times(spans)
    inside = [False] * len(spans)
    layers: Dict[str, float] = defaultdict(float)
    wall = 0.0
    roots = 0
    for i, span in enumerate(spans):
        if span[NAME] == root and (span[PARENT] < 0 or not inside[span[PARENT]]):
            inside[i] = True
            roots += 1
            wall += span[END] - span[START]
            layers["engine.session.other"] += selfs[i]
        elif span[PARENT] >= 0 and inside[span[PARENT]]:
            inside[i] = True
            layers[layer_of(span[NAME])] += selfs[i]
    if roots == 0:
        return {"wall_s": 0.0, "repeats": 0, "layers": {}, "coverage": 0.0}
    other = layers.get("engine.session.other", 0.0)
    return {
        "wall_s": wall / roots,
        "repeats": roots,
        "layers": {k: v / roots for k, v in sorted(layers.items())},
        "coverage": 1.0 - other / wall if wall > 0 else 0.0,
    }


def chrome_trace(dumps: List[Dict[str, object]]) -> Dict[str, object]:
    """Chrome ``about:tracing`` / Perfetto JSON from one or more dumps."""
    events = []
    for dump in dumps:
        pid = dump["pid"]
        for tid, (thread_name, spans) in enumerate(dump["threads"]):
            events.append(
                {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                 "args": {"name": thread_name}}
            )
            for index, span in enumerate(spans):
                events.append(
                    {
                        "name": span[NAME],
                        "cat": layer_of(span[NAME]),
                        "ph": "X",
                        "ts": span[START] * 1e6,
                        "dur": (span[END] - span[START]) * 1e6,
                        "pid": pid,
                        "tid": tid,
                        "args": {"id": index, "parent": span[PARENT],
                                 "repeat": span[REPEAT]},
                    }
                )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, dumps: List[Dict[str, object]]) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(dumps), fh)


# ---------------------------------------------------------------------------
# which entry points get a wrapper
# ---------------------------------------------------------------------------


def _count_pairs(counter: str):
    def after(tracer: Tracer, result) -> None:
        tracer.count(counter, len(result[0]))

    return after


#: (module, class or None, attribute, span name, after-call hook).  Names
#: bound by ``from x import y`` are patched where they are *looked up*.
ENGINE_TARGETS = [
    ("repro.engine.engine", "GraspanEngine", "run", ROOT_SPAN, None),
    ("repro.engine.session", None, "preprocess", "partition:preprocess", None),
    ("repro.engine.session", None, "run_superstep", "engine.superstep:run", None),
    ("repro.engine.session", None, "record_added_edges", "partition:ddm", None),
    ("repro.engine.session", None, "build_manifest", "engine.checkpoint:manifest", None),
    ("repro.engine.session", None, "graph_fingerprint", "engine.checkpoint:fingerprint", None),
    ("repro.engine.session", None, "_combine_views", "engine.superstep:combine", None),
    ("repro.engine.scheduler", "Scheduler", "choose_pair", "engine.scheduler:choose", None),
    ("repro.engine.scheduler", "Scheduler", "peek_pair", "engine.scheduler:peek", None),
    ("repro.engine.parallel", "JoinBackend", "join_edge_list", "engine.join:join",
     _count_pairs("engine.join.candidates")),
    ("repro.engine.matmul", "MatmulJoinBackend", "join_edge_list", "engine.matmul:join",
     _count_pairs("engine.matmul.candidates")),
    ("repro.engine.matmul", "MatmulJoinBackend", "_inline", "engine.matmul:fallback", None),
    ("repro.engine.pipeline", "IoPipeline", "wait_load", "engine.pipeline:load_wait", None),
    ("repro.engine.pipeline", "IoPipeline", "wait_flush", "engine.pipeline:flush_wait", None),
    ("repro.engine.pipeline", "IoPipeline", "close", "engine.pipeline:close", None),
    ("repro.engine.checkpoint", "RunJournal", "commit", "engine.checkpoint:commit", None),
    ("repro.engine.checkpoint", "RunJournal", "append", "engine.checkpoint:journal", None),
    ("repro.engine.checkpoint", "RunJournal", "save_degrees", "engine.checkpoint:degrees", None),
    ("repro.partition.storage", "PartitionStore", "read", "partition:load", None),
    ("repro.partition.storage", "PartitionStore", "write_to", "partition:save", None),
    ("repro.partition.storage", "PartitionStore", "purge_retired", "partition:purge", None),
    ("repro.partition.pset", "PartitionSet", "acquire", "partition:acquire", None),
    ("repro.partition.pset", "PartitionSet", "prefetch", "partition:prefetch", None),
    ("repro.partition.pset", "PartitionSet", "reconcile_prefetch", "partition:prefetch", None),
    ("repro.partition.pset", "PartitionSet", "evict_all_except", "partition:evict", None),
    ("repro.partition.pset", "PartitionSet", "enforce_budget", "partition:evict", None),
    ("repro.partition.pset", "PartitionSet", "flush_dirty", "partition:flush", None),
    ("repro.partition.pset", "PartitionSet", "begin_flush", "partition:flush", None),
    ("repro.partition.pset", "PartitionSet", "split", "partition:split", None),
    ("repro.partition.pset", "PartitionSet", "note_mutated", "partition:residency", None),
    ("repro.partition.pset", "PartitionSet", "scheduling_resident_pids", "partition:residency", None),
    ("repro.partition.pset", "PartitionSet", "total_edges", "partition:residency", None),
    ("repro.partition.partition", "Partition", "replace_csr", "partition:scatter", None),
    ("repro.partition.partition", "Partition", "destination_counts", "partition:ddm", None),
    ("repro.partition.ddm", "DestinationDistributionMap", "set_exact_row", "partition:ddm", None),
    ("repro.engine.join", "CsrView", "from_flat", "engine.superstep:csr", None),
    ("repro.distributed.coordinator", None, "run_distributed", "distributed:run", None),
    ("repro.distributed.coordinator", "DistributedCoordinator", "stop", "distributed:stop", None),
    ("repro.distributed.coordinator", "DistributedCoordinator", "_apply", "distributed:merge", None),
    ("repro.distributed.worker", None, "run_superstep", "engine.superstep:run", None),
    ("repro.distributed.worker", "DistributedWorker", "_request", "distributed:rpc", None),
]

#: Installed inside the daemon process by ``traced_serve.py``, on top of
#: the engine targets.  ``_load`` / ``_check`` are the daemon's per-op
#: bodies; it has no public per-operation entry point to wrap instead.
SERVICE_TARGETS = [
    ("repro.service.daemon", "ClosureDaemon", "_load", "service:load", None),
    ("repro.service.daemon", "ClosureDaemon", "_check", "service:check", None),
    ("repro.frontend", None, "compile_program", "frontend:compile", None),
    ("repro.analysis.pointsto", "PointsToAnalysis", "run", "analysis:pointsto", None),
    # Both dataflow analyses inherit one ``run``; each subclass gets its own.
    ("repro.analysis.dataflow", "NullDataflowAnalysis", "run", "analysis:nullflow", None),
    ("repro.analysis.dataflow", "TaintDataflowAnalysis", "run", "analysis:taintflow", None),
    ("repro.analysis.taint", "TaintAnalysis", "run", "analysis:taint", None),
    ("repro.analysis.escape", "EscapeAnalysis", "run", "analysis:escape_races", None),
    ("repro.analysis.races", "RaceAnalysis", "run", "analysis:escape_races", None),
    ("repro.engine.store", "ClosureStore", "closure", "engine.store:closure", None),
    ("repro.partition.pset", "PartitionSet", "pin_hot", "service:pin", None),
]


def install(tracer: Tracer, targets=ENGINE_TARGETS) -> None:
    """Wrap every target; a missing optional module (scipy) is skipped."""
    for module_name, class_name, attr, span_name, after in targets:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        owner = getattr(module, class_name) if class_name else module
        tracer.wrap(owner, attr, span_name, after)


def install_checkers(tracer: Tracer) -> None:
    """One ``checkers:<Name>`` span per registered checker's augmented pass."""
    from repro.checkers.driver import ALL_CHECKERS

    for cls in ALL_CHECKERS:
        if "check_augmented" in cls.__dict__:
            tracer.wrap(cls, "check_augmented", f"checkers:{cls.name}")
