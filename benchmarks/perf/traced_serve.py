#!/usr/bin/env python3
"""``python -m repro serve`` with the benchmark's span wrappers installed.

    traced_serve.py --spans OUT.json serve --store DIR --port 0 ...

Used by traced ``service-mix`` runs only.  The daemon's spans, and one
stats row per engine run, are written to ``OUT.json`` when it shuts down;
``time.perf_counter`` is the system's monotonic clock, so the benchmark
process can match them to its own phase windows.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[0:1] = [os.path.join(ROOT, "src"), ROOT]


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        raise SystemExit(__doc__)
    spans_path, serve_args = argv[1], argv[2:]

    from benchmarks.perf import layers
    from benchmarks.perf import trace as tracing
    from repro.cli import main as repro_main

    tracer = tracing.Tracer()
    stats_rows = []
    join_candidates = []

    def record_stats(_tracer, computation) -> None:
        stats_rows.append((time.perf_counter(), layers.stats_row(computation.stats)))

    def record_candidates(_tracer, result) -> None:
        join_candidates.append((time.perf_counter(), len(result[0])))

    hooks = {tracing.ROOT_SPAN: record_stats, "engine.join:join": record_candidates}
    tracing.install(
        tracer,
        [(m, c, a, name, hooks.get(name, after))
         for m, c, a, name, after in tracing.ENGINE_TARGETS + tracing.SERVICE_TARGETS],
    )
    tracing.install_checkers(tracer)
    try:
        return repro_main(serve_args)
    finally:
        tracer.uninstall()
        dump = tracer.dump()
        dump["stats_rows"] = stats_rows
        dump["join_candidates"] = join_candidates
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
