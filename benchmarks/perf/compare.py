#!/usr/bin/env python3
"""Pair comparison of parent and change runs.

    python3 benchmarks/perf/compare.py A1.json B1.json B2.json A2.json ...

The files are ``run.py --out`` results from alternating parent (A) and
change (B) runs, in the order they ran.  By default odd positions are the
parent and even positions the change; pass ``--order abba`` when every
second pair ran change-first (the k-th A is paired with the k-th B).

For every (metric, workload) it prints each side's median and quartiles,
the share of pairs the change won, and a verdict:

``improved``    the change won at least nine tenths of the pairs (ties count
                for neither side) and the medians differ by more than the
                parent's own quartile spread;
``regressed``   the change's median is worse than the parent's by more than
                the metric's bound and by more than the parent's spread;
``unresolved``  the parent's quartile spread is wider than the bound, so
                neither "unchanged" nor "regressed" can be told apart;
``unchanged``   anything else.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``."""
    if not parent:
        return 0.0
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float):
    """``(verdict, win share, parent quartiles, change quartiles)`` for paired samples."""
    wins = sum(
        1 for a, b in zip(parent, change) if a != b and (b < a) == (better == "lower")
    )
    pairs = min(len(parent), len(change))
    share = wins / pairs if pairs else 0.0
    pq, cq = quartiles(parent), quartiles(change)
    parent_spread = pq[2] - pq[0]
    gap = abs(cq[1] - pq[1])
    worse = worse_by(pq[1], cq[1], better)
    if share >= WIN_SHARE and gap > parent_spread:
        name = "improved"
    elif pq[1] and parent_spread / abs(pq[1]) > bound:
        name = "unresolved"
    elif worse > bound and gap > parent_spread:
        name = "regressed"
    else:
        name = "unchanged"
    return name, share, pq, cq


def _load(path: str) -> Dict[str, Dict[str, float]]:
    """``{workload: {metric: value}}`` of one result file (both metric kinds)."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    out: Dict[str, Dict[str, float]] = {}
    for name, record in data["workloads"].items():
        values = dict(record.get("end_to_end", {}))
        values.update(record.get("per_layer", {}))
        out[name] = values
    return out


def compare(parent_files: List[str], change_files: List[str], spec) -> List[dict]:
    """One row per (metric, workload) present on both sides."""
    parents = [_load(p) for p in parent_files]
    changes = [_load(p) for p in change_files]
    rows = []
    for metric, better, bound in spec:
        workloads = sorted({w for side in parents + changes for w in side})
        for workload in workloads:
            a = [p[workload][metric] for p in parents if metric in p.get(workload, {})]
            b = [c[workload][metric] for c in changes if metric in c.get(workload, {})]
            if not a or not b or not any(a + b):
                continue
            name, share, pq, cq = verdict(a, b, better, bound if bound is not None else 0.10)
            rows.append(
                {"metric": metric, "workload": workload, "pairs": min(len(a), len(b)),
                 "parent": pq, "change": cq, "win_share": share,
                 "verdict": name, "gated": bound is not None}
            )
    return rows


def main(argv=None) -> int:
    from benchmarks.perf.metrics import END_TO_END, PER_LAYER

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", help="result files of alternating parent/change runs")
    parser.add_argument("--order", default="ab",
                        help="side of each file in turn, repeated: 'ab' (default) or e.g. 'abba'")
    parser.add_argument("--layers", action="store_true", help="also compare per-layer metrics")
    args = parser.parse_args(argv)
    sides = [args.order[i % len(args.order)] for i in range(len(args.files))]
    parent_files = [f for f, s in zip(args.files, sides) if s == "a"]
    change_files = [f for f, s in zip(args.files, sides) if s == "b"]
    if not parent_files or not change_files:
        parser.error("need at least one parent and one change file")
    spec = [(name, better, bound) for name, _, better, bound in END_TO_END]
    if args.layers:
        spec += [(name, better, None) for name, _, better in PER_LAYER]
    rows = compare(parent_files, change_files, spec)
    print(f"{'metric':34} {'workload':20} {'pairs':>5}  {'parent q1/med/q3':>32}  "
          f"{'change q1/med/q3':>32}  {'wins':>5}  verdict")
    for row in rows:
        parent, change = ("/".join(f"{v:.4g}" for v in row[side]) for side in ("parent", "change"))
        gate = "" if row["gated"] else " (not gated)"
        print(f"{row['metric']:34} {row['workload']:20} {row['pairs']:>5}  "
              f"{parent:>32}  {change:>32}  {row['win_share']:>5.2f}  {row['verdict']}{gate}")
    return 1 if any(r["verdict"] == "regressed" and r["gated"] for r in rows) else 0


if __name__ == "__main__":
    # Run as a script: import siblings through the repo root, as run.py does.
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    sys.exit(main())
