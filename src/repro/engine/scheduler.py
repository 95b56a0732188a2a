"""Superstep scheduling (§4.3): which partitions the next superstep loads.

The paper loads two partitions per superstep because two was what fit in
its RAM; its pair policy has two objectives: (1) maximize potential
edge-pair matches — pick the pair with the largest
``delta(p,q) + delta(q,p)`` score from the DDM — and (2) favor reusing
partitions already in memory, applied as a tie-break among pairs whose
scores fall within a user-defined slack of the best.  That policy is
:meth:`Scheduler.choose_pair`, unchanged.

The engine schedules *sets* (DESIGN.md §18): :meth:`Scheduler.choose_set`
seeds with the best pair, then adds the members of the remaining dirty
pairs in descending score while the set's bytes plus one partition of
headroom stay within the memory budget — everything dirty when there is
no budget.  One superstep then closes every pair inside the set at once.
:class:`PairScheduler` is the paper's k = 2 policy (the set *is* the
pair), kept as the faithful baseline for tests and the scheduling
ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.partition.ddm import DestinationDistributionMap


def pair_members(pair: Tuple[int, int]) -> Tuple[int, ...]:
    """The partitions a pair loads, ascending: ``(p,)`` for ``(p, p)``."""
    p, q = min(pair), max(pair)
    return (p,) if p == q else (p, q)


@dataclass
class Scheduler:
    """DDM-delta driven pair selection with in-memory preference.

    ``slack`` is the relative score window within which pairs are
    considered "similar" and residency breaks the tie (0.1 = within 10%
    of the best score).  Must lie in ``[0, 1)``: a negative slack (or
    ``>= 1``) would make the score threshold non-positive and silently
    degrade pair selection to "any dirty pair wins on residency".
    """

    slack: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.slack < 1.0:
            raise ValueError(
                f"slack must be in [0, 1); got {self.slack!r}"
            )

    def state_dict(self) -> dict:
        """Resumable internal state; the DDM-delta scheduler has none."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output after a checkpoint resume."""

    def choose_pair(
        self,
        ddm: DestinationDistributionMap,
        resident_pids: Sequence[int],
        exclude_pids: Sequence[int] = (),
    ) -> Optional[Tuple[int, int]]:
        """The next pair to load, or None when the computation finished.

        A returned pair may be ``(p, p)``: a single partition whose
        internal delta is the only remaining work.

        ``exclude_pids`` drops every pair touching those partitions
        before selection — the distributed coordinator's way of issuing
        additional concurrent leases that are disjoint from in-flight
        work while keeping the exact deterministic ordering policy.
        With no exclusions the selection is unchanged.
        """
        return self._select(
            ddm, resident_pids, assume_synced=None, exclude_pids=exclude_pids
        )

    def peek_pair(
        self,
        ddm: DestinationDistributionMap,
        resident_pids: Sequence[int],
        assume_synced: Optional[Sequence[int]] = None,
    ) -> Optional[Tuple[int, int]]:
        """Predict the pair that will run *after* ``assume_synced`` completes.

        The prediction simulates the currently loaded pair reaching its
        fixed point (its DDM cells synced) without mutating the map, then
        applies the exact :meth:`choose_pair` policy.  It cannot know
        which edges the in-flight superstep will add, so it is a
        heuristic — exactly what the I/O pipeline needs to start loading
        the likely next partitions while the join computes; a wrong guess
        costs one wasted prefetch, never correctness.
        """
        return self._select(ddm, resident_pids, assume_synced=assume_synced)

    def _select(
        self,
        ddm: DestinationDistributionMap,
        resident_pids: Sequence[int],
        assume_synced: Optional[Sequence[int]],
        exclude_pids: Sequence[int] = (),
    ) -> Optional[Tuple[int, int]]:
        ps, qs, scores = ddm.pair_scores(assume_synced=assume_synced)
        if len(ps) == 0:
            return None
        if len(exclude_pids):
            busy = np.zeros(ddm.num_partitions, dtype=bool)
            busy[list(exclude_pids)] = True
            free = ~(busy[ps] | busy[qs])
            if not free.any():
                return None
            ps, qs, scores = ps[free], qs[free], scores[free]
        best_score = int(scores.max())
        threshold = best_score * (1.0 - self.slack)
        keep = scores >= threshold
        ps, qs, scores = ps[keep], qs[keep], scores[keep]
        resident = np.zeros(ddm.num_partitions, dtype=np.int64)
        resident[list(resident_pids)] = 1
        # len(set(pair) & resident): a (p, p) pair contributes p once.
        resident_members = np.where(
            ps == qs, resident[ps], resident[ps] + resident[qs]
        )
        # Prefer more resident members, then higher score, then low ids
        # (for determinism) — lexsort keys are listed least-significant
        # first, so this reproduces the historical Python sort exactly.
        order = np.lexsort((qs, ps, -scores, -resident_members))
        i = order[0]
        return int(ps[i]), int(qs[i])

    def choose_set(
        self,
        ddm: DestinationDistributionMap,
        resident_pids: Sequence[int],
        sizes: Sequence[int],
        budget: Optional[int],
    ) -> Optional[Tuple[int, ...]]:
        """The partitions the next superstep loads, ascending; None when done.

        Seeded with :meth:`choose_pair`'s pair, which is always included.
        The other dirty pairs follow in descending score (ties by ids); a
        pair is admitted whole — its members not yet in the set together
        — while the set's bytes (``sizes``, one entry per partition) plus
        one partition of headroom (the largest size) stay within
        ``budget``.  The headroom is the room the superstep's own growth
        and the next load need (DESIGN.md §18).  With no budget every
        partition of every dirty pair joins.  Deterministic: it depends
        on nothing but its arguments.
        """
        seed = self.choose_pair(ddm, resident_pids)
        if seed is None:
            return None
        chosen = set(seed)
        ps, qs, scores = ddm.pair_scores()
        if budget is None:
            chosen.update(ps.tolist())
            chosen.update(qs.tolist())
            return tuple(sorted(chosen))
        sizes = np.asarray(sizes, dtype=np.int64)
        room = int(budget) - int(sizes.max()) - int(sizes[list(chosen)].sum())
        for i in np.lexsort((qs, ps, -scores)).tolist():
            extra = {int(ps[i]), int(qs[i])} - chosen
            cost = sum(int(sizes[pid]) for pid in extra)
            if extra and cost <= room:
                chosen |= extra
                room -= cost
        return tuple(sorted(chosen))


class PairAtATime:
    """``choose_set`` for pair policies: the set is ``choose_pair``'s pair,
    whatever the sizes and budget."""

    def choose_set(self, ddm, resident_pids, sizes=(), budget=None):
        pair = self.choose_pair(ddm, resident_pids)
        return None if pair is None else pair_members(pair)


class PairScheduler(PairAtATime, Scheduler):
    """The paper's k = 2 policy: every superstep loads the best pair only.

    The faithful §4.3 baseline for the scheduling ablation and for tests
    that compare against the pair-at-a-time schedule (the distributed
    plane's leases are still pairs).
    """


class RoundRobinScheduler(PairAtATime):
    """Naive baseline scheduler for the scheduling ablation bench.

    Cycles through dirty pairs in id order, ignoring both the DDM deltas
    and partition residency.  Still terminates (it only ever selects
    dirty pairs) but pays more supersteps and more I/O.
    """

    def __init__(self) -> None:
        self._cursor = 0

    def state_dict(self) -> dict:
        return {"cursor": self._cursor}

    def load_state_dict(self, state: dict) -> None:
        self._cursor = int(state.get("cursor", 0))

    def choose_pair(
        self,
        ddm: DestinationDistributionMap,
        resident_pids: Sequence[int],
    ) -> Optional[Tuple[int, int]]:
        dirty = sorted(ddm.dirty_pairs())
        if not dirty:
            return None
        pair = dirty[self._cursor % len(dirty)]
        self._cursor += 1
        return pair
