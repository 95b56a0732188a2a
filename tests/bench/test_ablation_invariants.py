"""Property tests for the ablation reference implementations."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.ablation import _group_candidates, run_superstep_full_rejoin
from repro.engine import run_superstep
from repro.graph import from_pairs, packed
from repro.grammar import dyck_grammar

DYCK = dyck_grammar()


@st.composite
def adjacencies(draw):
    n = draw(st.integers(2, 9))
    count = draw(st.integers(1, 15))
    by_src = {}
    for _ in range(count):
        s = draw(st.integers(0, n - 1))
        d = draw(st.integers(0, n - 1))
        l = draw(st.integers(0, 1))
        by_src.setdefault(s, []).append((d, l))
    return {v: from_pairs(pairs) for v, pairs in by_src.items()}


def flatten(adjacency):
    out = set()
    for v, keys in adjacency.items():
        for d, l in packed.to_pairs(keys):
            out.add((v, d, l))
    return out


@given(adjacencies())
@settings(max_examples=40, deadline=None)
def test_full_rejoin_equals_oldnew(adjacency):
    """The ablation variant computes the exact same closure — only the
    amount of re-matching differs."""
    full_state, _, _ = run_superstep_full_rejoin(dict(adjacency), DYCK)
    oldnew = run_superstep(dict(adjacency), DYCK)
    assert flatten(full_state) == flatten(oldnew.adjacency)


@given(adjacencies())
@settings(max_examples=25, deadline=None)
def test_oldnew_never_does_more_join_output(adjacency):
    _, _, full_volume = run_superstep_full_rejoin(dict(adjacency), DYCK)
    oldnew = run_superstep(dict(adjacency), DYCK)
    # the old/new discipline's output (new edges) is bounded by the full
    # rejoin's raw candidate volume
    assert oldnew.edges_added <= full_volume


class TestGroupCandidates:
    def test_empty_input_returns_no_groups(self):
        """Regression: empty candidate arrays must short-circuit cleanly."""
        assert _group_candidates(packed.EMPTY, packed.EMPTY) == []

    def test_groups_cover_all_sources(self):
        src = np.asarray([3, 1, 3, 2], dtype=np.int64)
        keys = np.asarray([30, 10, 31, 20], dtype=np.int64)
        groups = _group_candidates(src, keys)
        assert {v for v, _ in groups} == {1, 2, 3}
        by_v = {v: sorted(int(k) for k in ks) for v, ks in groups}
        assert by_v[3] == [30, 31]
