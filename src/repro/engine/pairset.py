"""Pair-set algebra: dedup, membership and merge over ``(src, key)`` edges.

Algorithm 1's inner loop is set algebra around the join: deduplicate the
candidates, drop the ones already present (``D <- mergeResult - O``), fold
the new edges into the old (``O <- O ∪ D``).  This module is the one
implementation of those three operations; the superstep, the distributed
coordinator's delta application and the closure store's incremental
seeding all go through it (DESIGN.md §17).

:class:`PackedPairs` is the representation they normally run on: one
sorted, duplicate-free int64 array ``comp = (src << shift) | key`` per
edge set.  ``shift`` is the bit width of the largest key, so comparing
compounds compares ``(src, key)`` lexicographically and every operation
is single-key: one ``sort`` to deduplicate, one ``searchsorted`` for
membership, and a linear scatter-merge — O(|O| + |D| log |O|) — instead
of re-lexsorting ``O ∪ D``.

:class:`LexsortPairs` is the same algebra over ``(src, keys)`` array
pairs, by two-key ``lexsort``.  It is the fallback for ids that do not
fit one int64, and the oracle the packed form is tested against.
:func:`pairs_for_bounds` picks between them from the id bounds the caller
already knows; both produce the same edge sets in the same order.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from repro.graph import packed

#: Bits a compound may use: the sign bit stays clear so compounds order
#: like the ``(src, key)`` pairs they encode.
PACK_BITS = 63

Pairs = Tuple[np.ndarray, np.ndarray]


class PackedPairs:
    """Edge sets as sorted unique ``(src << shift) | key`` int64 arrays."""

    empty = packed.EMPTY

    def __init__(self, shift: int) -> None:
        self.shift = np.int64(shift)
        self.key_mask = np.int64((1 << shift) - 1)

    @staticmethod
    def size(comp: np.ndarray) -> int:
        return len(comp)

    def encode(self, src: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Pack parallel ``(src, keys)`` arrays, keeping their order."""
        return (src << self.shift) | keys

    def decode(self, comp: np.ndarray) -> Pairs:
        return comp >> self.shift, comp & self.key_mask

    @staticmethod
    def concat(parts: Sequence[np.ndarray]) -> np.ndarray:
        return np.concatenate(parts) if parts else packed.EMPTY

    @staticmethod
    def dedup(comp: np.ndarray) -> np.ndarray:
        """Raw compounds → the sorted duplicate-free set."""
        if len(comp) < 2:
            return comp
        comp = np.sort(comp)
        keep = np.empty(len(comp), dtype=bool)
        keep[0] = True
        np.not_equal(comp[1:], comp[:-1], out=keep[1:])
        return comp[keep]

    @staticmethod
    def contains(needles: np.ndarray, haystack: np.ndarray) -> np.ndarray:
        """Mask over the set ``needles``: which are in the set ``haystack``."""
        return packed.isin_sorted(needles, haystack)

    @staticmethod
    def difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The set ``a - b``, still sorted."""
        return packed.setdiff_sorted(a, b)

    @staticmethod
    def union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Union of two *disjoint* sets by a linear merge.

        ``b``'s elements land ``searchsorted`` positions into ``a``,
        shifted by their own rank; ``a`` fills the remaining slots in
        order.  Nothing is re-sorted, so folding a small ``D`` into a
        large ``O`` costs O(|O| + |D| log |O|).
        """
        if len(a) == 0:
            return b
        if len(b) == 0:
            return a
        slots = np.searchsorted(a, b)
        slots += np.arange(len(b), dtype=slots.dtype)
        out = np.empty(len(a) + len(b), dtype=np.int64)
        from_a = np.ones(len(out), dtype=bool)
        from_a[slots] = False
        out[slots] = b
        out[from_a] = a
        return out


class LexsortPairs:
    """The same algebra over lexsorted ``(src, keys)`` array pairs.

    Works for any int64 ids.  Kept as the fallback when ids do not fit a
    compound and as the oracle for :class:`PackedPairs`.
    """

    empty: Pairs = (packed.EMPTY, packed.EMPTY)

    @staticmethod
    def size(pairs: Pairs) -> int:
        return len(pairs[0])

    @staticmethod
    def encode(src: np.ndarray, keys: np.ndarray) -> Pairs:
        return src, keys

    @staticmethod
    def decode(pairs: Pairs) -> Pairs:
        return pairs

    @staticmethod
    def concat(parts: Sequence[Pairs]) -> Pairs:
        if not parts:
            return LexsortPairs.empty
        return (
            np.concatenate([src for src, _ in parts]),
            np.concatenate([keys for _, keys in parts]),
        )

    @staticmethod
    def dedup(pairs: Pairs) -> Pairs:
        src, keys = pairs
        if len(src) == 0:
            return LexsortPairs.empty
        order = np.lexsort((keys, src))
        src, keys = src[order], keys[order]
        keep = np.ones(len(src), dtype=bool)
        keep[1:] = (src[1:] != src[:-1]) | (keys[1:] != keys[:-1])
        return src[keep], keys[keep]

    @staticmethod
    def contains(needles: Pairs, haystack: Pairs) -> np.ndarray:
        """Membership by flag-lexsort: a needle sorted directly behind an
        identical haystack pair is present."""
        n_src, n_keys = needles
        h_src, h_keys = haystack
        if len(n_src) == 0 or len(h_src) == 0:
            return np.zeros(len(n_src), dtype=bool)
        all_src = np.concatenate([h_src, n_src])
        all_keys = np.concatenate([h_keys, n_keys])
        is_needle = np.zeros(len(all_src), dtype=np.int64)
        is_needle[len(h_src) :] = 1
        order = np.lexsort((is_needle, all_keys, all_src))
        s, k = all_src[order], all_keys[order]
        dup = np.zeros(len(s), dtype=bool)
        dup[1:] = (s[1:] == s[:-1]) & (k[1:] == k[:-1])
        present = np.empty(len(s), dtype=bool)
        present[order] = dup
        return present[len(h_src) :]

    @staticmethod
    def difference(a: Pairs, b: Pairs) -> Pairs:
        fresh = ~LexsortPairs.contains(a, b)
        return a[0][fresh], a[1][fresh]

    @staticmethod
    def union(a: Pairs, b: Pairs) -> Pairs:
        if len(a[0]) == 0:
            return b
        if len(b[0]) == 0:
            return a
        src = np.concatenate([a[0], b[0]])
        keys = np.concatenate([a[1], b[1]])
        order = np.lexsort((keys, src))
        return src[order], keys[order]


PairAlgebra = Union[PackedPairs, LexsortPairs]


def pairs_for_bounds(max_src: int, key_bound: int) -> PairAlgebra:
    """The algebra for sources ``<= max_src`` and keys ``< key_bound``.

    Packs whenever ``bit_length(max_src) + bit_length(key_bound - 1)``
    fits :data:`PACK_BITS`; otherwise the ids genuinely need two words
    and the lexsort form takes over.
    """
    shift = max(int(key_bound) - 1, 0).bit_length()
    if int(max_src).bit_length() + shift <= PACK_BITS:
        return PackedPairs(shift)
    return LexsortPairs()


def pairs_for_arrays(*pair_sets: Pairs) -> PairAlgebra:
    """The algebra for the given ``(src, keys)`` arrays, by scanning them."""
    max_src, max_key = 0, 0
    for src, keys in pair_sets:
        if len(src):
            max_src = max(max_src, int(src.max()))
            max_key = max(max_key, int(keys.max()))
    return pairs_for_bounds(max_src, max_key + 1)


def fold_raw_pairs(base: Pairs, raw: Pairs) -> Tuple[Pairs, Pairs]:
    """Fold raw (unsorted, possibly duplicated) pairs into the set ``base``.

    ``base`` is lexsorted and duplicate-free.  Returns ``(base ∪ raw,
    raw − base)`` as lexsorted ``(src, keys)`` arrays — one superstep
    iteration's dedup / freshness / merge, for callers that hold flat
    arrays: the coordinator applying a worker delta, the store seeding
    added input edges.
    """
    ops = pairs_for_arrays(base, raw)
    base_set = ops.encode(*base)
    fresh = ops.difference(ops.dedup(ops.encode(*raw)), base_set)
    return ops.decode(ops.union(base_set, fresh)), ops.decode(fresh)
