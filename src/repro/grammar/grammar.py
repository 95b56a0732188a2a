"""Context-free grammars that guide Graspan's transitive-edge addition.

A Graspan analysis is specified as a set of productions over edge labels
(§3 of the paper).  Each production has at most two right-hand-side terms
(the *edge-pair* restriction); grammars with longer productions are first
binarized by :mod:`repro.grammar.normalize`.

The user-facing registration API mirrors the paper exactly::

    g = Grammar()
    g.add_constraint("objectFlow", "M", "valueFlow")
    g.add_constraint("objectFlow", "M")          # rhs2 omitted -> unary rule
    frozen = g.freeze()

Labels are interned to small integers so edges can be packed into numpy
int64 arrays (:mod:`repro.graph.packed`).  At most
:data:`MAX_LABELS` distinct labels are allowed per grammar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Maximum number of distinct labels (terminals + nonterminals) a grammar
#: may use.  Edges reserve 8 bits for the label (see repro.graph.packed).
MAX_LABELS = 256

#: Suffix used to name the inverse ("bar") version of a label, e.g. the
#: inverse of a dereference edge ``D`` is ``D_bar`` (written D-with-a-bar in
#: the paper).
BAR_SUFFIX = "_bar"


class GrammarError(ValueError):
    """Raised for malformed grammars (too many labels, bad productions...)."""


@dataclass(frozen=True)
class Production:
    """A normalized production ``lhs ::= rhs1 [rhs2]`` over interned labels.

    ``rhs2 is None`` denotes a unary production.
    """

    lhs: int
    rhs1: int
    rhs2: Optional[int] = None

    @property
    def is_unary(self) -> bool:
        return self.rhs2 is None


def bar_name(name: str) -> str:
    """Return the canonical name of the inverse of label ``name``.

    Inversion is an involution: ``bar_name(bar_name(x)) == x``.

    >>> bar_name("D")
    'D_bar'
    >>> bar_name("D_bar")
    'D'
    """
    if name.endswith(BAR_SUFFIX):
        return name[: -len(BAR_SUFFIX)]
    return name + BAR_SUFFIX


class Grammar:
    """A mutable grammar under construction.

    Productions are registered with :meth:`add_constraint` (the paper's
    API, at most two RHS terms) or :meth:`add_rule` (arbitrary RHS length,
    binarized on :meth:`freeze`).  Call :meth:`freeze` to obtain the
    immutable, table-backed :class:`FrozenGrammar` the engine consumes.
    """

    def __init__(self) -> None:
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._productions: List[Production] = []
        self._long_rules: List[Tuple[int, Tuple[int, ...]]] = []

    # ------------------------------------------------------------------
    # label interning
    # ------------------------------------------------------------------
    def label(self, name: str) -> int:
        """Intern ``name`` and return its small-integer id."""
        if not name:
            raise GrammarError("label name must be non-empty")
        existing = self._ids.get(name)
        if existing is not None:
            return existing
        if len(self._names) >= MAX_LABELS:
            raise GrammarError(f"too many labels (max {MAX_LABELS})")
        new_id = len(self._names)
        self._names.append(name)
        self._ids[name] = new_id
        return new_id

    def label_name(self, label_id: int) -> str:
        return self._names[label_id]

    def has_label(self, name: str) -> bool:
        return name in self._ids

    @property
    def num_labels(self) -> int:
        return len(self._names)

    def _coerce(self, label: "int | str") -> int:
        if isinstance(label, str):
            return self.label(label)
        if not 0 <= label < len(self._names):
            raise GrammarError(f"unknown label id {label}")
        return label

    # ------------------------------------------------------------------
    # production registration
    # ------------------------------------------------------------------
    def add_constraint(
        self,
        lhs: "int | str",
        rhs1: "int | str",
        rhs2: "int | str | None" = None,
    ) -> Production:
        """Register one production with at most two RHS terms (paper API)."""
        production = Production(
            lhs=self._coerce(lhs),
            rhs1=self._coerce(rhs1),
            rhs2=None if rhs2 is None else self._coerce(rhs2),
        )
        self._productions.append(production)
        return production

    def add_rule(self, lhs: "int | str", rhs: Sequence["int | str"]) -> None:
        """Register a production with arbitrary RHS length.

        Rules with more than two terms are binarized during :meth:`freeze`
        (every CFG can be normalized to at-most-two-term productions, §3).
        Empty RHS (epsilon) is not supported: Graspan edges always cover a
        non-empty path.
        """
        if len(rhs) == 0:
            raise GrammarError("epsilon productions are not supported")
        terms = [self._coerce(t) for t in rhs]
        lhs_id = self._coerce(lhs)
        if len(terms) <= 2:
            self.add_constraint(lhs_id, terms[0], terms[1] if len(terms) == 2 else None)
        else:
            self._long_rules.append((lhs_id, tuple(terms)))

    # ------------------------------------------------------------------
    # freezing
    # ------------------------------------------------------------------
    def freeze(self) -> "FrozenGrammar":
        """Binarize long rules, close unary chains, and build lookup tables."""
        from repro.grammar.normalize import binarize_long_rules

        productions = list(self._productions)
        productions.extend(binarize_long_rules(self, self._long_rules))
        self._long_rules = []
        self._productions = productions
        return FrozenGrammar(tuple(self._names), tuple(productions))

    def __repr__(self) -> str:
        return (
            f"Grammar({self.num_labels} labels, "
            f"{len(self._productions) + len(self._long_rules)} productions)"
        )


class FrozenGrammar:
    """An immutable grammar with the lookup tables the engine needs.

    Two structures drive edge addition:

    ``unary_closure``
        For each label ``l``, the sorted tuple of labels derivable from
        ``l`` by chains of unary productions, *including* ``l`` itself.
        Whenever an edge with label ``l`` is materialized, edges for every
        label in ``unary_closure[l]`` are materialized with it, so the join
        loop only ever consults binary productions.
        ``unary_closure_sizes`` / ``unary_closure_offsets`` /
        ``unary_closure_table`` are the same closures flattened into
        int64 arrays once, for the engine's whole-array expansion.

    ``binary_index`` / ``binary_results``
        A dense ``(num_labels, num_labels) int16`` matrix mapping a pair of
        consecutive edge labels ``(l1, l2)`` to an index into
        ``binary_results`` (or -1 for no match).  ``binary_results[i]`` is
        the numpy array of LHS labels produced by that pair, already closed
        under unary productions.
    """

    def __init__(self, names: Tuple[str, ...], productions: Tuple[Production, ...]):
        self.names = names
        self.productions = productions
        self.num_labels = len(names)
        self._name_to_id = {name: i for i, name in enumerate(names)}

        self.unary_closure = self._compute_unary_closure()
        # The closure table flattened for whole-array gathers: label l's
        # closure is table[offsets[l] : offsets[l] + sizes[l]].
        self.unary_closure_sizes = np.asarray(
            [len(c) for c in self.unary_closure], dtype=np.int64
        )
        self.unary_closure_offsets = np.zeros(self.num_labels + 1, dtype=np.int64)
        np.cumsum(self.unary_closure_sizes, out=self.unary_closure_offsets[1:])
        self.unary_closure_table = np.asarray(
            [l for closure in self.unary_closure for l in closure], dtype=np.int64
        )
        self.binary_index, self.binary_results = self._compute_binary_tables()

    # -- construction ---------------------------------------------------
    def _compute_unary_closure(self) -> Tuple[Tuple[int, ...], ...]:
        derives: List[set] = [{i} for i in range(self.num_labels)]
        unary = [(p.rhs1, p.lhs) for p in self.productions if p.is_unary]
        changed = True
        while changed:
            changed = False
            for src, dst in unary:
                # every label whose closure contains src also derives dst's closure
                for closure in derives:
                    if src in closure and not derives[dst] <= closure:
                        closure |= derives[dst]
                        changed = True
        return tuple(tuple(sorted(s)) for s in derives)

    def _compute_binary_tables(self) -> Tuple[np.ndarray, List[np.ndarray]]:
        pair_to_lhs: Dict[Tuple[int, int], set] = {}
        for p in self.productions:
            if p.is_unary:
                continue
            key = (p.rhs1, p.rhs2)
            produced = pair_to_lhs.setdefault(key, set())
            produced.update(self.unary_closure[p.lhs])

        index = np.full((self.num_labels, self.num_labels), -1, dtype=np.int16)
        results: List[np.ndarray] = []
        # Deduplicate identical result sets so the results list stays tiny.
        seen: Dict[Tuple[int, ...], int] = {}
        for (l1, l2), lhs_set in sorted(pair_to_lhs.items()):
            key = tuple(sorted(lhs_set))
            slot = seen.get(key)
            if slot is None:
                slot = len(results)
                results.append(np.asarray(key, dtype=np.int64))
                seen[key] = slot
            index[l1, l2] = slot
        return index, results

    # -- queries ----------------------------------------------------------
    def label_id(self, name: str) -> int:
        try:
            return self._name_to_id[name]
        except KeyError:
            raise GrammarError(f"unknown label {name!r}") from None

    def label_name(self, label_id: int) -> str:
        return self.names[label_id]

    def closure_of(self, label: "int | str") -> Tuple[int, ...]:
        if isinstance(label, str):
            label = self.label_id(label)
        return self.unary_closure[label]

    def produced_by_pair(self, l1: int, l2: int) -> Tuple[int, ...]:
        """Labels produced when an ``l1`` edge is followed by an ``l2`` edge."""
        slot = self.binary_index[l1, l2]
        if slot < 0:
            return ()
        return tuple(int(x) for x in self.binary_results[slot])

    @property
    def num_binary_pairs(self) -> int:
        return int((self.binary_index >= 0).sum())

    def continuation_labels(self) -> np.ndarray:
        """Boolean mask over labels: can the label appear as *rhs2*?

        The engine uses this to skip edges that can never extend a path.
        """
        mask = np.zeros(self.num_labels, dtype=bool)
        mask[np.unique(np.nonzero((self.binary_index >= 0))[1])] = True
        return mask

    def head_labels(self) -> np.ndarray:
        """Boolean mask over labels: can the label appear as *rhs1*?"""
        mask = np.zeros(self.num_labels, dtype=bool)
        mask[np.unique(np.nonzero((self.binary_index >= 0))[0])] = True
        return mask

    def __repr__(self) -> str:
        return (
            f"FrozenGrammar({self.num_labels} labels, "
            f"{len(self.productions)} productions, "
            f"{self.num_binary_pairs} binary pairs)"
        )
