"""Nested CSR trie over an integer relation.

A relation with columns ordered consistently with the global Leapfrog
attribute order is stored as one sorted-array level per column: level
``l`` holds the distinct length-``l+1`` prefixes' last values plus, per
node, the index range of its children in level ``l+1``. This is the
"trie implemented using three arrays" of the paper's §V (values +
child-start + child-end), which serializes cheaply for the Merge HCube
variant.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np


class Trie:
    """Immutable trie index of an integer relation."""

    def __init__(self, rows: np.ndarray, attrs: Sequence[str]):
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2:
            rows = rows.reshape(-1, len(attrs))
        if rows.shape[1] != len(attrs):
            raise ValueError(
                f"rows have {rows.shape[1]} columns, attrs={tuple(attrs)}"
            )
        self.attrs: tuple[str, ...] = tuple(attrs)
        k = len(self.attrs)
        # Lexicographic sort + dedupe (relations are sets of tuples).
        if rows.shape[0]:
            order = np.lexsort(tuple(rows[:, c] for c in range(k - 1, -1, -1)))
            rows = rows[order]
            keep = np.ones(rows.shape[0], dtype=bool)
            keep[1:] = np.any(rows[1:] != rows[:-1], axis=1)
            rows = rows[keep]
        self.rows = rows
        n = rows.shape[0]
        self.values: list[np.ndarray] = []
        self.child_start: list[np.ndarray] = []
        self.child_end: list[np.ndarray] = []
        if n == 0:
            for _ in range(k):
                self.values.append(np.empty(0, dtype=np.int64))
                self.child_start.append(np.empty(0, dtype=np.int64))
                self.child_end.append(np.empty(0, dtype=np.int64))
            return
        row_starts: list[np.ndarray] = []
        row_ends: list[np.ndarray] = []
        for level in range(k):
            if level == 0:
                change = rows[1:, 0] != rows[:-1, 0]
            else:
                change = np.any(rows[1:, : level + 1] != rows[:-1, : level + 1], axis=1)
            starts = np.concatenate(([0], np.flatnonzero(change) + 1))
            ends = np.concatenate((starts[1:], [n]))
            self.values.append(rows[starts, level].copy())
            row_starts.append(starts)
            row_ends.append(ends)
        for level in range(k):
            if level + 1 < k:
                cs = np.searchsorted(row_starts[level + 1], row_starts[level])
                ce = np.searchsorted(row_starts[level + 1], row_ends[level])
            else:
                cs = np.zeros(len(row_starts[level]), dtype=np.int64)
                ce = np.zeros(len(row_starts[level]), dtype=np.int64)
            self.child_start.append(cs.astype(np.int64))
            self.child_end.append(ce.astype(np.int64))

    @property
    def n_rows(self) -> int:
        return int(self.rows.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trie(attrs={self.attrs}, rows={self.n_rows})"


def order_aligned_attrs(
    rel_attrs: Sequence[str], order: Sequence[str]
) -> tuple[str, ...]:
    """A relation's attributes permuted to follow the global order —
    the trie column order Leapfrog requires."""
    pos = {a: i for i, a in enumerate(order)}
    return tuple(sorted(rel_attrs, key=lambda a: pos[a]))


def trie_for_order(
    rows: np.ndarray, rel_attrs: Sequence[str], order: Sequence[str]
) -> Trie:
    """Build a trie whose column order follows the global attribute
    ``order`` (required by Leapfrog: a relation's attributes must be bound
    in the order the join visits them)."""
    rel_attrs = tuple(rel_attrs)
    missing = [a for a in rel_attrs if a not in order]
    if missing:
        raise ValueError(f"attributes {missing} not in order {tuple(order)}")
    aligned = order_aligned_attrs(rel_attrs, order)
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, len(rel_attrs))
    return Trie(rows[:, [rel_attrs.index(a) for a in aligned]], aligned)
