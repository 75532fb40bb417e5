"""Leapfrog trie-join (paper Alg. 1).

Evaluates a natural join over trie-indexed relations by extending an
i-tuple one attribute at a time: at depth ``i`` it intersects the sorted
candidate arrays of every relation containing attribute ``order[i]``,
then recurses per value. The last level is vectorized (the whole final
intersection is appended at once), per-level intermediate-tuple counts
are recorded (``|T^i|`` of §III-B and Fig. 8), and a wall-clock deadline
reproduces the paper's 12-hour execution cap at laptop scale.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.leapfrog.cache import IntersectionCache
from repro.leapfrog.trie import Trie


class LeapfrogTimeout(Exception):
    """Raised when the join exceeds its wall-clock budget."""


@dataclass
class LFResult:
    """Join output plus execution statistics."""

    rows: np.ndarray | None  # (count, n) result tuples; None if count_only
    count: int
    intermediate: list[int] = field(default_factory=list)  # |T^i| per level
    extensions: int = 0  # total intersection values produced (β estimation)


def _intersect(arrays: list[np.ndarray]) -> np.ndarray:
    """Intersection of sorted unique arrays, smallest-first."""
    arrays = sorted(arrays, key=len)
    out = arrays[0]
    for a in arrays[1:]:
        if len(out) == 0:
            break
        out = np.intersect1d(out, a, assume_unique=True)
    return out


def leapfrog(
    tries: Sequence[Trie],
    order: Sequence[str],
    *,
    emit: bool = True,
    fixed_prefix: Sequence[int] = (),
    deadline: float | None = None,
    cache: IntersectionCache | None = None,
) -> LFResult:
    """Run Leapfrog over ``tries`` with attribute ``order``.

    ``emit=False`` counts results without materializing them (the final
    level contributes ``len(intersection)`` directly). ``fixed_prefix``
    pins the first ``len(fixed_prefix)`` attributes to given values —
    used by the sampler (§IV) to evaluate ``T_{A=a}``. ``deadline`` is an
    absolute ``time.monotonic()`` instant; exceeding it raises
    :class:`LeapfrogTimeout`. ``cache`` enables the CacheTrieJoin-style
    intersection memo.
    """
    order = tuple(order)
    n = len(order)
    if n == 0:
        raise ValueError("empty attribute order")
    pos_in_order = {a: i for i, a in enumerate(order)}
    for t in tries:
        idxs = [pos_in_order[a] for a in t.attrs]
        if idxs != sorted(idxs):
            raise ValueError(
                f"trie attrs {t.attrs} not aligned with order {order}"
            )
    # participants[i]: list of (trie_index, level in that trie) for order[i]
    participants: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for ti, t in enumerate(tries):
        for lvl, a in enumerate(t.attrs):
            participants[pos_in_order[a]].append((ti, lvl))
    for i, p in enumerate(participants):
        if not p:
            raise ValueError(f"attribute {order[i]} appears in no relation")

    stats = LFResult(rows=None, count=0, intermediate=[0] * n)
    ranges: list[tuple[int, int]] = [t.root_range() for t in tries]
    binding = np.zeros(n, dtype=np.int64)
    chunks: list[np.ndarray] = []

    def candidates(i: int) -> np.ndarray:
        parts = participants[i]
        if cache is not None:
            key = (i, tuple((ti, *ranges[ti]) for ti, _ in parts))
            hit = cache.get(key)
            if hit is not None:
                return hit
        arrays = [
            tries[ti].candidates(lvl, *ranges[ti]) for ti, lvl in parts
        ]
        inter = _intersect(arrays) if len(arrays) > 1 else arrays[0]
        if cache is not None:
            cache.put(key, inter)
        return inter

    def recurse(i: int) -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise LeapfrogTimeout(
                f"leapfrog exceeded budget at depth {i} "
                f"(count so far {stats.count})"
            )
        inter = candidates(i)
        if i < len(fixed_prefix):
            v = fixed_prefix[i]
            j = int(np.searchsorted(inter, v))
            inter = (
                inter[j : j + 1] if j < len(inter) and inter[j] == v else inter[:0]
            )
        stats.intermediate[i] += len(inter)
        stats.extensions += len(inter)
        if i == n - 1:
            stats.count += len(inter)
            if emit and len(inter):
                row = np.empty((len(inter), n), dtype=np.int64)
                row[:, :-1] = binding[:-1]
                row[:, -1] = inter
                chunks.append(row)
            return
        for v in inter:
            binding[i] = v
            saved = []
            for ti, lvl in participants[i]:
                saved.append((ti, ranges[ti]))
                ranges[ti] = tries[ti].descend(lvl, *ranges[ti], int(v))
            recurse(i + 1)
            for ti, old in saved:
                ranges[ti] = old

    try:
        if all(t.n_rows for t in tries):
            recurse(0)
    except LeapfrogTimeout as e:
        e.partial = stats  # lower-bound stats for budgeted estimators
        raise
    if emit:
        stats.rows = (
            np.concatenate(chunks) if chunks else np.empty((0, n), dtype=np.int64)
        )
    return stats
