"""Leapfrog trie-join (paper Alg. 1), one frontier at a time.

Evaluates a natural join over trie-indexed relations by extending partial
bindings one attribute at a time, as Alg. 1 does, but for a whole
frontier of bindings per numpy call instead of one binding per Python
step — the BigJoin / Free Join formulation of the same worst-case-optimal
join. At depth ``i`` every frontier row takes its candidates for
``order[i]`` from the participant (relation containing ``order[i]``) with
the fewest children, and every other participant checks all proposals
with one ``np.searchsorted`` into its sorted ``(parent node, value)`` keys.

Values are dictionary-encoded per attribute once per call, so a key is
``parent * n_codes + code``: exact for any int64 id. The frontier is
walked depth-first in pieces of about ``CHUNK`` candidates, which bounds
memory, emits rows in lexicographic order of ``order`` and checks the
wall-clock deadline (the paper's 12-hour cap at laptop scale) once per
piece. Per-level intermediate counts (``|T^i|`` of §III-B and Fig. 8) and
the extensions behind β are recorded.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from repro.leapfrog.trie import Trie

#: candidates one step of the walk materialises: a piece of the frontier
#: holds at most this many rows, and proposes at most about twice as many
#: candidates unless a single row alone has more
CHUNK = 1 << 15


@dataclass
class LFResult:
    """Join output plus execution statistics."""

    rows: np.ndarray | None  # (count, n) result tuples; None if count_only
    count: int
    intermediate: list[int] = field(default_factory=list)  # |T^i| per level
    extensions: int = 0  # total intersection values produced (β estimation)
    root_counts: np.ndarray | None = None  # output count per given root
    roots_done: int = 0  # leading roots whose joins are complete
    cache_hits: int = 0  # frontier rows whose participant key was seen
    cache_misses: int = 0  # distinct participant keys extended


class LeapfrogTimeout(Exception):
    """Raised when the join exceeds its wall-clock budget. ``partial``
    holds the statistics gathered so far: lower bounds of the totals, and
    exact per-root counts for the first ``partial.roots_done`` roots."""

    def __init__(self, msg: str, partial: LFResult):
        super().__init__(msg)
        self.partial = partial


@dataclass
class _Participant:
    """One relation containing the attribute being extended."""

    col: int  # its trie's index, i.e. its node column in the frontier
    key: np.ndarray  # sorted ``parent * n_codes + code`` of the level's nodes
    start: np.ndarray | None  # child ranges of the level above (None: root)
    end: np.ndarray | None


@dataclass
class _Attr:
    """Per-call index of one attribute of the order."""

    values: np.ndarray  # sorted distinct values; a code indexes into it
    parts: list[_Participant]
    codes: np.ndarray  # node codes of every participant, concatenated
    base: np.ndarray  # offset of each participant's nodes in ``codes``


class _Frontier(NamedTuple):
    nodes: np.ndarray  # (m, n_tries) current node per trie (0 = root)
    bound: np.ndarray | None  # (m, depth) bound codes, when emitting
    root: np.ndarray | None  # (m,) index into ``roots``, when given

    def take(self, idx) -> _Frontier:
        return _Frontier(
            self.nodes[idx],
            None if self.bound is None else self.bound[idx],
            None if self.root is None else self.root[idx],
        )


def _index_attr(tries: Sequence[Trie], parts: list[tuple[int, int]]) -> _Attr:
    """Encode the values of one attribute and key its participants' levels.

    ``parent * n_codes + code`` stays below 2**63 while a level's parent
    count times the attribute's distinct values does, i.e. for any trie
    that fits in memory."""
    values = np.unique(np.concatenate([tries[t].values[lvl] for t, lvl in parts]))
    n_codes = len(values)
    out, codes = [], []
    for t, lvl in parts:
        trie = tries[t]
        code = np.searchsorted(values, trie.values[lvl]).astype(np.int64)
        if lvl == 0:
            out.append(_Participant(t, code, None, None))
        else:
            start, end = trie.child_start[lvl - 1], trie.child_end[lvl - 1]
            parent = np.repeat(np.arange(len(start), dtype=np.int64), end - start)
            out.append(_Participant(t, parent * n_codes + code, start, end))
        codes.append(code)
    base = np.cumsum([0] + [len(c) for c in codes[:-1]]).astype(np.int64)
    return _Attr(values, out, np.concatenate(codes), base)


def _ranges(attr: _Attr, nodes: np.ndarray):
    """Per frontier row: the proposing participant (fewest children), the
    position of its first candidate in ``attr.codes`` and their number."""
    m = len(nodes)
    lo = np.empty((len(attr.parts), m), dtype=np.int64)
    hi = np.empty_like(lo)
    for j, p in enumerate(attr.parts):
        if p.start is None:
            lo[j], hi[j] = 0, len(p.key)
        else:
            nd = nodes[:, p.col]
            lo[j], hi[j] = p.start[nd], p.end[nd]
    size = hi - lo
    prop = size.argmin(axis=0)
    rows = np.arange(m)
    return prop, lo[prop, rows] + attr.base[prop], size[prop, rows]


def _extend(attr: _Attr, nodes, prop, first, size, cand=None):
    """Propose and check the candidates of frontier rows ``nodes``.

    Returns ``(row, cand, found)``: for each surviving candidate its
    frontier row and code, and per participant its child node. ``cand``
    given (the roots) means no participant proposed and all check it."""
    if cand is None:
        total = int(size.sum())
        row = np.repeat(np.arange(len(nodes)), size)
        pos = np.repeat(first - (np.cumsum(size) - size), size)
        pos += np.arange(total)
        cand = attr.codes[pos]
        mine_of = prop[row]
    else:
        row = np.arange(len(nodes))
        pos = mine_of = None
    found: list[np.ndarray] = []
    for j, p in enumerate(attr.parts):
        if mine_of is not None and (mine_of == j).all():
            found.append(pos - attr.base[j])  # proposer of every candidate
            continue
        want = cand if p.start is None else nodes[row, p.col] * len(attr.values) + cand
        hit = np.searchsorted(p.key, want)
        ok = p.key.take(hit, mode="clip") == want
        if not ok.all():
            keep = np.flatnonzero(ok)
            row, cand, hit = row[keep], cand[keep], hit[keep]
            found = [f[keep] for f in found]
            if pos is not None:
                pos, mine_of = pos[keep], mine_of[keep]
        found.append(hit)
    return row, cand, found


def _extend_cached(attr: _Attr, nodes, prop, first, size, entries: int, stats):
    """:func:`_extend` once per distinct participant key, scattered back to
    every row holding it — the CacheTrieJoin memo as deduplication of the
    frontier, at most ``entries`` keys at a time."""
    cols = [p.col for p in attr.parts if p.start is not None]
    rows_out, cand_out, found_out = [], [], []
    for s in range(0, len(nodes), entries):
        sl = slice(s, s + entries)
        if cols:
            _, rep, inv = np.unique(
                nodes[sl][:, cols], axis=0, return_index=True, return_inverse=True
            )
            inv = inv.ravel()
        else:  # every row sits at the root of every participant
            rep, inv = np.zeros(1, dtype=np.int64), np.zeros(len(nodes[sl]), np.int64)
        stats.cache_misses += len(rep)
        stats.cache_hits += len(inv) - len(rep)
        u_row, u_cand, u_found = _extend(
            attr, nodes[sl][rep], prop[sl][rep], first[sl][rep], size[sl][rep]
        )
        n_u = np.bincount(u_row, minlength=len(rep))
        sizes = n_u[inv]
        start = (np.cumsum(n_u) - n_u)[inv]
        g = np.repeat(start - (np.cumsum(sizes) - sizes), sizes)
        g += np.arange(int(sizes.sum()))
        rows_out.append(np.repeat(np.arange(len(inv)), sizes) + s)
        cand_out.append(u_cand[g])
        found_out.append([f[g] for f in u_found])
    return (
        np.concatenate(rows_out),
        np.concatenate(cand_out),
        [np.concatenate(f) for f in zip(*found_out)],
    )


def leapfrog(
    tries: Sequence[Trie],
    order: Sequence[str],
    *,
    emit: bool = True,
    roots: Sequence[int] | np.ndarray | None = None,
    deadline: float | None = None,
    cache_entries: int = 0,
) -> LFResult:
    """Run Leapfrog over ``tries`` with attribute ``order``.

    ``emit=False`` counts results without materialising them. ``roots``
    gives the values of ``order[0]`` to start from, in the caller's order
    (the sampler's ``T_{A=a}`` of §IV, one call for all sampled values);
    ``root_counts`` then holds the output count of each root and rows come
    grouped by root in that order. ``deadline`` is an absolute
    ``time.monotonic()`` instant; exceeding it raises
    :class:`LeapfrogTimeout`. ``cache_entries > 0`` extends each distinct
    participant key of the frontier once (HCubeJ+Cache).
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
    # participants[i]: (trie index, level in that trie) for order[i]
    participants: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for ti, t in enumerate(tries):
        for lvl, a in enumerate(t.attrs):
            participants[pos_in_order[a]].append((ti, lvl))
    for i, p in enumerate(participants):
        if not p:
            raise ValueError(f"attribute {order[i]} appears in no relation")

    stats = LFResult(rows=None, count=0, intermediate=[0] * n)
    if roots is not None:
        roots = np.asarray(roots, dtype=np.int64).ravel()
        stats.root_counts = np.zeros(len(roots), dtype=np.int64)
    out: list[np.ndarray] = []
    attrs: list[_Attr] = []
    if all(t.n_rows for t in tries) and (roots is None or len(roots)):
        attrs = [_index_attr(tries, p) for p in participants]
        _walk(attrs, len(tries), emit, roots, deadline, cache_entries, stats, out)
    if roots is not None:
        stats.roots_done = len(roots)
    if emit:
        codes = np.concatenate(out) if out else np.empty((0, n), dtype=np.int64)
        stats.rows = np.empty(codes.shape, dtype=np.int64)
        for i, a in enumerate(attrs):
            stats.rows[:, i] = a.values[codes[:, i]]
    return stats


def _walk(attrs, n_tries, emit, roots, deadline, cache_entries, stats, out):
    """Depth-first walk of the frontier, piece by piece."""
    n = len(attrs)
    m0 = 1 if roots is None else len(roots)
    start = _Frontier(
        np.zeros((m0, n_tries), dtype=np.int64),
        np.empty((m0, 0), dtype=np.int64) if emit else None,
        None if roots is None else np.arange(m0),
    )
    root_codes = None
    if roots is not None:
        vals = attrs[0].values
        at = np.minimum(np.searchsorted(vals, roots), len(vals) - 1)
        root_codes = np.where(vals[at] == roots, at, -1)
    stack = [(0, start)]
    while stack:
        depth, fr = stack.pop()
        if deadline is not None and time.monotonic() > deadline:
            if roots is not None:
                stats.roots_done = int(fr.root[0])
            raise LeapfrogTimeout(
                f"leapfrog exceeded budget at depth {depth} "
                f"(count so far {stats.count})",
                stats,
            )
        attr = attrs[depth]
        if depth == 0 and roots is not None:
            size = (root_codes[fr.root] >= 0).astype(np.int64)
        else:
            prop, first, size = _ranges(attr, fr.nodes)
        total = int(size.sum())
        if total > CHUNK and len(size) > 1:
            cuts = np.unique(
                np.searchsorted(
                    np.cumsum(size), np.arange(CHUNK, total, CHUNK), side="right"
                )
            )
            cuts = cuts[(cuts > 0) & (cuts < len(size))]
            if len(cuts):
                bounds = [0, *cuts.tolist(), len(size)]
                for lo, hi in reversed(list(zip(bounds, bounds[1:]))):
                    stack.append((depth, fr.take(slice(lo, hi))))
                continue
        if depth == 0 and roots is not None:
            fr = fr.take(np.flatnonzero(size))
            row, cand, found = _extend(
                attr, fr.nodes, None, None, None, cand=root_codes[fr.root]
            )
        elif cache_entries > 0:
            row, cand, found = _extend_cached(
                attr, fr.nodes, prop, first, size, cache_entries, stats
            )
        else:
            row, cand, found = _extend(attr, fr.nodes, prop, first, size)
        if not len(row):
            continue
        stats.intermediate[depth] += len(row)
        stats.extensions += len(row)
        bound = None if fr.bound is None else np.column_stack((fr.bound[row], cand))
        if depth == n - 1:
            stats.count += len(row)
            if fr.root is not None:
                stats.root_counts += np.bincount(
                    fr.root[row], minlength=len(stats.root_counts)
                )
            if bound is not None:
                out.append(bound)
            continue
        nodes = fr.nodes[row]
        for p, f in zip(attr.parts, found):
            nodes[:, p.col] = f
        root = None if fr.root is None else fr.root[row]
        stack.append((depth + 1, _Frontier(nodes, bound, root)))
