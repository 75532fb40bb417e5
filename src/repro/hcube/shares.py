"""Share-vector optimization for HCube (paper §III-B, Eq. (3)).

Given relations ``R`` with sizes ``|R|`` and a budget of ``P`` hypercubes,
choose integer shares ``p_A ≥ 1`` with ``∏ p_A ≤ P`` minimizing the total
number of shuffled tuples ``Σ_R |R| · dup(R, p)`` where
``dup(R, p) = ∏_{A ∉ attrs(R)} p_A``, subject to the expected per-server
load ``Σ_R |R| · frac(R, p) ≤ M`` with ``frac(R, p) = 1/∏_{A ∈ attrs(R)} p_A``.

Queries here have ≤ 5 attributes and ``P ≤ 64``, so exhaustive
enumeration of share vectors is exact and fast (a few thousand vectors).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


RelSpec = tuple[tuple[str, ...], int]  # (attrs, |R| in tuples)


def dup(rel_attrs: Iterable[str], p: Mapping[str, int]) -> int:
    """Number of servers each tuple of a relation is replicated to."""
    rel = set(rel_attrs)
    return math.prod(v for a, v in p.items() if a not in rel)


def frac(rel_attrs: Iterable[str], p: Mapping[str, int]) -> float:
    """Expected fraction of a relation landing on one server."""
    rel = set(rel_attrs)
    return 1.0 / math.prod(v for a, v in p.items() if a in rel)


def comm_tuples(relations: Sequence[RelSpec], p: Mapping[str, int]) -> int:
    """Total tuples shuffled: Σ |R| · dup(R, p)."""
    return sum(size * dup(attrs, p) for attrs, size in relations)


def server_load(relations: Sequence[RelSpec], p: Mapping[str, int]) -> float:
    """Expected tuples received per server: Σ |R| · frac(R, p)."""
    return sum(size * frac(attrs, p) for attrs, size in relations)


@dataclass(frozen=True)
class Shares:
    """An optimized share vector."""

    p: dict[str, int]
    n_servers: int  # ∏ p_A — the number of hypercubes
    comm: int  # Σ |R| · dup(R, p)
    load: float  # expected tuples per server
    feasible: bool  # load ≤ M held

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", dict(self.p))


def _vectors(attrs: Sequence[str], max_product: int) -> Iterable[dict[str, int]]:
    """All share vectors with each p_A ≥ 1 and ∏ p_A ≤ max_product."""

    def rec(i: int, remaining: int, cur: dict[str, int]):
        if i == len(attrs):
            yield dict(cur)
            return
        a = attrs[i]
        v = 1
        while v <= remaining:
            cur[a] = v
            yield from rec(i + 1, remaining // v, cur)
            v += 1
        cur.pop(a, None)

    yield from rec(0, max_product, {})


#: per-server capacity M as a multiple of the tightest achievable load
MEMORY_SLACK = 2.0


def derive_memory(
    attrs: Sequence[str],
    raw_relations: Sequence[RelSpec],
    n_servers: int,
    slack: float = MEMORY_SLACK,
) -> float:
    """Per-server capacity M: ``slack ×`` the minimum achievable expected
    load over all share vectors with ``∏ p ≤ n_servers``."""
    return slack * min(
        server_load(raw_relations, p) for p in _vectors(list(attrs), n_servers)
    )


def optimize_shares(
    attrs: Sequence[str],
    relations: Sequence[RelSpec],
    n_servers: int,
    memory_tuples: float | None = None,
) -> Shares:
    """Solve Eq. (3): min communication s.t. memory, by enumeration.

    ``memory_tuples`` is the per-server capacity ``M``; ``None`` disables
    the constraint (then only ``∏ p ≤ n_servers`` binds, and the optimum
    degenerates to spreading nothing — so a memory bound is what forces
    genuine partitioning, as in the paper's cluster). If no vector is
    feasible, the vector with the smallest load is returned with
    ``feasible=False`` (best-effort, mirrors the paper's OOM failures).
    """
    for rel_attrs, _ in relations:
        unknown = set(rel_attrs) - set(attrs)
        if unknown:
            raise ValueError(f"relation attrs {unknown} not in query attrs {attrs}")
    best: Shares | None = None
    best_infeasible: Shares | None = None
    for p in _vectors(list(attrs), n_servers):
        c = comm_tuples(relations, p)
        load = server_load(relations, p)
        ns = math.prod(p.values())
        cand = Shares(p, ns, c, load, True)
        if memory_tuples is None or load <= memory_tuples:
            # minimize comm; tie-break to lower load, then more parallelism
            key = (c, load, -ns)
            if best is None or key < (best.comm, best.load, -best.n_servers):
                best = cand
        if best_infeasible is None or load < best_infeasible.load:
            best_infeasible = cand
    if best is not None:
        return best
    assert best_infeasible is not None
    return Shares(
        best_infeasible.p,
        best_infeasible.n_servers,
        best_infeasible.comm,
        best_infeasible.load,
        False,
    )
