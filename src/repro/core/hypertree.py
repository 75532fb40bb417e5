"""Generalized hypertree decomposition (paper §III-A).

A hypernode ("bag") of the hypertree ``T`` is a subset of the query's
hyperedges — its *candidate relation* is the join of those relations
(Fig. 5). The hypertree must satisfy the running-intersection property:
for every attribute, the bags containing it form a connected subtree.

Candidate decompositions are generated from attribute elimination orders
(n ≤ 5 for Q1–Q6 ⇒ ≤ 120 orders, each inducing one decomposition — the
paper's Fig. 5 tree for Eq. (2) is produced by e.g. the order e,d,a,b,c),
plus the trivial single-bag and one-bag-per-relation decompositions. The
winner minimizes fhw = max_v ρ*(attrs(v)) (fractional edge cover via
``repro.lp``), tie-broken by smaller maximum bag arity, then by more bags
(finer bags give the Alg. 2 optimizer more pre-computation choices).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from repro.core.query import JoinQuery, Relation
from repro.lp.simplex import fractional_edge_cover


@dataclass(frozen=True)
class Bag:
    """One hypernode of the hypertree: a set of covered relations λ(v)."""

    index: int
    attrs: tuple[str, ...]
    relations: tuple[Relation, ...]

    @property
    def name(self) -> str:
        return f"v{self.index}"

    @property
    def needs_precompute(self) -> bool:
        """A bag of ≥ 2 relations corresponds to a join that *can* be
        pre-computed; a single-relation bag is already materialized."""
        return len(self.relations) > 1

    @property
    def attr_set(self) -> frozenset[str]:
        return frozenset(self.attrs)

    def join_order(self) -> list[Relation]:
        """Greedy binary-join order of λ(v), shared by the driver-local
        pre-join the optimizer prices and the Catalyst pre-compute: start
        with the first relation, then always merge the one sharing the
        most attributes with the accumulated result (max filtering; ties
        keep λ(v) order)."""
        remaining = list(self.relations)
        order = [remaining.pop(0)]
        bound = set(order[0].attrs)
        while remaining:
            r = max(remaining, key=lambda x: len(x.attr_set & bound))
            remaining.remove(r)
            order.append(r)
            bound |= r.attr_set
        return order


class Hypertree:
    """A GHD of a join query with its tree edges and fhw."""

    def __init__(
        self,
        query: JoinQuery,
        bags: Sequence[Bag],
        tree_edges: Sequence[tuple[int, int]],
        fhw: float,
    ):
        self.query = query
        self.bags: tuple[Bag, ...] = tuple(bags)
        self.tree_edges: frozenset[tuple[int, int]] = frozenset(
            tuple(sorted(e)) for e in tree_edges
        )
        self.fhw = fhw

    def neighbors(self, i: int) -> list[int]:
        return sorted(
            b if a == i else a for a, b in self.tree_edges if i in (a, b)
        )

    # -- traversal / attribute orders (paper §III-A "Reducing Choice of
    # Attribute Orders") ---------------------------------------------------
    def is_connected_subset(self, idxs: set[int]) -> bool:
        """Whether the bags ``idxs`` induce a connected subtree."""
        if not idxs:
            return True
        seen = {next(iter(idxs))}
        frontier = list(seen)
        while frontier:
            cur = frontier.pop()
            for n in self.neighbors(cur):
                if n in idxs and n not in seen:
                    seen.add(n)
                    frontier.append(n)
        return seen == idxs

    def traversal_orders(self) -> Iterator[tuple[int, ...]]:
        """All valid bag traversal orders: every prefix induces a connected
        subtree (equivalently, Alg. 2 removes only bags whose removal keeps
        the untraversed part connected)."""

        def rec(prefix: list[int], remaining: set[int]) -> Iterator[tuple[int, ...]]:
            if not remaining:
                yield tuple(prefix)
                return
            for i in sorted(remaining):
                if not prefix or any(
                    i in self.neighbors(p) for p in prefix
                ):
                    yield from rec(prefix + [i], remaining - {i})

        return rec([], set(range(len(self.bags))))

    def new_attrs(self, order: Sequence[int]) -> list[tuple[str, ...]]:
        """Per-bag attributes not introduced by an earlier bag in ``order``."""
        seen: set[str] = set()
        out: list[tuple[str, ...]] = []
        for i in order:
            new = tuple(a for a in self.bags[i].attrs if a not in seen)
            seen.update(new)
            out.append(new)
        return out

    def attribute_order(self, order: Sequence[int]) -> tuple[str, ...]:
        """A concrete attribute order following bag traversal ``order``; new
        attributes within a bag are placed high-degree-first (attributes in
        more relations are more constrained — cf. [11])."""
        deg = {
            a: sum(1 for r in self.query.relations if a in r.attr_set)
            for a in self.query.attrs
        }
        out: list[str] = []
        for new in self.new_attrs(order):
            out.extend(sorted(new, key=lambda a: (-deg[a], a)))
        return tuple(out)

    def valid_attribute_orders(self) -> Iterator[tuple[str, ...]]:
        """Every attribute order consistent with some valid bag traversal
        (bag-prefix attributes before later bags' new attributes; new
        attributes within a bag may permute freely)."""
        emitted: set[tuple[str, ...]] = set()
        for order in self.traversal_orders():
            per_bag = [
                itertools.permutations(new) for new in self.new_attrs(order)
            ]
            for combo in itertools.product(*per_bag):
                flat = tuple(a for grp in combo for a in grp)
                if flat not in emitted:
                    emitted.add(flat)
                    yield flat

    def is_valid_attribute_order(self, ord_: Sequence[str]) -> bool:
        """Whether ``ord_`` follows some valid bag traversal order."""
        target = tuple(ord_)
        return any(target == cand for cand in self.valid_attribute_orders())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bags = "; ".join(
            f"{b.name}{b.attrs}={{{','.join(r.name for r in b.relations)}}}"
            for b in self.bags
        )
        return f"Hypertree(fhw={self.fhw:.2f}, {bags})"


# ---------------------------------------------------------------------------
# Decomposition search
# ---------------------------------------------------------------------------

def _eliminate(query: JoinQuery, order: Sequence[str]) -> list[frozenset[str]]:
    """Bags induced by eliminating attributes in ``order`` (variable
    elimination on the hypergraph), with subset-bags pruned."""
    edges = [r.attr_set for r in query.relations]
    bags: list[frozenset[str]] = []
    for a in order:
        hit = [e for e in edges if a in e]
        rest = [e for e in edges if a not in e]
        bag = frozenset().union(*hit) if hit else frozenset({a})
        bags.append(bag)
        residual = bag - {a}
        if residual:
            rest.append(residual)
        edges = rest
    # prune bags subsumed by another bag
    out: list[frozenset[str]] = []
    for b in bags:
        if not any(b < o for o in bags) and b not in out:
            out.append(b)
    return out


def _join_tree(
    bag_attrs: list[frozenset[str]],
) -> list[tuple[int, int]] | None:
    """Maximum-weight spanning tree over bags (weight = |shared attrs|),
    or None if the result violates running intersection. A join tree exists
    iff the max-weight spanning tree is one (classic acyclicity result)."""
    k = len(bag_attrs)
    if k == 1:
        return []
    pairs = sorted(
        (
            (-len(bag_attrs[i] & bag_attrs[j]), i, j)
            for i in range(k)
            for j in range(i + 1, k)
        ),
    )
    parent = list(range(k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges: list[tuple[int, int]] = []
    for w, i, j in pairs:
        if find(i) != find(j):
            parent[find(i)] = find(j)
            edges.append((i, j))
    if len(edges) != k - 1:
        return None  # forest — disconnected bag set
    # running intersection check: for each attribute, bags holding it must
    # induce a connected subtree.
    adj: dict[int, list[int]] = {i: [] for i in range(k)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    attrs = frozenset().union(*bag_attrs)
    for a in attrs:
        holders = {i for i in range(k) if a in bag_attrs[i]}
        seen = {next(iter(holders))}
        frontier = list(seen)
        while frontier:
            cur = frontier.pop()
            for n in adj[cur]:
                if n in holders and n not in seen:
                    seen.add(n)
                    frontier.append(n)
        if seen != holders:
            return None
    return edges


def _assign_relations(
    query: JoinQuery, bag_attrs: list[frozenset[str]]
) -> list[list[Relation]] | None:
    """λ assignment: each relation goes to the smallest bag containing its
    schema. Returns None if some relation fits no bag."""
    lam: list[list[Relation]] = [[] for _ in bag_attrs]
    for r in query.relations:
        fits = [i for i, b in enumerate(bag_attrs) if r.attr_set <= b]
        if not fits:
            return None
        best = min(fits, key=lambda i: (len(bag_attrs[i]), i))
        lam[best].append(r)
    return lam


def _build(
    query: JoinQuery, raw_bags: list[frozenset[str]]
) -> Hypertree | None:
    """Assemble a Hypertree from candidate bag attribute sets, shrinking
    each bag to the union of its assigned relations and re-validating."""
    lam = _assign_relations(query, raw_bags)
    if lam is None:
        return None
    bags_attrs: list[frozenset[str]] = []
    bags_rels: list[list[Relation]] = []
    for attrs, rels in zip(raw_bags, lam):
        if not rels:
            continue  # empty bag: carries no relation, drop it
        union = frozenset().union(*(r.attr_set for r in rels))
        bags_attrs.append(union)
        bags_rels.append(rels)
    # dedupe identical bags (merge their λ)
    merged: dict[frozenset[str], list[Relation]] = {}
    for attrs, rels in zip(bags_attrs, bags_rels):
        merged.setdefault(attrs, []).extend(rels)
    # drop bags subsumed by another bag (merge λ into the superset bag)
    keys = list(merged)
    for b in keys:
        sup = next((o for o in merged if b < o), None)
        if sup is not None:
            merged[sup].extend(merged.pop(b))
    bag_list = sorted(merged.items(), key=lambda kv: tuple(sorted(kv[0])))
    attrs_list = [b for b, _ in bag_list]
    tree = _join_tree(attrs_list)
    if tree is None:
        return None
    fhw = max(
        _rho_star(query, tuple(sorted(b))) for b in attrs_list
    )
    bags = [
        Bag(
            i,
            tuple(a for a in query.attrs if a in battrs),
            tuple(sorted(rels, key=lambda r: r.name)),
        )
        for i, (battrs, rels) in enumerate(bag_list)
    ]
    return Hypertree(query, bags, tree, fhw)


@lru_cache(maxsize=None)
def _rho_star_cached(
    edge_key: tuple[frozenset[str], ...], attrs: tuple[str, ...]
) -> float:
    rho, _ = fractional_edge_cover(list(attrs), list(edge_key))
    return rho


def _rho_star(query: JoinQuery, attrs: tuple[str, ...]) -> float:
    return _rho_star_cached(tuple(query.hyperedges), attrs)


def candidate_hypertrees(query: JoinQuery) -> list[Hypertree]:
    """All distinct valid decompositions from elimination orders plus the
    single-bag and one-bag-per-relation candidates."""
    seen: set[tuple[frozenset[str], ...]] = set()
    out: list[Hypertree] = []

    def consider(raw: list[frozenset[str]]) -> None:
        ht = _build(query, raw)
        if ht is None:
            return
        key = tuple(sorted((b.attr_set for b in ht.bags), key=sorted))
        if key not in seen:
            seen.add(key)
            out.append(ht)

    n = len(query.attrs)
    if n <= 7:
        for order in itertools.permutations(query.attrs):
            consider(_eliminate(query, order))
    consider([frozenset(query.attrs)])  # trivial single bag
    consider([r.attr_set for r in query.relations])  # one bag per relation
    return out


@lru_cache(maxsize=None)
def _find_by_name(qname: str) -> Hypertree:
    from repro.core.query import get_query

    return find_hypertree(get_query(qname), _cacheable=False)


def find_hypertree(query: JoinQuery, _cacheable: bool = True) -> Hypertree:
    """The optimal hypertree: min fhw, then min max bag arity, then most
    bags (paper §III-A: minimize the maximal pre-computed relation size)."""
    from repro.core.query import ALL_QUERIES, get_query

    if _cacheable and query.name in ALL_QUERIES:
        canonical = get_query(query.name)
        if repr(canonical) == repr(query):
            return _find_by_name(query.name)
    cands = candidate_hypertrees(query)
    if not cands:  # pragma: no cover - single-bag candidate always valid
        raise RuntimeError(f"no valid hypertree for {query.name}")
    return min(
        cands,
        key=lambda t: (
            round(t.fhw, 6),
            max(len(b.attrs) for b in t.bags),
            -len(t.bags),
        ),
    )
