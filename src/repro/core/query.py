"""Join-query and hypergraph representation (paper §II).

A natural join query ``Q = R_1 ⋈ ... ⋈ R_m`` is a list of :class:`Relation`
atoms; its hypergraph has one hypernode per attribute and one hyperedge per
relation schema. The paper's evaluation queries Q1–Q6 (§VII-A) plus the simple
Q7/Q8 used in unit tests are provided as constructors.

Every relation in the paper's workload is a copy of one graph ``e(src, dst)``;
:func:`JoinQuery.to_sql` emits the equivalent SQL over that table so the DuckDB
oracle can recompute any query independently.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence


@dataclass(frozen=True)
class Relation:
    """One atom ``name(attrs...)`` of a natural join query."""

    name: str
    attrs: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.attrs)) != len(self.attrs):
            raise ValueError(f"duplicate attribute in {self.name}{self.attrs}")
        if not self.attrs:
            raise ValueError(f"relation {self.name} has no attributes")

    @property
    def attr_set(self) -> frozenset[str]:
        return frozenset(self.attrs)


class JoinQuery:
    """A natural join query over a set of relations (Eq. (1) of the paper)."""

    def __init__(self, name: str, relations: Sequence[Relation]):
        if len(relations) < 1:
            raise ValueError("a join query needs at least one relation")
        names = [r.name for r in relations]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate relation names in {name}: {names}")
        self.name = name
        self.relations: tuple[Relation, ...] = tuple(relations)
        # attrs(Q): union of schemas, in order of first appearance (the paper's
        # arbitrary-but-fixed ``ord`` baseline; optimizers pick their own ord).
        seen: dict[str, None] = {}
        for r in relations:
            for a in r.attrs:
                seen.setdefault(a, None)
        self.attrs: tuple[str, ...] = tuple(seen)

    # -- hypergraph view ---------------------------------------------------
    @property
    def hyperedges(self) -> list[frozenset[str]]:
        """E(H): one hyperedge (attribute set) per relation."""
        return [r.attr_set for r in self.relations]

    def relations_with(self, attr: str) -> list[Relation]:
        """All relations whose schema contains ``attr`` (Alg. 1 line 4)."""
        return [r for r in self.relations if attr in r.attr_set]

    def is_connected(self) -> bool:
        """Whether the hypergraph is connected (via shared attributes)."""
        if not self.relations:
            return True
        todo = set(range(len(self.relations)))
        frontier = {todo.pop()}
        while frontier:
            nxt: set[int] = set()
            for i in list(todo):
                if any(
                    self.relations[i].attr_set & self.relations[j].attr_set
                    for j in frontier
                ):
                    todo.discard(i)
                    nxt.add(i)
            frontier = nxt
        return not todo

    # -- oracle support ----------------------------------------------------
    def to_sql(
        self,
        tables: Mapping[str, tuple[str, Sequence[str]]] | None = None,
        default_table: str = "e",
    ) -> str:
        """SQL equivalent to the natural join, for the DuckDB oracle.

        ``tables`` maps a relation name to ``(table_name, column_names)``;
        unmapped relations default to ``default_table`` with columns
        ``(src, dst)`` for arity 2 or ``c0..c{k-1}`` otherwise. Output columns
        are aliased to the query's attribute names.
        """
        tables = dict(tables or {})
        froms: list[str] = []
        wheres: list[str] = []
        first_ref: dict[str, str] = {}
        for i, r in enumerate(self.relations):
            tname, cols = tables.get(
                r.name,
                (
                    default_table,
                    ("src", "dst")
                    if len(r.attrs) == 2
                    else tuple(f"c{j}" for j in range(len(r.attrs))),
                ),
            )
            if len(cols) != len(r.attrs):
                raise ValueError(
                    f"{r.name}: table {tname} has {len(cols)} columns, "
                    f"relation has {len(r.attrs)} attributes"
                )
            alias = f"r{i}"
            froms.append(f"{tname} {alias}")
            for a, c in zip(r.attrs, cols):
                ref = f"{alias}.{c}"
                if a in first_ref:
                    wheres.append(f"{ref} = {first_ref[a]}")
                else:
                    first_ref[a] = ref
        select = ", ".join(f"{first_ref[a]} AS {a}" for a in self.attrs)
        sql = f"SELECT {select} FROM {', '.join(froms)}"
        if wheres:
            sql += " WHERE " + " AND ".join(wheres)
        return sql

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = " ⋈ ".join(f"{r.name}({','.join(r.attrs)})" for r in self.relations)
        return f"{self.name} := {body}"


def _q(name: str, *edges: tuple[str, str] | tuple[str, ...]) -> JoinQuery:
    return JoinQuery(
        name, [Relation(f"R{i + 1}", tuple(e)) for i, e in enumerate(edges)]
    )


def q1() -> JoinQuery:
    """Triangle: R1(a,b) ⋈ R2(b,c) ⋈ R3(a,c)."""
    return _q("Q1", ("a", "b"), ("b", "c"), ("a", "c"))


def q2() -> JoinQuery:
    """4-cycle with one diagonal (chordal square + chord a-c)."""
    return _q("Q2", ("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c"))


def q3() -> JoinQuery:
    """5-clique: all 10 edges among a..e."""
    return _q(
        "Q3",
        ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"),
        ("b", "d"), ("b", "e"), ("c", "a"), ("c", "e"), ("a", "d"),
    )


def q4() -> JoinQuery:
    """5-cycle plus chord (b,e)."""
    return _q(
        "Q4", ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"), ("b", "e")
    )


def q5() -> JoinQuery:
    """5-cycle plus chords (b,e), (b,d)."""
    return _q(
        "Q5",
        ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"),
        ("b", "e"), ("b", "d"),
    )


def q6() -> JoinQuery:
    """5-cycle plus chords (b,e), (b,d), (c,e)."""
    return _q(
        "Q6",
        ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"),
        ("b", "e"), ("b", "d"), ("c", "e"),
    )


def q7() -> JoinQuery:
    """2-path: R1(a,b) ⋈ R2(b,c) — a fast acyclic query for tests."""
    return _q("Q7", ("a", "b"), ("b", "c"))


def q8() -> JoinQuery:
    """3-star: R1(a,b) ⋈ R2(a,c) ⋈ R3(a,d)."""
    return _q("Q8", ("a", "b"), ("a", "c"), ("a", "d"))


ALL_QUERIES = {
    "Q1": q1, "Q2": q2, "Q3": q3, "Q4": q4, "Q5": q5, "Q6": q6,
    "Q7": q7, "Q8": q8,
}


def get_query(name: str) -> JoinQuery:
    """Look up a paper query by name (``Q1``..``Q8``)."""
    try:
        return ALL_QUERIES[name]()
    except KeyError:
        raise KeyError(f"unknown query {name!r}; have {sorted(ALL_QUERIES)}") from None
