"""Unit tests for the Leapfrog trie-join (Alg. 1), checked against DuckDB."""
import itertools
import sys
import time

import duckdb
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import JoinQuery, Relation, get_query
from repro.leapfrog.leapfrog import LeapfrogTimeout, leapfrog
from repro.leapfrog.trie import Trie, trie_for_order
from repro.synth_data import tiny_graph_pdf


def _duck_count(sql: str, edges) -> int:
    con = duckdb.connect()
    try:
        con.register("e", edges)
        return con.execute(f"SELECT count(*) FROM ({sql})").fetchone()[0]
    finally:
        con.close()


def _tries_for_query(qname: str, edges, order):
    q = get_query(qname)
    rows = edges[["src", "dst"]].to_numpy()
    return q, [trie_for_order(rows, r.attrs, order) for r in q.relations]


class TestLeapfrogSmall:
    def test_paper_example_fig3(self):
        """Fig. 3(b): the server-S0 fragment joins to the single tuple
        (1,2,1,1,2) — wired up with the exact relations of Fig. 3(a)."""
        order = ("a", "b", "c", "d", "e")
        r1 = trie_for_order(np.array([[1, 2, 1], [1, 2, 2]]), ("a", "b", "c"), order)
        r2 = trie_for_order(np.array([[1, 1], [4, 1]]), ("a", "d"), order)
        r3 = trie_for_order(np.array([[1, 1], [1, 2]]), ("c", "d"), order)
        r4 = trie_for_order(np.array([[2, 2], [2, 4]]), ("b", "e"), order)
        r5 = trie_for_order(np.array([[1, 2], [3, 2]]), ("c", "e"), order)
        res = leapfrog([r1, r2, r3, r4, r5], order)
        assert res.rows.tolist() == [[1, 2, 1, 1, 2]]
        assert res.count == 1

    def test_triangle_tiny(self):
        order = ("a", "b", "c")
        rows = np.array([[1, 2], [2, 3], [1, 3], [3, 1]])
        q = get_query("Q1")
        tries = [trie_for_order(rows, r.attrs, order) for r in q.relations]
        res = leapfrog(tries, order)
        assert res.rows.tolist() == [[1, 2, 3]]

    def test_empty_relation_gives_empty(self):
        order = ("a", "b", "c")
        t1 = trie_for_order(np.array([[1, 2]]), ("a", "b"), order)
        t2 = trie_for_order(np.empty((0, 2)), ("b", "c"), order)
        t3 = trie_for_order(np.array([[1, 3]]), ("a", "c"), order)
        res = leapfrog([t1, t2, t3], order)
        assert res.count == 0
        assert res.rows.shape == (0, 3)

    def test_count_only_matches_emit(self):
        edges = tiny_graph_pdf()
        order = ("a", "b", "c")
        _, tries = _tries_for_query("Q1", edges, order)
        full = leapfrog(tries, order, emit=True)
        cnt = leapfrog(tries, order, emit=False)
        assert cnt.rows is None
        assert cnt.count == full.count == len(full.rows)

    def test_misaligned_trie_rejected(self):
        order = ("a", "b")
        bad = Trie(np.array([[1, 2]]), ("b", "a"))
        with pytest.raises(ValueError):
            leapfrog([bad], order)

    def test_unknown_attr_rejected(self):
        t = Trie(np.array([[1, 2]]), ("a", "b"))
        with pytest.raises(ValueError):
            leapfrog([t], ("a", "b", "z"))

    def test_intermediate_counts(self):
        """|T^i| counters: for the Fig. 3 example T^1..T^5 all have one
        tuple (see Example 1)."""
        order = ("a", "b", "c", "d", "e")
        r1 = trie_for_order(np.array([[1, 2, 1], [1, 2, 2]]), ("a", "b", "c"), order)
        r2 = trie_for_order(np.array([[1, 1], [4, 1]]), ("a", "d"), order)
        r3 = trie_for_order(np.array([[1, 1], [1, 2]]), ("c", "d"), order)
        r4 = trie_for_order(np.array([[2, 2], [2, 4]]), ("b", "e"), order)
        r5 = trie_for_order(np.array([[1, 2], [3, 2]]), ("c", "e"), order)
        res = leapfrog([r1, r2, r3, r4, r5], order)
        assert res.intermediate == [1, 1, 1, 1, 1]

    def test_roots_pin_first_attribute(self):
        """Roots in any order give per-root counts equal to the full join
        grouped by ``order[0]``; emitted rows come grouped by root."""
        edges = tiny_graph_pdf()
        order = ("a", "b", "c")
        _, tries = _tries_for_query("Q1", edges, order)
        full = leapfrog(tries, order, emit=True)
        if full.count == 0:
            pytest.skip("no triangles in tiny graph")
        roots = np.unique(full.rows[:, 0])[::-1]
        res = leapfrog(tries, order, emit=True, roots=roots)
        expect = [full.rows[full.rows[:, 0] == a] for a in roots]
        assert res.root_counts.tolist() == [len(x) for x in expect]
        assert res.rows.tolist() == np.concatenate(expect).tolist()
        assert res.roots_done == len(roots)

    def test_root_absent_value(self):
        edges = tiny_graph_pdf()
        order = ("a", "b", "c")
        _, tries = _tries_for_query("Q1", edges, order)
        res = leapfrog(tries, order, emit=False, roots=[10**9, -(10**9)])
        assert res.count == 0
        assert res.root_counts.tolist() == [0, 0]
        assert res.intermediate == [0, 0, 0]

    def test_timeout_raises(self):
        edges = tiny_graph_pdf(n_edges=2000, n_nodes=60)
        order = ("a", "b", "c", "d", "e")
        _, tries = _tries_for_query("Q3", edges, order)
        with pytest.raises(LeapfrogTimeout) as info:
            leapfrog(tries, order, emit=False, deadline=time.monotonic() - 1)
        assert info.value.partial.count == 0
        assert info.value.partial.intermediate == [0] * 5

    def test_timeout_partial_is_typed_lower_bound(self, monkeypatch):
        """A deadline hit mid-walk carries the stats so far: lower bounds
        of the totals and exact counts for the finished roots."""
        lf = sys.modules["repro.leapfrog.leapfrog"]

        edges = tiny_graph_pdf(n_edges=600, n_nodes=40, seed=4)
        order = ("a", "b", "c", "d")
        _, tries = _tries_for_query("Q2", edges, order)
        roots = np.unique(edges["src"].to_numpy())
        full = leapfrog(tries, order, emit=False, roots=roots)
        monkeypatch.setattr(lf, "CHUNK", 8)
        monkeypatch.setattr(lf, "time", _FakeClock())
        with pytest.raises(LeapfrogTimeout) as info:
            leapfrog(tries, order, emit=False, roots=roots, deadline=480.0)
        part = info.value.partial
        assert isinstance(part, lf.LFResult)
        assert 0 < part.roots_done < len(roots)
        done = part.roots_done
        assert part.root_counts[:done].tolist() == full.root_counts[:done].tolist()
        assert part.count < full.count
        assert all(p <= f for p, f in zip(part.intermediate, full.intermediate))
        assert part.extensions == sum(part.intermediate)


class _FakeClock:
    """``time`` stand-in whose clock advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self) -> float:
        self.now += 1.0
        return self.now


QUERY_ORDERS = {
    "Q1": ("a", "b", "c"),
    "Q2": ("a", "b", "c", "d"),
    "Q4": ("a", "b", "e", "c", "d"),
    "Q7": ("a", "b", "c"),
    "Q8": ("a", "b", "c", "d"),
}


class TestLeapfrogVsDuckDB:
    @pytest.mark.parametrize("qname", sorted(QUERY_ORDERS))
    def test_count_matches_oracle(self, qname):
        edges = tiny_graph_pdf()
        order = QUERY_ORDERS[qname]
        q, tries = _tries_for_query(qname, edges, order)
        res = leapfrog(tries, order, emit=False)
        assert res.count == _duck_count(q.to_sql(), edges)

    @pytest.mark.parametrize("qname", ["Q1", "Q2", "Q4"])
    def test_rows_match_oracle(self, qname):
        edges = tiny_graph_pdf(n_edges=150, n_nodes=25, seed=3)
        order = QUERY_ORDERS[qname]
        q, tries = _tries_for_query(qname, edges, order)
        res = leapfrog(tries, order, emit=True)
        con = duckdb.connect()
        try:
            con.register("e", edges)
            # oracle rows reordered to the Leapfrog attribute order
            cols = ", ".join(order)
            expect = con.execute(
                f"SELECT {cols} FROM ({q.to_sql()}) ORDER BY {cols}"
            ).fetchall()
        finally:
            con.close()
        got = sorted(map(tuple, res.rows.tolist()))
        assert got == [tuple(map(int, r)) for r in expect]

    def test_any_order_same_count(self):
        """Result cardinality is order-invariant (Leapfrog correctness)."""
        import itertools

        edges = tiny_graph_pdf(n_edges=120, n_nodes=20, seed=5)
        q = get_query("Q1")
        expect = _duck_count(q.to_sql(), edges)
        rows = edges[["src", "dst"]].to_numpy()
        for order in itertools.permutations(("a", "b", "c")):
            tries = [
                trie_for_order(rows, r.attrs, order) for r in q.relations
            ]
            assert leapfrog(tries, order, emit=False).count == expect


class TestCachedLeapfrog:
    def test_cache_preserves_results(self):
        edges = tiny_graph_pdf()
        order = ("a", "b", "c")
        _, tries = _tries_for_query("Q1", edges, order)
        plain = leapfrog(tries, order, emit=True)
        cached = leapfrog(tries, order, emit=True, cache_entries=10_000)
        assert cached.rows.tolist() == plain.rows.tolist()
        assert cached.intermediate == plain.intermediate
        assert cached.cache_hits + cached.cache_misses > 0

    def test_cache_hits_on_repeated_positions(self):
        # star query: the c and d extensions depend only on a's node, so
        # every (a, b) row after the first with the same a is a hit
        order = ("a", "b", "c", "d")
        edges = tiny_graph_pdf(n_edges=100, n_nodes=10, seed=2)
        _, tries = _tries_for_query("Q8", edges, order)
        res = leapfrog(tries, order, emit=False, cache_entries=10_000)
        assert res.cache_hits > 0
        assert res.count == leapfrog(tries, order, emit=False).count

    def test_bounded_size(self):
        # one key held at a time: no row can reuse another row's key
        order = ("a", "b", "c", "d")
        edges = tiny_graph_pdf(n_edges=100, n_nodes=10, seed=2)
        _, tries = _tries_for_query("Q8", edges, order)
        res = leapfrog(tries, order, emit=False, cache_entries=1)
        assert res.cache_hits == 0
        assert res.cache_misses == sum(res.intermediate[:-1]) + 1
        assert res.count == leapfrog(tries, order, emit=False).count

    def test_zero_capacity_noop(self):
        edges = tiny_graph_pdf()
        order = ("a", "b", "c")
        _, tries = _tries_for_query("Q1", edges, order)
        res = leapfrog(tries, order, emit=False, cache_entries=0)
        assert res.cache_hits == res.cache_misses == 0


@settings(max_examples=30, deadline=None)
@given(
    e1=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=40),
    e2=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=40),
)
def test_path_join_property(e1, e2):
    """R1(a,b) ⋈ R2(b,c) computed by Leapfrog equals the nested-loop
    reference for arbitrary relations."""
    order = ("a", "b", "c")
    a1 = np.array(sorted(set(e1)) or np.empty((0, 2)), dtype=np.int64).reshape(-1, 2)
    a2 = np.array(sorted(set(e2)) or np.empty((0, 2)), dtype=np.int64).reshape(-1, 2)
    t1 = trie_for_order(a1, ("a", "b"), order)
    t2 = trie_for_order(a2, ("b", "c"), order)
    res = leapfrog([t1, t2], order, emit=True)
    expect = sorted(
        (a, b, c) for (a, b) in set(e1) for (b2, c) in set(e2) if b == b2
    )
    assert sorted(map(tuple, res.rows.tolist())) == expect


# ---------------------------------------------------------------------------
# Differential test: every query, every attribute order, cached or not
# ---------------------------------------------------------------------------

#: vertex ids: negative, small, and beyond 32 bits
IDS = [-(2**40), -3, -1, 0, 1, 2, 3, 2**32, 2**32 + 1, 2**62]


def _oracle(con, query, empty, attrs):
    """DuckDB over the relations as sets: the join of every relation
    projected (DISTINCT) onto ``attrs``, as rows over ``attrs`` sorted.
    Relation ``empty`` reads the empty table ``z``, the others the graph
    ``g``. A relation sharing no attribute with ``attrs`` contributes a
    factor of 1 if it has rows and 0 if it is empty."""
    rels, views = [], {}
    for j, r in enumerate(query.relations):
        table = "z" if j == empty else "g"
        keep = tuple(a for a in r.attrs if a in attrs)
        if not keep:
            if con.execute(f"SELECT count(*) FROM {table}").fetchone()[0] == 0:
                return np.empty((0, len(attrs)), dtype=np.int64)
            continue
        cols = tuple(("src", "dst")[r.attrs.index(a)] for a in keep)
        views[r.name] = (f"(SELECT DISTINCT {', '.join(cols)} FROM {table})", cols)
        rels.append(Relation(r.name, keep))
    sql = JoinQuery("sub", rels).to_sql(views)
    cols = ", ".join(attrs)
    out = con.execute(f"SELECT {cols} FROM ({sql}) ORDER BY {cols}").fetchnumpy()
    return np.column_stack([out[a].astype(np.int64) for a in attrs]).reshape(
        -1, len(attrs)
    )


def _check_all_orders(qname, edges, empty, seed):
    """Count, emitted rows, every ``|T^i|`` and the per-root counts equal
    DuckDB for every attribute order, with and without the cache, and
    with the frontier cut into the smallest pieces."""
    q = get_query(qname)
    graph = pd.DataFrame(edges or None, columns=["src", "dst"], dtype=np.int64)
    rows = [
        graph.to_numpy()[:0] if j == empty else graph.to_numpy()
        for j in range(len(q.relations))
    ]
    con = duckdb.connect()
    try:
        con.register("g", graph)
        con.register("z", graph.iloc[:0])
        full = _oracle(con, q, empty, q.attrs)
        prefix = {
            frozenset(s): len(_oracle(con, q, empty, s))
            for k in range(1, len(q.attrs))
            for s in itertools.combinations(q.attrs, k)
        }
    finally:
        con.close()
    prefix[frozenset(q.attrs)] = len(full)
    rng = np.random.default_rng(seed)
    lf = sys.modules["repro.leapfrog.leapfrog"]
    for order in itertools.permutations(q.attrs):
        expect = full[:, [q.attrs.index(a) for a in order]]
        expect = expect[np.lexsort(expect.T[::-1])]
        tries = [
            trie_for_order(rows[j], r.attrs, order)
            for j, r in enumerate(q.relations)
        ]
        roots = rng.permutation(IDS)
        # uncached in two-candidate pieces (every split path), cached whole
        for cache, chunk in ((0, 2), (3, lf.CHUNK)):
            default, lf.CHUNK = lf.CHUNK, chunk
            try:
                res = leapfrog(tries, order, emit=True, cache_entries=cache)
                per_root = leapfrog(
                    tries, order, emit=False, roots=roots, cache_entries=cache
                )
            finally:
                lf.CHUNK = default
            assert res.count == len(expect)
            assert res.rows.tolist() == expect.tolist()
            assert res.intermediate == [
                prefix[frozenset(order[: k + 1])] for k in range(len(order))
            ]
            assert res.extensions == sum(res.intermediate)
            assert per_root.root_counts.tolist() == [
                int((expect[:, 0] == v).sum()) for v in roots
            ]
            assert per_root.roots_done == len(roots)


GRAPHS = dict(
    edges=st.lists(
        st.tuples(st.sampled_from(IDS), st.sampled_from(IDS)), max_size=30
    ),
    empty=st.one_of(st.none(), st.integers(0, 9)),
    seed=st.integers(0, 2**16),
)


@pytest.mark.parametrize("qname", ["Q1", "Q2", "Q7", "Q8"])
@settings(max_examples=15, deadline=None)
@given(**GRAPHS)
def test_kernel_matches_duckdb(qname, edges, empty, seed):
    """Graphs with duplicate edges, self-loops, empty relations and
    negative or > 32-bit ids; queries of 3–4 attributes."""
    _check_all_orders(qname, edges, empty, seed)


@pytest.mark.parametrize("qname", ["Q3", "Q4", "Q5", "Q6"])
@settings(max_examples=5, deadline=None)
@given(**GRAPHS)
def test_kernel_matches_duckdb_five_attrs(qname, edges, empty, seed):
    """As :func:`test_kernel_matches_duckdb` for the 5-attribute queries,
    whose 120 orders make each example 20–40× more work."""
    _check_all_orders(qname, edges, empty, seed)
