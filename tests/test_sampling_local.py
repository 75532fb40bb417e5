"""Unit tests for the local sampling estimator and Hoeffding bound (§IV)."""
import sys

import duckdb
import numpy as np
import pytest

from repro.core.query import get_query
from repro.core import sampling
from repro.core.sampling import (
    _count_for_values,
    estimate_cardinality_local,
    hoeffding_bound,
    project_db,
    required_samples,
    _val_of_attr_local,
)
from repro.synth_data import tiny_graph_pdf
from tests.test_leapfrog import _FakeClock


def _db_for(qname, edges):
    q = get_query(qname)
    rows = edges[["src", "dst"]].to_numpy()
    return q, {r.name: (r.attrs, rows) for r in q.relations}


def _duck_count(sql, edges):
    con = duckdb.connect()
    try:
        con.register("e", edges)
        return con.execute(f"SELECT count(*) FROM ({sql})").fetchone()[0]
    finally:
        con.close()


class TestHoeffding:
    def test_required_samples_formula(self):
        # k = ceil(ln(2/δ) / (2p²))
        assert required_samples(0.1, 0.05) == int(
            np.ceil(np.log(2 / 0.05) / (2 * 0.01))
        )

    def test_monotone_in_p(self):
        assert required_samples(0.05, 0.05) > required_samples(0.1, 0.05)

    def test_monotone_in_delta(self):
        assert required_samples(0.1, 0.01) > required_samples(0.1, 0.1)

    def test_bound_value(self):
        assert hoeffding_bound(100, 0.1) == pytest.approx(
            2 * np.exp(-2 * 100 * 0.01)
        )

    def test_bound_below_delta_at_required_k(self):
        p, delta = 0.07, 0.03
        k = required_samples(p, delta)
        assert hoeffding_bound(k, p) <= delta

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            required_samples(0, 0.1)
        with pytest.raises(ValueError):
            required_samples(0.1, 1.5)


class TestValOfAttr:
    def test_triangle_val_a(self):
        q, db = _db_for("Q1", tiny_graph_pdf())
        rows = db["R1"][1]
        expect = np.intersect1d(np.unique(rows[:, 0]), np.unique(rows[:, 0]))
        # a appears as src of R1 and src of R3 → val(a) = distinct src
        got = _val_of_attr_local(db, "a")
        assert got.tolist() == expect.tolist()

    def test_val_b_is_dst_cap_src(self):
        q, db = _db_for("Q1", tiny_graph_pdf())
        rows = db["R1"][1]
        expect = np.intersect1d(np.unique(rows[:, 1]), np.unique(rows[:, 0]))
        assert _val_of_attr_local(db, "b").tolist() == expect.tolist()

    def test_missing_attr(self):
        _, db = _db_for("Q1", tiny_graph_pdf())
        with pytest.raises(ValueError):
            _val_of_attr_local(db, "z")


class TestEstimateLocal:
    @pytest.mark.parametrize("qname,order", [
        ("Q1", ("a", "b", "c")),
        ("Q7", ("a", "b", "c")),
        ("Q2", ("a", "b", "c", "d")),
    ])
    def test_full_sampling_is_exact(self, qname, order):
        """Sampling every value of val(A) recovers |T| exactly."""
        edges = tiny_graph_pdf()
        q, db = _db_for(qname, edges)
        est = estimate_cardinality_local(db, order, k=10**9)
        assert est.estimate == pytest.approx(_duck_count(q.to_sql(), edges))

    def test_partial_sampling_close(self):
        """With half the values sampled the estimate lands within 3× of
        truth on the test graph (loose — this is an expectation test)."""
        edges = tiny_graph_pdf(n_edges=500, n_nodes=50, seed=9)
        q, db = _db_for("Q1", edges)
        truth = _duck_count(q.to_sql(), edges)
        if truth == 0:
            pytest.skip("no triangles")
        est = estimate_cardinality_local(db, ("a", "b", "c"), k=20, seed=1)
        D = max(est.estimate, truth) / max(min(est.estimate, truth), 1)
        assert D < 5.0

    def test_deterministic_in_seed(self):
        edges = tiny_graph_pdf()
        _, db = _db_for("Q1", edges)
        e1 = estimate_cardinality_local(db, ("a", "b", "c"), k=5, seed=3)
        e2 = estimate_cardinality_local(db, ("a", "b", "c"), k=5, seed=3)
        assert e1.estimate == e2.estimate

    def test_empty_val_returns_zero(self):
        db = {
            "R1": (("a", "b"), np.array([[1, 2]], dtype=np.int64)),
            "R2": (("a", "c"), np.array([[7, 3]], dtype=np.int64)),
        }
        est = estimate_cardinality_local(db, ("a", "b", "c"), k=10)
        assert est.estimate == 0.0
        assert est.val_count == 0

    def test_extension_rate_positive(self):
        """The optimizer's β statistic is extensions over elapsed time."""
        edges = tiny_graph_pdf()
        _, db = _db_for("Q1", edges)
        est = estimate_cardinality_local(db, ("a", "b", "c"), k=50)
        assert est.extensions > 0
        assert est.elapsed > 0
        assert est.count_elapsed > 0

    def test_budget_keeps_exact_prefix(self, monkeypatch):
        """A budgeted count returns the counts of a prefix of the sample,
        in sample order, equal to the unbudgeted counts there."""
        edges = tiny_graph_pdf(n_edges=600, n_nodes=40, seed=4)
        _, db = _db_for("Q2", edges)
        order = ("a", "b", "c", "d")
        sample = np.random.default_rng(0).permutation(
            _val_of_attr_local(db, "a")
        )
        full, _, _, n_full = _count_for_values(db, order, sample)
        assert n_full == len(sample)

        clock = _FakeClock()
        lf = sys.modules["repro.leapfrog.leapfrog"]
        monkeypatch.setattr(lf, "CHUNK", 8)
        monkeypatch.setattr(lf, "time", clock)
        monkeypatch.setattr(sampling, "time", clock)
        counts, ext, _, done = _count_for_values(
            db, order, sample, budget_seconds=480.0
        )
        assert 0 < done < len(sample)
        assert counts.tolist() == full[:done].tolist()
        assert ext > 0

    def test_budget_over_first_value_is_lower_bound(self):
        """If the first value alone overruns, its partial count is kept
        as a lower bound."""
        edges = tiny_graph_pdf()
        _, db = _db_for("Q1", edges)
        sample = _val_of_attr_local(db, "a")
        full, _, _, _ = _count_for_values(db, ("a", "b", "c"), sample)
        counts, _, _, done = _count_for_values(
            db, ("a", "b", "c"), sample, budget_seconds=1e-12
        )
        assert done == 1
        assert 0 <= counts[0] <= full[0]

    def test_stats_populated(self):
        edges = tiny_graph_pdf()
        _, db = _db_for("Q1", edges)
        est = estimate_cardinality_local(db, ("a", "b", "c"), k=10)
        assert 0 < est.k <= 10
        assert est.val_count > 0
        assert est.attr == "a"


class TestProjectDB:
    def test_projection_drops_and_dedupes(self):
        db = {
            "R1": (("a", "b"), np.array([[1, 2], [1, 3]], dtype=np.int64)),
            "R2": (("c", "d"), np.array([[5, 6]], dtype=np.int64)),
        }
        out = project_db(db, ("a",))
        assert set(out) == {"R1"}
        attrs, rows = out["R1"]
        assert attrs == ("a",)
        assert rows.tolist() == [[1]]

    def test_projection_keeps_overlap_order(self):
        db = {"R1": (("b", "a"), np.array([[2, 1]], dtype=np.int64))}
        out = project_db(db, ("a", "b"))
        attrs, rows = out["R1"]
        assert attrs == ("b", "a")
        assert rows.tolist() == [[2, 1]]

    def test_prefix_estimate_upper_bounds_truth(self):
        """The projected sub-query overestimates (never underestimates)
        the true prefix binding count when sampled exhaustively."""
        edges = tiny_graph_pdf()
        q, db = _db_for("Q1", edges)
        sub = project_db(db, ("a", "b"))
        est = estimate_cardinality_local(sub, ("a", "b"), k=10**9)
        # true prefix count for (a,b) in the triangle query: pairs that
        # survive all projections — here exactly |Π_ab semi-filtered|
        truth = _duck_count(
            "SELECT DISTINCT r0.src AS a, r0.dst AS b FROM e r0 "
            "JOIN e r1 ON r1.src = r0.dst JOIN e r2 ON r2.src = r0.src",
            edges,
        )
        assert est.estimate >= truth
