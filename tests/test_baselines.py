"""Spark tests for the competing methods (§VII-A): SparkSQL, BigJoin,
HCubeJ — all must agree with the DuckDB oracle and each other."""
import duckdb
import pytest

from repro.baselines.bigjoin import bigjoin, bigjoin_count
from repro.baselines.hcubej import heuristic_order, run_hcubej
from repro.baselines.sparksql import join_order, sparksql_count, sparksql_join
from repro.core.adj import ADJConfig
from repro.core.query import get_query
from repro.oracle import assert_equivalent
from repro.synth_data import tiny_graph_pdf


def _duck_count(sql, edges_pdf):
    con = duckdb.connect()
    try:
        con.register("e", edges_pdf)
        return con.execute(f"SELECT count(*) FROM ({sql})").fetchone()[0]
    finally:
        con.close()


EDGES = tiny_graph_pdf()


class TestSparkSQL:
    def test_join_order_connected(self):
        for name in ["Q1", "Q2", "Q4", "Q5", "Q6"]:
            q = get_query(name)
            order = join_order(q)
            bound = set(q.relations[order[0]].attrs)
            for i in order[1:]:
                assert q.relations[i].attr_set & bound
                bound |= q.relations[i].attr_set

    @pytest.mark.parametrize("qname", ["Q1", "Q2", "Q7", "Q8"])
    def test_count_matches_oracle(self, spark, qname):
        q = get_query(qname)
        edges = spark.createDataFrame(EDGES)
        assert sparksql_count(spark, q, edges) == _duck_count(q.to_sql(), EDGES)

    def test_rows_match_oracle(self, spark):
        q = get_query("Q1")
        edges = spark.createDataFrame(EDGES)
        assert_equivalent(sparksql_join(spark, q, edges), q.to_sql(), e=EDGES)


class TestBigJoin:
    def test_heuristic_order_permutation(self):
        for name in ["Q1", "Q2", "Q4", "Q5", "Q6"]:
            q = get_query(name)
            assert sorted(heuristic_order(q)) == sorted(q.attrs)

    @pytest.mark.parametrize("qname", ["Q1", "Q2", "Q4", "Q7", "Q8"])
    def test_count_matches_oracle(self, spark, qname):
        q = get_query(qname)
        edges = spark.createDataFrame(EDGES)
        assert bigjoin_count(spark, q, edges) == _duck_count(q.to_sql(), EDGES)

    def test_rows_match_oracle(self, spark):
        q = get_query("Q1")
        edges = spark.createDataFrame(EDGES)
        df = bigjoin(spark, q, edges)
        assert_equivalent(df.select(*q.attrs), q.to_sql(), e=EDGES)

    def test_explicit_order(self, spark):
        q = get_query("Q1")
        edges = spark.createDataFrame(EDGES)
        expect = _duck_count(q.to_sql(), EDGES)
        for order in [("a", "b", "c"), ("c", "b", "a"), ("b", "a", "c")]:
            assert bigjoin_count(spark, q, edges, order) == expect


class TestHCubeJ:
    @pytest.mark.parametrize("qname", ["Q1", "Q2"])
    def test_count_matches_oracle(self, spark, qname):
        q = get_query(qname)
        edges = spark.createDataFrame(EDGES)
        cfg = ADJConfig(n_servers=4, sample_k=20)
        rep = run_hcubej(spark, q, edges, cfg)
        assert rep.result_count == _duck_count(q.to_sql(), EDGES)
        assert rep.strategy == "Communication-First"
        assert rep.total > 0

    def test_cache_variant_same_count(self, spark):
        q = get_query("Q1")
        edges = spark.createDataFrame(EDGES)
        cfg = ADJConfig(n_servers=4, cache_entries=10_000)
        rep = run_hcubej(spark, q, edges, cfg)
        assert rep.result_count == _duck_count(q.to_sql(), EDGES)
        assert rep.strategy == "HCubeJ+Cache"

    def test_timeout_reported(self, spark):
        q = get_query("Q4")
        big = tiny_graph_pdf(n_edges=3000, n_nodes=60, seed=8)
        edges = spark.createDataFrame(big)
        cfg = ADJConfig(n_servers=4, budget_seconds=1e-4)
        rep = run_hcubej(spark, q, edges, cfg)
        assert rep.timed_out
        assert rep.result_count is None
        assert rep.communication > 0  # timings survive the timeout

    def test_phase_report_fields(self, spark):
        q = get_query("Q1")
        edges = spark.createDataFrame(EDGES)
        rep = run_hcubej(spark, q, edges, ADJConfig(n_servers=4))
        assert rep.optimization >= 0
        assert rep.pre_computing == 0.0  # comm-first never pre-computes
        assert rep.communication > 0
        assert rep.computation > 0
        assert rep.detail["shuffled_tuples"] > 0
        assert "shares" in rep.detail["plan"]
