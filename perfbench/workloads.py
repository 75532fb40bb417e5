"""Workload definitions, seeded inputs and the DuckDB correctness oracle.

Each workload is one (strategy, Table I stand-in graph, query) test case
of Tables II–IV, run at a reduced scale so that a whole benchmark run
takes about a minute on 4 cores (see README.md for why each one was
chosen).

The input of a workload is the ``repro.synth_data`` stand-in graph at
the workload's scale, a fixed graph as in the Tables II-IV harness, so
the correct answer is computed once per graph by DuckDB. ``--seed`` sets
the order in which its edge rows are loaded, and so how Spark partitions
the input. Seeded vertex relabelling was tried and dropped: it moves hubs
between the four HCube servers of AS-Q4, which changed its query time by
up to 45% from seed to seed.

Run as a script to recompute ``expected_counts.json`` with DuckDB:

    python3 perfbench/workloads.py
"""
from __future__ import annotations

import hashlib
import json
import pathlib
import sys
import time
from dataclasses import dataclass

import numpy as np
import pandas as pd

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_FILE = HERE / "expected_counts.json"
#: run-time cache for base graphs that expected_counts.json does not know
CACHE_FILE = ROOT / ".perfbench" / "oracle_cache.json"

N_SERVERS = 16
SAMPLE_K = 60  # co-optimization sampling, as in the Tables II-IV harness
COOPT_BUDGET_S = 600.0
COMMFIRST_BUDGET_S = 90.0


@dataclass(frozen=True)
class Workload:
    name: str
    method: str  # "adj" (Co-Optimization) | "hcubej" (Communication-First)
    dataset: str  # Table I stand-in
    scale: float  # share of the real graph's edge count
    query: str
    #: graph of the untimed warm-up query: the same query on a smaller
    #: copy of the graph warms every code path (JIT, Python workers,
    #: imports) for less than a cold full-size query costs; for LJ-Q4 it
    #: is the smallest copy on which ADJ still pre-computes bags
    warmup_scale: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("coopt-lj-q4", "adj", "LJ", 4e-5, "Q4", warmup_scale=2e-5),
        Workload("commfirst-as-q4", "hcubej", "AS", 1e-4, "Q4", warmup_scale=2e-5),
    )
}


def base_graph(w: Workload, scale: float | None = None) -> pd.DataFrame:
    """The workload's ``synth_data`` stand-in graph ``(src, dst)``."""
    from repro.synth_data import dataset_pdf

    return dataset_pdf(w.dataset, scale=w.scale if scale is None else scale)


def shuffle_rows(base: pd.DataFrame, seed: int) -> pd.DataFrame:
    """``base`` with its edge rows in an order drawn from ``seed``."""
    perm = np.random.default_rng(seed).permutation(len(base))
    return base.iloc[perm].reset_index(drop=True)


def graph_digest(edges: pd.DataFrame) -> str:
    arr = np.ascontiguousarray(edges[["src", "dst"]].to_numpy(dtype=np.int64))
    return hashlib.sha256(arr.tobytes()).hexdigest()


def duckdb_count(edges: pd.DataFrame, query_name: str) -> int:
    """Result size of ``query_name`` over ``edges``, computed by DuckDB
    from the query's oracle SQL (``JoinQuery.to_sql``)."""
    import duckdb

    from repro.core.query import get_query

    con = duckdb.connect()
    try:
        con.register("e", edges)
        sql = f"SELECT count(*) FROM ({get_query(query_name).to_sql()})"
        return int(con.execute(sql).fetchone()[0])
    finally:
        con.close()


def _load(path: pathlib.Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def known_count(w: Workload, digest: str) -> int | None:
    """Expected count for the base graph with ``digest``, if recorded."""
    for path in (EXPECTED_FILE, CACHE_FILE):
        hit = _load(path).get(f"{w.name}/{digest}")
        if hit is not None:
            return int(hit["count"])
    return None


def _count_entry(w: Workload, base: pd.DataFrame) -> dict:
    t0 = time.monotonic()
    n = duckdb_count(base, w.query)
    return {"count": n, "edges": len(base), "duckdb_s": round(time.monotonic() - t0, 3)}


def _save(path: pathlib.Path, table: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def oracle_count(w: Workload, base: pd.DataFrame, digest: str) -> int:
    """Expected count, from the recorded table or else from DuckDB (the
    result is cached in the checkout for later runs)."""
    got = known_count(w, digest)
    if got is not None:
        return got
    cache = _load(CACHE_FILE)
    cache[f"{w.name}/{digest}"] = entry = _count_entry(w, base)
    _save(CACHE_FILE, cache)
    return entry["count"]


def main() -> int:
    """Recompute expected_counts.json for every workload's base graph."""
    sys.path.insert(0, str(SRC))
    table = {}
    for w in WORKLOADS.values():
        for scale in (w.scale, w.warmup_scale):
            base = base_graph(w, scale)
            table[f"{w.name}/{graph_digest(base)}"] = entry = _count_entry(w, base)
            print(w.name, scale, entry, flush=True)
    _save(EXPECTED_FILE, table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
