"""One-round multiway join executor: HCube shuffle + per-server Leapfrog.

This is the physical operator shared by ADJ and the HCubeJ baselines
(paper §II-A): relations are shuffled once by HCube, then each server
(one Spark partition per hypercube) runs the sequential Leapfrog join on
the data it received, with no further data exchange. The per-server join
is a ``groupBy("server").applyInPandas`` stage — the sanctioned PySpark
stand-in for a JVM physical operator (see DESIGN.md §2).

The two phases are timed separately (the Communication / Computation
columns of Tables II–IV): the shuffle result is persisted and counted
(materializing the exchange), then the local joins run over the persisted
blocks.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.storagelevel import StorageLevel

from repro.hcube.shuffle import hcube_shuffle, order_aligned_attrs
from repro.leapfrog.leapfrog import LeapfrogTimeout, leapfrog
from repro.leapfrog.trie import Trie


class JoinTimeoutError(Exception):
    """The per-server Leapfrog exceeded its wall-clock budget.

    Carries the phase timings gathered so far in ``self.timings``.
    """

    def __init__(self, msg: str, timings: JoinTimings):
        super().__init__(msg)
        self.timings = timings


@dataclass
class JoinTimings:
    """Phase timings of one one-round join execution."""

    communication: float = 0.0
    computation: float = 0.0
    shuffled_tuples: int = 0
    result_count: int | None = None
    timed_out: bool = False


def _make_worker(
    schemas: dict[str, tuple[str, ...]],
    order: tuple[str, ...],
    count_only: bool,
    budget_seconds: float | None,
    cache_entries: int,
):
    """Build the per-server join function for ``applyInPandas``.

    The closure captures only plain Python data (schemas, order, knobs),
    so it pickles cleanly to executors.
    """

    def worker(pdf: pd.DataFrame) -> pd.DataFrame:
        deadline = (
            time.monotonic() + budget_seconds if budget_seconds else None
        )
        arity = {rel: len(attrs) for rel, attrs in schemas.items()}
        rows_by_rel: dict[str, list[np.ndarray]] = {}
        for rel, blocks in pdf.groupby("rel")["block"]:
            k = arity[rel]
            chunks = [
                np.asarray(block, dtype=np.int64).reshape(-1, k)
                for block in blocks
                if len(block)
            ]
            if chunks:
                rows_by_rel[rel] = chunks
        tries = []
        empty = False
        for rel, attrs in schemas.items():
            aligned = order_aligned_attrs(attrs, order)
            chunks = rows_by_rel.get(rel)
            if not chunks:
                empty = True
                break
            tries.append(Trie(np.concatenate(chunks), aligned))
        if empty:
            if count_only:
                return pd.DataFrame({"cnt": pd.Series([0], dtype="int64")})
            return pd.DataFrame(
                {a: pd.Series(dtype="int64") for a in order}
            )
        res = leapfrog(
            tries,
            order,
            emit=not count_only,
            deadline=deadline,
            cache_entries=cache_entries,
        )
        if count_only:
            return pd.DataFrame({"cnt": pd.Series([res.count], dtype="int64")})
        return pd.DataFrame(res.rows, columns=list(order))

    return worker


def one_round_join(
    spark: SparkSession,
    relations: Mapping[str, DataFrame],
    schemas: Mapping[str, Sequence[str]],
    order: Sequence[str],
    shares: Mapping[str, int],
    *,
    mode: str = "pull",
    count_only: bool = True,
    budget_seconds: float | None = None,
    cache_entries: int = 0,
) -> tuple[int | DataFrame, JoinTimings]:
    """Execute the one-round join; returns result (count or DataFrame of
    tuples over ``order``) plus phase timings.

    On a Leapfrog budget overrun the per-server task raises, the Spark job
    fails fast (local mode does not retry), and :class:`JoinTimeoutError`
    is raised with ``timings.timed_out`` set — this reproduces the paper's
    "> 43200 s" timeout cells at laptop scale.
    """
    order = tuple(order)
    schemas = {k: tuple(v) for k, v in schemas.items()}
    timings = JoinTimings()

    t0 = time.monotonic()
    shuffled = hcube_shuffle(relations, schemas, order, shares, mode=mode)
    shuffled = shuffled.persist(StorageLevel.MEMORY_AND_DISK)
    try:
        shuffled.count()  # materialize the exchange
        timings.communication = time.monotonic() - t0
        per_rel = {
            r["rel"]: r["vals"]
            for r in shuffled.groupBy("rel")
            .agg(F.sum(F.size("block")).alias("vals"))
            .collect()
        }
        timings.shuffled_tuples = sum(
            (vals or 0) // len(schemas[rel]) for rel, vals in per_rel.items()
        )

        worker = _make_worker(
            schemas, order, count_only, budget_seconds, cache_entries
        )
        out_schema = (
            "cnt long"
            if count_only
            else ", ".join(f"{a} long" for a in order)
        )
        t1 = time.monotonic()
        try:
            result = shuffled.groupBy("server").applyInPandas(
                worker, schema=out_schema
            )
            if count_only:
                total = result.agg(F.sum("cnt")).collect()[0][0] or 0
                timings.computation = time.monotonic() - t1
                timings.result_count = int(total)
            else:
                result = result.persist(StorageLevel.MEMORY_AND_DISK)
                timings.result_count = result.count()
                timings.computation = time.monotonic() - t1
            # The paper's cap is wall-clock on the whole run; the
            # per-server deadline cannot see scheduling/straggler time,
            # so a run whose computation wall time exceeds the budget is
            # reported as timed out (its — correct — result is kept).
            if (
                budget_seconds is not None
                and timings.computation > budget_seconds
            ):
                timings.timed_out = True
            return (int(total) if count_only else result), timings
        except Exception as e:  # noqa: BLE001 - Py4J wraps worker errors
            timings.computation = time.monotonic() - t1
            if LeapfrogTimeout.__name__ in str(e):
                timings.timed_out = True
                raise JoinTimeoutError(
                    f"leapfrog budget of {budget_seconds}s exceeded", timings
                ) from e
            raise
    finally:
        shuffled.unpersist()
