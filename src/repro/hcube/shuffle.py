"""HCube shuffle as a DataFrame transformation (paper §II-A, §V).

Each tuple of relation ``R`` is routed to every server whose hypercube
coordinate agrees with the tuple's hashed values on ``attrs(R)``
(``h_A(x) = x mod p_A``, the paper's example hash); the coordinates of
attributes outside ``attrs(R)`` are free and are expanded by exploding
``0..p_A-1``. Coordinates are linearized into a server id with mixed-radix
strides over the attribute order.

Implementation variants of §V:

* ``push``  — one shuffled row per (tuple, server): the original
  tuple-at-a-time MapReduce-style HCube.
* ``pull``  — tuples of a relation are first grouped into *blocks* keyed
  by their own hash signature; whole blocks are replicated to servers
  (far fewer, larger shuffle rows).
* ``merge`` — like ``pull`` but each block is additionally sorted in trie
  column order during the shuffle, so servers receive pre-sorted runs
  (the paper's pre-built per-block tries; our trie *is* sorted arrays).

All variants emit the same logical rows: ``(server, rel, block)`` with
``block: array<bigint>`` holding the block's tuples **flattened** in trie
column order (reshape by the relation's arity on the receiving side).
Flat blocks cross the Arrow boundary as one contiguous int64 vector, so
the per-server worker reconstructs them with a zero-copy reshape instead
of a per-tuple Python loop.
"""
from __future__ import annotations

import math
from functools import reduce
from typing import Mapping, Sequence

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.leapfrog.trie import order_aligned_attrs

MODES = ("push", "pull", "merge")


def strides(order: Sequence[str], shares: Mapping[str, int]) -> dict[str, int]:
    """Mixed-radix strides linearizing a coordinate vector to a server id."""
    out: dict[str, int] = {}
    s = 1
    for a in order:
        out[a] = s
        s *= shares.get(a, 1)
    return out


def n_servers(shares: Mapping[str, int]) -> int:
    return math.prod(shares.values()) if shares else 1


def hcube_shuffle(
    relations: Mapping[str, DataFrame],
    schemas: Mapping[str, Sequence[str]],
    order: Sequence[str],
    shares: Mapping[str, int],
    mode: str = "pull",
) -> DataFrame:
    """Shuffle all relations into ``(server, rel, block)`` rows.

    ``relations[name]`` must have columns named exactly ``schemas[name]``.
    The result is repartitioned by ``server`` so one Spark partition plays
    the role of one HCube server.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    order = tuple(order)
    strd = strides(order, shares)
    pieces: list[DataFrame] = []
    for name, df in relations.items():
        attrs = tuple(schemas[name])
        missing = set(attrs) - set(df.columns)
        if missing:
            raise ValueError(f"{name}: columns {missing} missing from DataFrame")
        aligned = order_aligned_attrs(attrs, order)
        tup = F.array(*[F.col(a).cast("long") for a in aligned]).alias("t")
        own = [a for a in attrs if shares.get(a, 1) > 1]
        free = [a for a in order if a not in attrs and shares.get(a, 1) > 1]
        hcols = [
            F.pmod(F.col(a).cast("long"), F.lit(shares[a])).alias(f"h_{a}")
            for a in own
        ]
        base = df.select(tup, *hcols)
        if mode == "push":
            blocks = base.select(
                F.col("t").alias("block"), *[f"h_{a}" for a in own]
            )
        else:
            agg = F.collect_list("t")
            if mode == "merge":
                agg = F.array_sort(agg)  # lexicographic = trie order
            keys = [f"h_{a}" for a in own]
            blocks = (
                base.groupBy(*keys).agg(F.flatten(agg).alias("block"))
                if keys
                else base.agg(F.flatten(agg).alias("block"))
            )
        cur = blocks
        for a in free:
            cur = cur.withColumn(
                f"h_{a}",
                F.explode(F.array(*[F.lit(i) for i in range(shares[a])])),
            )
        coord_terms = [
            F.col(f"h_{a}") * F.lit(strd[a])
            for a in order
            if shares.get(a, 1) > 1 and (a in attrs or a in free)
        ]
        server = (
            reduce(lambda x, y: x + y, coord_terms)
            if coord_terms
            else F.lit(0)
        )
        pieces.append(
            cur.select(
                server.cast("int").alias("server"),
                F.lit(name).alias("rel"),
                F.col("block"),
            )
        )
    out = reduce(DataFrame.unionByName, pieces)
    return out.repartition(max(1, n_servers(shares)), "server")
