"""Kernel-layer benchmark: the sequential Leapfrog on whole graphs.

Joins Q1–Q6 on the whole AS (scale 1e-4) and LJ (scale 4e-5) stand-in
graphs in one process, one relation trie per atom, in the attribute order
ADJ uses without statistics (the first valid hypertree traversal). Only
the kernel call is timed; trie builds are not. Each query is timed
``--repeats`` times and the median is kept.

Run from the repository root::

    python3 benchmarks/bench_kernel.py            # appends to BENCH_kernel.json

The output file holds a list of records, one per commit (a record with
the same ``git`` description is replaced). Each record carries the git
description, ``nproc``, the scale and generator seed of every graph, and
per query the seconds, extensions and result count.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
GRAPHS = {"AS": 1e-4, "LJ": 4e-5}
QUERIES = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6")


def _git() -> str:
    out = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=40"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    return out.stdout.strip() or "unknown"


def measure(repeats: int) -> dict:
    from repro.core.hypertree import find_hypertree
    from repro.core.query import get_query
    from repro.leapfrog.leapfrog import leapfrog
    from repro.leapfrog.trie import trie_for_order
    from repro.synth_data import _GRAPH_SEEDS, dataset_pdf

    record = {
        "git": _git(),
        "nproc": os.cpu_count(),
        "repeats": repeats,
        "graphs": {},
        "queries": {},
    }
    for dataset, scale in GRAPHS.items():
        edges = dataset_pdf(dataset, scale=scale)[["src", "dst"]].to_numpy()
        record["graphs"][dataset] = {
            "scale": scale, "seed": _GRAPH_SEEDS[dataset], "edges": len(edges),
        }
        for qname in QUERIES:
            q = get_query(qname)
            tree = find_hypertree(q)
            order = tree.attribute_order(next(tree.traversal_orders()))
            tries = [trie_for_order(edges, r.attrs, order) for r in q.relations]
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                res = leapfrog(tries, order, emit=False)
                times.append(time.perf_counter() - t0)
            record["queries"][f"{dataset}-{qname}"] = {
                "order": list(order),
                "seconds": statistics.median(times),
                "extensions": int(res.extensions),
                "count": int(res.count),
            }
            print(f"{dataset}-{qname}", record["queries"][f"{dataset}-{qname}"],
                  flush=True)
    return record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=pathlib.Path, default=ROOT / "BENCH_kernel.json")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    record = measure(args.repeats)
    runs = json.loads(args.out.read_text()) if args.out.exists() else []
    runs = [r for r in runs if r.get("git") != record["git"]] + [record]
    args.out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
