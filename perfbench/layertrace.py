"""Outside-in tracing of one benchmark run.

Spans are recorded from the benchmark's own files: for the traced part
of a run, :func:`patched` replaces public module attributes of the
program with wrappers that open a span around each call, and restores
them afterwards. Nothing in ``src/`` is changed. The per-server join
runs in Spark's Python workers, which these wrappers cannot see, so
:func:`replay` re-runs each server's ``Trie`` build and ``leapfrog`` on
the driver over the blocks that the query's own ``hcube_shuffle``
produced.
"""
from __future__ import annotations

import functools
import heapq
import importlib
import re
import statistics
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    """In-memory spans: name, start, end, parent and the query they
    belong to. Written out once, when the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.query: int | None = None
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        s = {
            "id": len(self.spans),
            "name": name,
            "query": self.query,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.monotonic(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        except BaseException as e:
            s["attrs"]["error"] = type(e).__name__
            raise
        finally:
            s["end"] = time.monotonic()
            self._stack.pop()

    def wrap(self, fn, name: str, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(s, args, kwargs, out)
                return out

        return traced

    def of_query(self, query: int, name: str) -> list[dict]:
        return [s for s in self.spans if s["query"] == query and s["name"] == name]


def _sampling_hook(s, args, kwargs, est):
    s["attrs"].update(
        requested=min(kwargs["k"], est.val_count),
        used=est.k,
        extensions=est.extensions,
    )


def _precompute_hook(s, args, kwargs, out):
    s["attrs"]["bag_tuples"] = int(sum(out[1].values()))


def _join_hook(s, args, kwargs, out):
    t = out[1]
    s["attrs"].update(
        comm_s=t.communication,
        comp_s=t.computation,
        shuffled_tuples=t.shuffled_tuples,
    )


class ShuffleCapture:
    """Keeps the last ``hcube_shuffle`` call's arguments and result."""

    def __init__(self):
        self.args = None
        self.df = None
        self.exchanges = 0

    def hook(self, s, args, kwargs, out):
        names = ("relations", "schemas", "order", "shares", "mode")
        self.args = {**dict(zip(names, args)), **kwargs}
        self.df = out
        # counted now, while pre-computed bags are still cached, so only
        # the shuffle's own Exchanges are in the plan
        self.exchanges = count_exchanges(out)


#: (module, attribute, span name, hook). Modules are named relative to
#: ``repro``; an attribute is patched where the caller looks it up.
TARGETS = (
    ("core.adj", "optimize", "optimizer", None),
    ("core.optimizer", "estimate_cardinality_local", "optimizer.sampling", _sampling_hook),
    ("core.optimizer", "find_hypertree", "optimizer.ghd", None),
    ("core.cost", "optimize_shares", "optimizer.shares", None),
    ("core.adj", "precompute_bags", "precompute", _precompute_hook),
    ("core.adj", "one_round_join", "one_round_join", _join_hook),
    ("baselines.hcubej", "one_round_join", "one_round_join", _join_hook),
)


@contextmanager
def patched(tracer: Tracer, capture: ShuffleCapture):
    targets = (*TARGETS, ("core.executor", "hcube_shuffle", "hcube.shuffle", capture.hook))
    saved = []
    try:
        for mod_name, attr, name, hook in targets:
            mod = importlib.import_module(f"repro.{mod_name}")
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, tracer.wrap(orig, name, hook))
        yield
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


def _dur(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def query_layers(tracer: Tracer, query: int) -> dict[str, float]:
    """Per-layer numbers of one traced query, from its spans."""
    q = functools.partial(tracer.of_query, query)
    sampling = q("optimizer.sampling")
    joins = q("one_round_join")
    opt_s = _dur(q("optimizer"))
    out = {
        "optimizer.s": opt_s,
        "optimizer.sampling_s": _dur(sampling),
        "optimizer.sampling_calls": len(sampling),
        "optimizer.sampling_budget_hits": sum(
            1 for s in sampling if s["attrs"].get("used", 0) < s["attrs"].get("requested", 0)
        ),
        "optimizer.sampled_extensions": sum(s["attrs"].get("extensions", 0) for s in sampling),
        "optimizer.shares_s": _dur(q("optimizer.shares")),
        "optimizer.ghd_s": _dur(q("optimizer.ghd")),
        "precompute.s": _dur(q("precompute")),
        "precompute.bag_tuples": sum(s["attrs"].get("bag_tuples", 0) for s in q("precompute")),
        "hcube.comm_s": sum(s["attrs"].get("comm_s", 0.0) for s in joins),
        "hcube.shuffled_tuples": sum(s["attrs"].get("shuffled_tuples", 0) for s in joins),
        "executor.comp_s": sum(s["attrs"].get("comp_s", 0.0) for s in joins),
    }
    out["optimizer.other_s"] = opt_s - (
        out["optimizer.sampling_s"] + out["optimizer.shares_s"] + out["optimizer.ghd_s"]
    )
    return out


def median_layers(per_query: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in per_query) for k in per_query[0]}


def count_exchanges(df) -> int:
    """Exchange operators in the physical plan of ``df`` (no job runs).
    The plans of cached inputs, printed under ``InMemoryRelation``, are
    not counted: they ran when the input was cached."""
    plan = df._jdf.queryExecution().executedPlan().toString()
    n, cached_depth = 0, None
    for line in plan.splitlines():
        node = line.lstrip(" :+-")
        depth = len(line) - len(node)
        if cached_depth is not None and depth > cached_depth:
            continue
        cached_depth = depth if node.startswith("InMemoryRelation") else None
        n += bool(re.match(r"(\*\(\d+\) )?(?!Reused)\w*Exchange\b", node))
    return n


def _makespan(durations: list[float], slots: int) -> float:
    """Longest-processing-time-first schedule of ``durations`` on
    ``slots`` parallel slots; returns the finishing time."""
    loads = [0.0] * max(1, slots)
    for d in sorted(durations, reverse=True):
        heapq.heapreplace(loads, loads[0] + d)
    return max(loads)


REPLAY_KEYS = (
    "executor.servers", "executor.server_skew", "replay.critical_path_s",
    "trie.build_s", "trie.rows", "leapfrog.kernel_s", "leapfrog.extensions",
    "leapfrog.ext_per_s", "hcube.shuffle_rows", "replay.count",
    "leapfrog.T1", "leapfrog.T2", "leapfrog.T3", "leapfrog.T4",
)


def replay(capture: ShuffleCapture, slots: int) -> dict:
    """Re-run every server's trie build and Leapfrog on the driver over
    the blocks of the captured shuffle; returns kernel-layer numbers."""
    from repro.hcube.shuffle import order_aligned_attrs
    from repro.leapfrog.leapfrog import leapfrog
    from repro.leapfrog.trie import Trie

    if capture.df is None:  # no traced query reached the shuffle
        return dict.fromkeys(REPLAY_KEYS, 0)
    schemas = {k: tuple(v) for k, v in capture.args["schemas"].items()}
    order = tuple(capture.args["order"])
    pdf = capture.df.toPandas()
    build_s, kernel_s, rows, ext, count = [], [], 0, 0, 0
    levels = np.zeros(len(order), dtype=np.int64)
    for _, part in pdf.groupby("server"):
        blocks = {
            rel: np.concatenate(
                [np.asarray(b, dtype=np.int64) for b in g["block"]]
            ).reshape(-1, len(schemas[rel]))
            for rel, g in part.groupby("rel")
        }
        t0 = time.monotonic()
        if any(len(blocks.get(rel, ())) == 0 for rel in schemas):
            build_s.append(time.monotonic() - t0)
            kernel_s.append(0.0)
            continue
        tries = [
            Trie(blocks[rel], order_aligned_attrs(attrs, order))
            for rel, attrs in schemas.items()
        ]
        t1 = time.monotonic()
        res = leapfrog(tries, order, emit=False)
        t2 = time.monotonic()
        build_s.append(t1 - t0)
        kernel_s.append(t2 - t1)
        rows += sum(t.n_rows for t in tries)
        ext += res.extensions
        count += res.count
        levels += np.asarray(res.intermediate, dtype=np.int64)
    per_server = [b + k for b, k in zip(build_s, kernel_s)]
    mean = statistics.fmean(per_server) if per_server else 0.0
    kernel = sum(kernel_s)
    out = {
        "executor.servers": len(per_server),
        "executor.server_skew": max(per_server) / mean if mean > 0 else 1.0,
        "replay.critical_path_s": _makespan(per_server, slots),
        "trie.build_s": sum(build_s),
        "trie.rows": rows,
        "leapfrog.kernel_s": kernel,
        "leapfrog.extensions": ext,
        "leapfrog.ext_per_s": ext / kernel if kernel > 0 else 0.0,
        "hcube.shuffle_rows": len(pdf),
        "replay.count": count,
    }
    for i in range(4):
        out[f"leapfrog.T{i + 1}"] = int(levels[i]) if i < len(levels) else 0
    return out
