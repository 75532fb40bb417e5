"""Repository benchmark: Tables II-IV test cases on a local[4] Spark session.

    python3 perfbench/run.py --workload coopt-lj-q4 --seed 1 --seconds 30 --trace 0

One run sets up (Spark session, graph ingest, cost-model calibration)
several times and keeps the last set-up, runs one untimed warm-up query
on a small copy of the graph, then runs the workload's query through the
program's public entry point (``run_adj`` or ``run_hcubej``) back to back
for ``--seconds`` seconds.
Every result count is checked against the DuckDB count of the input.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs half of
the time untraced and half traced, then replays the last traced query's
per-server joins on the driver, and reports the per-layer metrics (see
``layertrace.py``). The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full record of the
run (environment, set-ups, every query with its plan, spans) is written
to ``.perfbench/runs/``.
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

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MASTER = "local[4]"
DRIVER_MEMORY = "2g"
SPARK_CONF = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    "spark.driver.host": "127.0.0.1",
}
#: set-ups per run; setup_s is their median. The first one also starts
#: the JVM; the later ones start a new SparkContext on it.
SETUP_REPS = 3

END_TO_END = {"query_s": "s", "setup_s": "s", "py_peak_rss_mb": "MB"}
PER_LAYER = {
    "optimizer.s": "s",
    "optimizer.sampling_s": "s",
    "optimizer.sampling_calls": "count",
    "optimizer.sampling_budget_hits": "count",
    "optimizer.sampled_extensions": "count",
    "optimizer.shares_s": "s",
    "optimizer.ghd_s": "s",
    "optimizer.other_s": "s",
    "optimizer.plans_distinct": "count",
    "precompute.s": "s",
    "precompute.bag_tuples": "count",
    "hcube.comm_s": "s",
    "hcube.shuffled_tuples": "count",
    "hcube.shuffle_rows": "count",
    "hcube.exchanges": "count",
    "spark.jobs": "count",
    "executor.comp_s": "s",
    "executor.servers": "count",
    "executor.server_skew": "ratio",
    "executor.overhead_s": "s",
    "trie.build_s": "s",
    "trie.rows": "count",
    "leapfrog.kernel_s": "s",
    "leapfrog.extensions": "count",
    "leapfrog.ext_per_s": "1/s",
    "leapfrog.T1": "count",
    "leapfrog.T2": "count",
    "leapfrog.T3": "count",
    "leapfrog.T4": "count",
    "setup.jvm_start_s": "s",
    "setup.session_s": "s",
    "setup.ingest_s": "s",
    "setup.calibrate_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale", type=float, default=None,
        help="override the workload's graph scale (self-test)",
    )
    ap.add_argument(
        "--expected", type=int, default=None,
        help="override the expected count (self-test of the gate)",
    )
    return ap.parse_args(argv)


def configure_process() -> None:
    """Environment that must be in place before the JVM starts. Python
    workers inherit PYTHONPATH, so they can import ``repro``."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    # every JVM, spark-submit's launcher included, keeps its files in tmp
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {MASTER} --driver-memory {DRIVER_MEMORY} pyspark-shell"
    )


def new_session():
    from pyspark.sql import SparkSession

    b = SparkSession.builder.master(MASTER).appName("perfbench")
    for k, v in SPARK_CONF.items():
        b = b.config(k, v)
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


class Graph:
    """A graph ingested for the program: a persisted DataFrame of edges
    and the same edges as a driver ``ndarray``."""

    def __init__(self, spark, w, seed: int, scale: float | None):
        from workloads import base_graph, shuffle_rows

        pdf = shuffle_rows(base_graph(w, scale), seed)
        self.edges = spark.createDataFrame(pdf).persist()
        self.edges.count()
        self.rows = pdf[["src", "dst"]].to_numpy(dtype="int64")


class Setup:
    """Spark session, ingested graph and calibrated cost model."""

    def __init__(self, w, seed: int, scale: float | None):
        from repro.core.cost import default_cost_model
        from workloads import N_SERVERS

        t0 = time.monotonic()
        self.spark = new_session()
        t1 = time.monotonic()
        self.graph = Graph(self.spark, w, seed, scale)
        t2 = time.monotonic()
        self.cost_model = default_cost_model(self.spark, n_servers=N_SERVERS)
        t3 = time.monotonic()
        self.times = {"session_s": t1 - t0, "ingest_s": t2 - t1, "calibrate_s": t3 - t2}

    def close(self) -> None:
        self.graph.edges.unpersist()
        self.spark.stop()


def set_up(w, seed: int, scale: float | None) -> tuple[Setup, list[dict]]:
    done: list[Setup] = []
    for _ in range(SETUP_REPS):
        if done:
            # the stopped session stays referenced, so the next one gets
            # a new id() and its calibration is not served from a cache
            done[-1].close()
        done.append(Setup(w, seed, scale))
    return done[-1], [s.times for s in done]


def run_query(w, s: Setup, g: Graph):
    """One query over ``g`` through the program's public entry point.
    ADJ samples with ``ADJConfig``'s default seed, as the Tables II-IV
    harness does, so every query and every run makes the same draws."""
    from repro.baselines.hcubej import run_hcubej
    from repro.core.adj import ADJConfig, run_adj
    from repro.core.query import get_query
    from workloads import COMMFIRST_BUDGET_S, COOPT_BUDGET_S, N_SERVERS, SAMPLE_K

    q = get_query(w.query)
    if w.method == "adj":
        cfg = ADJConfig(
            n_servers=N_SERVERS, sample_k=SAMPLE_K, budget_seconds=COOPT_BUDGET_S,
        )
        return run_adj(
            s.spark, q, g.edges, cfg, dataset=w.dataset,
            cost_model=s.cost_model, edges_rows=g.rows,
        )
    cfg = ADJConfig(n_servers=N_SERVERS, budget_seconds=COMMFIRST_BUDGET_S)
    return run_hcubej(s.spark, q, g.edges, cfg, dataset=w.dataset, edges_rows=g.rows)


def plan_fingerprint(report) -> str:
    """Canonical JSON of the plan the report records (pre-computed bags,
    order, shares, traversal)."""
    return json.dumps(report.detail.get("plan"), sort_keys=True, default=str)


def timed_query(w, s: Setup, g: Graph, phase: str, wrap=None) -> dict:
    rec = {"phase": phase, "count": None, "timed_out": False, "error": None, "plan": None}
    t0 = time.monotonic()
    try:
        if wrap is None:
            report = run_query(w, s, g)
        else:
            with wrap():
                report = run_query(w, s, g)
    except Exception as e:  # noqa: BLE001 - a failed query is counted, not fatal
        rec["error"] = f"{type(e).__name__}: {e}"[:500]
    else:
        rec.update(
            count=report.result_count,
            timed_out=bool(report.timed_out),
            plan=plan_fingerprint(report),
            phases={
                "optimization": report.optimization,
                "pre_computing": report.pre_computing,
                "communication": report.communication,
                "computation": report.computation,
            },
        )
    rec["seconds"] = time.monotonic() - t0
    return rec


def loop(seconds: float, one) -> list[dict]:
    """Call ``one()`` back to back until ``seconds`` have passed (at least
    once); closed loop, one query in flight."""
    out = []
    end = time.monotonic() + seconds
    while not out or time.monotonic() < end:
        out.append(one())
    return out


def python_peak_rss_mb() -> float:
    """Largest VmHWM of the Python processes in this process tree (the
    driver and Spark's Python daemon and workers; the JVM is excluded)."""
    children: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            stat = pathlib.Path(f"/proc/{d}/stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(d))
    todo, peak_kb = [os.getpid()], 0
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, ()))
        try:
            if not pathlib.Path(f"/proc/{pid}/comm").read_text().startswith("python"):
                continue
            for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:
            continue
    return peak_kb / 1024.0


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(w, args, scale: float) -> dict:
    import numpy
    import pyarrow
    import pyspark

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "spark": pyspark.__version__,
        "numpy": numpy.__version__,
        "pyarrow": pyarrow.__version__,
        "workload": w.name,
        "method": w.method,
        "dataset": w.dataset,
        "query": w.query,
        "scale": scale,
        "row_order_seed": args.seed,
        "sampling_seed": "ADJConfig default",
        "seconds": args.seconds,
        "trace": args.trace,
        "spark_conf": {"master": MASTER, "driver_memory": DRIVER_MEMORY, **SPARK_CONF},
    }


def stop_spark(s: Setup) -> None:
    """Stop the session, then the JVM, and wait until it has exited."""
    from pyspark import SparkContext

    s.close()
    gw = SparkContext._gateway
    if gw is None:
        return
    proc = getattr(gw, "proc", None)
    gw.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def traced_part(w, s: Setup, query, seconds: float) -> tuple[list[dict], dict, list[dict]]:
    """Run ``query`` traced for ``seconds``; returns its records, the
    per-layer numbers and the spans."""
    import layertrace as lt

    tracer, capture = lt.Tracer(), lt.ShuffleCapture()
    sc = s.spark.sparkContext
    per_query, jobs = [], []

    def one():
        i = len(per_query)
        tracer.query = i
        group = f"perfbench-traced-{i}"
        sc.setJobGroup(group, "traced query")
        rec = query("traced", wrap=lambda: tracer.span("query", workload=w.name))
        jobs.append(len(sc.statusTracker().getJobIdsForGroup(group)))
        per_query.append(lt.query_layers(tracer, i))
        return rec

    with lt.patched(tracer, capture):
        recs = loop(seconds, one)
    layers = lt.median_layers(per_query)
    layers["spark.jobs"] = statistics.median(jobs)
    layers["hcube.exchanges"] = capture.exchanges
    replayed = lt.replay(capture, slots=os.cpu_count() or 1)
    layers.update(replayed)
    layers["executor.overhead_s"] = (
        per_query[-1]["executor.comp_s"] - replayed["replay.critical_path_s"]
    )
    return recs, layers, tracer.spans


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    if not (SRC / "repro").is_dir():
        print(f"perfbench: program sources not found at {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    configure_process()
    from workloads import WORKLOADS, base_graph, graph_digest, oracle_count

    w = WORKLOADS[args.workload]
    scale = w.scale if args.scale is None else args.scale
    env = environment(w, args, scale)
    print(json.dumps({"environment": env}), flush=True)

    s, setups = set_up(w, args.seed, args.scale)

    def query(phase, wrap=None, g=s.graph):
        return timed_query(w, s, g, phase, wrap)

    try:
        small = Graph(s.spark, w, args.seed, w.warmup_scale)
        warm = query("warmup", g=small)
        small.edges.unpersist()
        spans, layers = [], {}
        if args.trace:
            timed = loop(args.seconds / 2, lambda: query("timed"))
            traced, layers, spans = traced_part(w, s, query, args.seconds / 2)
        else:
            timed = loop(args.seconds, lambda: query("timed"))
            traced = []
        rss_mb = python_peak_rss_mb()
    finally:
        stop_spark(s)

    # correctness gate, off the measured path
    def expected_count(scale):
        if args.expected is not None:
            return args.expected
        base = base_graph(w, scale)
        return oracle_count(w, base, graph_digest(base))

    expected = expected_count(args.scale)
    warm["expected"] = expected_count(w.warmup_scale)
    records = [warm, *timed, *traced]
    for r in records:
        r.setdefault("expected", expected)
        r["ok"] = r["error"] is None and not r["timed_out"] and r["count"] == r["expected"]
    failed = sum(not r["ok"] for r in records)
    correct = failed == 0 and layers.get("replay.count", expected) == expected

    query_s = statistics.median(r["seconds"] for r in timed)
    setup_s = statistics.median(sum(t.values()) for t in setups)
    plans = {r["plan"] for r in records if r["plan"] is not None}
    if args.trace:
        layers.update(
            {
                "optimizer.plans_distinct": len(plans),
                "setup.jvm_start_s": setups[0]["session_s"],
                "trace.overhead_s": statistics.median(r["seconds"] for r in traced) - query_s,
            }
        )
        for k in ("session_s", "ingest_s", "calibrate_s"):
            layers[f"setup.{k}"] = statistics.median(t[k] for t in setups)
        values, units = layers, PER_LAYER
    else:
        values = {"query_s": query_s, "setup_s": setup_s, "py_peak_rss_mb": rss_mb}
        units = END_TO_END
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}

    summary = {
        "workload": w.name,
        "seed": args.seed,
        "query_s": round(query_s, 4),
        "queries_timed": len(timed),
        "setup_s": round(setup_s, 4),
        "failed_ratio": failed / len(records),
        "py_peak_rss_mb": round(rss_mb, 1),
        "expected_count": expected,
        "plans_distinct": len(plans),
    }
    out_dir = WORK / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_file = out_dir / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(
        json.dumps(
            {
                "environment": env,
                "summary": summary,
                "setups": setups,
                "queries": records,
                "layers": layers,
                "spans": spans,
            },
            indent=1,
            default=str,
        )
    )
    print(json.dumps({"summary": summary, "record": str(out_file.relative_to(ROOT))}), flush=True)
    print(
        json.dumps(
            {"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
