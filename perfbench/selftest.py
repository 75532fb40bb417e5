"""Self-test of the benchmark, at a tiny graph scale (about two minutes).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the workloads and metrics that
run.py emits, that every run at a tiny scale emits every named metric
and passes its correctness gate, and that a deliberately wrong expected
count makes every query count as failed (failed_ratio 1).

This file is not collected by pytest: it starts several Spark JVMs.
"""
from __future__ import annotations

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, trace: int, *extra: str) -> dict:
    """One run at the workload's warm-up scale, which takes seconds."""
    from workloads import WORKLOADS

    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", "7", "--seconds", "1", "--trace", str(trace),
        "--scale", str(WORKLOADS[workload].warmup_scale), *extra,
    ]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if p.returncode != 0:
        raise AssertionError(f"{cmd} exited {p.returncode}:\n{p.stderr[-3000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def main() -> int:
    sys.path.insert(0, str(HERE))
    import run
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS), "workloads differ")
    for key, emitted in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        named = {m["name"]: m["unit"] for m in spec[key]}
        check(named == emitted, f"{key}: BENCHMARK.json {named} != run.py {emitted}")

    for name in WORKLOADS:
        for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            res = bench(name, trace)
            check(set(res) == {"correct", "attempted", "failed", "metrics"}, str(res))
            check(res["correct"] and res["failed"] == 0, f"{name} trace={trace}: {res}")
            check(set(res["metrics"]) == set(units), f"{name}: metrics {sorted(res['metrics'])}")
            for m, v in res["metrics"].items():
                check(v["unit"] == units[m] and isinstance(v["value"], float), f"{m}: {v}")
            print(f"ok  {name} trace={trace}: {len(res['metrics'])} metrics", flush=True)

    res = bench("commfirst-as-q4", 0, "--expected", "1")
    check(not res["correct"] and res["failed"] == res["attempted"] >= 1, str(res))
    print(f"ok  wrong expected count: {res['failed']}/{res['attempted']} failed", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
