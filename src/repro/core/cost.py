"""Cost model and calibration (paper §III-B, "Computing the Cost").

Three unit rates are calibrated by micro-measurement, exactly as the
paper prescribes:

* ``α``  — tuples shuffled per second: time a small real repartition.
* ``β_pre`` — partial-binding extensions per second when the extended
  node is a pre-computed bag: time the Leapfrog kernel extending a
  frontier of random keys through a trie ("querying the trie for
  candidate values").
* ``γ``  — tuples per second through a Catalyst binary join (the engine
  that materializes pre-computed bags), used inside ``cost_M``.

``β_raw`` (extensions/second when the node is *not* pre-computed) is not
calibrated here: the planner measures raw extension cost from the
sampling statistics of the current test-case (§III-B "reusing statistics
gathered during sampling"); the constant ``β_pre / 50`` set here is used
only when it plans from the model (``beta_source="model"``).

Costs returned are in seconds:

* ``cost_C(C)``  = Σ |R|·dup(R, p*) / α with ``p*`` from the share
  optimizer (Eq. (3)).
* ``cost_E^i``   = |T^{v_{i−1}}| / (β_i · N*).
* ``cost_M(v)``  = shuffle of λ(v) at rate α + join of λ(v) at rate γ.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.hcube.shares import RelSpec, Shares, optimize_shares
from repro.leapfrog.leapfrog import leapfrog
from repro.leapfrog.trie import Trie


@dataclass(frozen=True)
class CostModel:
    """Calibrated unit rates plus cluster parameters."""

    alpha: float  # tuples shuffled / second
    beta_pre: float  # extensions / second into a pre-computed bag
    beta_raw: float  # extensions / second into raw relations
    gamma: float  # tuples / second through a Catalyst binary join
    n_servers: int = 16
    memory_tuples: float | None = None

    # -- paper cost terms --------------------------------------------------
    def cost_C(
        self, attrs: Sequence[str], relations: Sequence[RelSpec]
    ) -> tuple[float, Shares]:
        """Communication seconds for shuffling ``relations`` under the
        optimal share vector, and that vector."""
        sh = optimize_shares(
            attrs, relations, self.n_servers, self.memory_tuples
        )
        return sh.comm / self.alpha, sh

    def cost_E(self, prefix_bindings: float, precomputed: bool) -> float:
        """Seconds to extend ``prefix_bindings`` partial bindings through
        the i-th traversed node."""
        beta = self.beta_pre if precomputed else self.beta_raw
        return prefix_bindings / (beta * self.n_servers)

    def cost_M(
        self,
        input_sizes: Sequence[int],
        est_output: float,
        join_work: float | None = None,
    ) -> float:
        """Pre-computing seconds for one bag: shuffle its λ(v) inputs plus
        join them. ``join_work`` — the total tuples flowing through the
        binary-join pipeline including intermediates — prices multi-join
        bags whose intermediate results blow up; without it the inputs +
        output approximation is used."""
        tuples_in = float(sum(input_sizes))
        work = join_work if join_work is not None else tuples_in + est_output
        return tuples_in / self.alpha + work / self.gamma


# ---------------------------------------------------------------------------
# Calibration (cached per SparkSession)
# ---------------------------------------------------------------------------

#: keyed on the Spark application id: ``id(spark)`` may be reused by a
#: new session after ``stop()``, an application id never is
_CAL_CACHE: dict[str, dict[str, float]] = {}


def calibrate_alpha(spark: SparkSession, k: int = 200_000) -> float:
    """Measure α by timing a k-tuple repartition (a real exchange)."""
    cache = _CAL_CACHE.setdefault(spark.sparkContext.applicationId, {})
    if "alpha" not in cache:
        df = spark.range(k).withColumn(
            "key", (F.col("id") * 2654435761) % 4096
        )
        df.count()  # warm the path so α excludes job-startup noise
        t0 = time.monotonic()
        df.repartition(32, "key").count()
        cache["alpha"] = k / max(time.monotonic() - t0, 1e-9)
    return cache["alpha"]


def calibrate_gamma(spark: SparkSession, n: int = 100_000) -> float:
    """Measure γ by timing a Catalyst shuffle-join of two n-row tables."""
    cache = _CAL_CACHE.setdefault(spark.sparkContext.applicationId, {})
    if "gamma" not in cache:
        a = spark.range(n).withColumn("k", F.col("id") % (n // 4))
        b = spark.range(n).withColumn("k", (F.col("id") * 7) % (n // 4))
        a.count()
        b.count()
        t0 = time.monotonic()
        a.join(b, on="k").count()
        cache["gamma"] = (2 * n) / max(time.monotonic() - t0, 1e-9)
    return cache["gamma"]


def calibrate_beta_pre(
    size: int = 100_000, queries: int = 20_000, seed: int = 0
) -> float:
    """Measure β for pre-computed bags: the Leapfrog kernel extends a
    frontier of ``queries`` random keys through a trie of ``size`` rows
    (key lookup plus candidate range), as it does a pre-computed bag."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, size, size=(size, 2), dtype=np.int64)
    trie = Trie(rows, ("x", "y"))
    keys = rng.choice(trie.values[0], size=queries)
    t0 = time.monotonic()
    leapfrog([trie], ("x", "y"), emit=False, roots=keys)
    return queries / max(time.monotonic() - t0, 1e-9)


def default_cost_model(
    spark: SparkSession,
    *,
    n_servers: int = 16,
) -> CostModel:
    """Fully calibrated cost model for this session."""
    beta_pre = calibrate_beta_pre()
    return CostModel(
        alpha=calibrate_alpha(spark),
        beta_pre=beta_pre,
        # until sampling stats exist, assume raw extension is ~50× slower
        # than a single trie lookup (it intersects several candidate lists)
        beta_raw=beta_pre / 50.0,
        gamma=calibrate_gamma(spark),
        n_servers=n_servers,
    )
