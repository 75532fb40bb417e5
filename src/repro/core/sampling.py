"""Cardinality estimation via sampling (paper §IV).

``|T| = |val(A)| · mean(|T_{A=a}|)`` over uniformly sampled ``a`` from
``val(A) = ∩_{R ∋ A} Π_A R``. Per-value counts come from one Leapfrog run
whose first frontier is the sampled values (``roots``). Chernoff–Hoeffding
(Lemma 2) gives ``k(p, δ)``.

The estimator runs on the driver over numpy relations: the Alg. 2
optimizer issues many prefix sub-query estimates, each far cheaper than
a Spark job. It also reports the extensions and counting time it
observed, which calibrate ``β`` for non-pre-computed bags (§III-B,
"reusing statistics gathered during sampling").
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from repro.leapfrog.leapfrog import LeapfrogTimeout, leapfrog
from repro.leapfrog.trie import trie_for_order

# name -> (attrs, rows ndarray of shape (n, len(attrs)))
LocalDB = dict[str, tuple[tuple[str, ...], np.ndarray]]


@dataclass
class CardinalityEstimate:
    """Result of one sampling run."""

    estimate: float
    val_count: int  # |val(A)|
    k: int  # samples actually used
    mean_x: float  # mean |T_{A=a}|
    extensions: int  # total Leapfrog extensions during sampling
    elapsed: float
    attr: str
    max_x: float = 0.0  # largest sampled |T_{A=a}| (skew indicator)
    count_elapsed: float = 0.0  # pure counting time (excludes trie builds)

    @property
    def seconds_per_value(self) -> float:
        """Mean counting time per sampled value — scaled by |val(A)| this
        predicts the whole-query sequential computation time."""
        return self.count_elapsed / self.k if self.k else 0.0

    @property
    def hub_share(self) -> float:
        """Fraction of sampled work concentrated on the heaviest value —
        a straggler indicator (the paper observes the 'last straggler'
        effect on skewed queries, §VII-B Scalability)."""
        total = self.k * self.mean_x
        return (self.max_x / total) if total > 0 else 0.0


def required_samples(p: float, delta: float) -> int:
    """Lemma 2: smallest k with PR{|X̄ − μ| ≥ p·b} ≤ δ, i.e.
    ``k = ceil(ln(2/δ) / (2 p²))``."""
    if not (0 < p <= 1) or not (0 < delta < 1):
        raise ValueError("need 0 < p <= 1 and 0 < delta < 1")
    return math.ceil(math.log(2.0 / delta) / (2.0 * p * p))


def hoeffding_bound(k: int, p: float) -> float:
    """Lemma 2 failure probability: ``2·exp(−2kp²)``."""
    return 2.0 * math.exp(-2.0 * k * p * p)


# ---------------------------------------------------------------------------
# Local estimator
# ---------------------------------------------------------------------------

def _count_for_values(
    db: LocalDB,
    order: Sequence[str],
    values: np.ndarray,
    budget_seconds: float | None = None,
) -> tuple[np.ndarray, int, float, int]:
    """Leapfrog counts ``|T_{A=a}|`` for each ``a`` (A = order[0]), all
    sampled values joined in one call as the kernel's first frontier.

    Returns (counts, total_extensions, count_elapsed, processed). A
    ``budget_seconds`` cap stops early (hub values can be arbitrarily
    heavy); ``counts`` then covers the values finished, a prefix of
    ``values``, and the estimator scales by those.
    """
    order = tuple(order)
    tries = [
        trie_for_order(rows, attrs, order) for attrs, rows in db.values()
    ]
    t0 = time.monotonic()  # tries built above: pure counting time follows
    deadline = t0 + budget_seconds if budget_seconds else None
    try:
        res = leapfrog(tries, order, emit=False, roots=values, deadline=deadline)
    except LeapfrogTimeout as e:
        res = e.partial
    # if not even the first value finished, keep its partial count as a
    # lower bound so a single over-budget hub still yields a sample
    done = res.roots_done or min(1, len(values))
    return res.root_counts[:done], res.extensions, time.monotonic() - t0, done


def _val_of_attr_local(db: LocalDB, attr: str) -> np.ndarray:
    """``val(A)``: intersection of per-relation projections on A."""
    projs = [
        np.unique(rows[:, attrs.index(attr)])
        for attrs, rows in db.values()
        if attr in attrs
    ]
    if not projs:
        raise ValueError(f"attribute {attr} in no relation")
    return reduce(
        lambda x, y: np.intersect1d(x, y, assume_unique=True), projs
    )


def estimate_cardinality_local(
    db: LocalDB,
    order: Sequence[str],
    *,
    k: int = 200,
    seed: int = 0,
    budget_seconds: float | None = None,
) -> CardinalityEstimate:
    """Sampling estimator on local numpy relations; samples on order[0].
    ``budget_seconds`` caps the counting loop (scaling by the samples
    actually processed)."""
    t0 = time.monotonic()
    attr = tuple(order)[0]
    vals = _val_of_attr_local(db, attr)
    if len(vals) == 0:
        return CardinalityEstimate(0.0, 0, 0, 0.0, 0, time.monotonic() - t0, attr)
    rng = np.random.default_rng(seed)
    if k >= len(vals):
        sample = vals
    else:
        sample = rng.choice(vals, size=k, replace=False)
    counts, ext, count_el, used = _count_for_values(
        db, order, sample, budget_seconds
    )
    mean_x = float(counts.mean()) if used else 0.0
    return CardinalityEstimate(
        estimate=float(len(vals)) * mean_x,
        val_count=int(len(vals)),
        k=used,
        mean_x=mean_x,
        extensions=ext,
        elapsed=time.monotonic() - t0,
        attr=attr,
        max_x=float(counts.max()) if used else 0.0,
        count_elapsed=count_el,
    )


# ---------------------------------------------------------------------------
# Sub-query projection (prefix estimates for the optimizer)
# ---------------------------------------------------------------------------

def project_db(db: LocalDB, attrs: Sequence[str]) -> LocalDB:
    """Project every relation onto ``attrs`` (dropping relations with no
    overlap, deduping rows) — the prefix sub-query of §III-B used to
    estimate ``|T^{v_i}|``."""
    keep = tuple(attrs)
    out: LocalDB = {}
    for name, (rattrs, rows) in db.items():
        inter = [a for a in rattrs if a in keep]
        if not inter:
            continue
        cols = [rattrs.index(a) for a in inter]
        sub = np.unique(rows[:, cols], axis=0) if rows.size else rows[:, cols]
        out[name] = (tuple(inter), sub)
    return out
