"""The ADJ plan optimizer (paper Alg. 2).

Greedy reverse construction of the query plan: starting from the full
bag set ``V`` of the hypertree, each round fixes which bag is traversed
*last* among the remaining ones and whether its candidate relation is
pre-computed, by comparing

``cost' = cost_C(C) + cost_E^i(C, O')``                 (don't pre-compute)
``cost'' = cost_M(R_v) + cost_C(C ∪ R_v) + cost_E^i(C ∪ R_v, O')``

per candidate ``v`` whose removal keeps the untraversed bags connected
(the validity condition of §III-A). Only the i-th extension step is
costed per round — the last Leapfrog steps dominate complex joins
(paper Fig. 6).

Estimation follows §III-B/§IV:

* Prefix binding counts ``|T^{v_{i−1}}|`` come from the sampler on the
  prefix sub-query (relations projected onto the prefix attributes);
  they depend only on the prefix attribute *set* — exactly the union of
  the remaining bags' attributes — so they are well defined before the
  internal order of the prefix is fixed.
* ``β_i`` is "estimated by sampling some partial bindings, extending
  them, and taking the average of their extending time" (§III-B): for
  each candidate bag we sample-extend the query with ``v`` traversed
  last, once on the raw relations and once with λ(v) replaced by the
  locally pre-joined candidate relation, and use the observed extension
  rates. This captures both effects of pre-computation — cheaper
  per-extension work (one trie instead of several intersections) and
  fewer partial bindings (the bag relation is semi-join reduced).
* The sampled per-value count distribution also yields a straggler
  (hub) share; computation cost divides by the skew-adjusted effective
  parallelism ``N_eff = max(1, N*·(1 − hub_share))`` — the paper's
  "last straggler" effect (§VII-B) made explicit in the model.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cost import CostModel
from repro.core.hypertree import Bag, Hypertree, find_hypertree
from repro.core.query import JoinQuery
from repro.core.sampling import (
    CardinalityEstimate,
    LocalDB,
    estimate_cardinality_local,
    project_db,
)
from repro.hcube.shares import RelSpec, Shares


@dataclass
class PlanChoice:
    """The optimizer's output: a query candidate Q_i plus attribute order."""

    query: JoinQuery
    hypertree: Hypertree
    traversal: tuple[int, ...]  # bag indexes in traversal order
    precompute: frozenset[int]  # bag indexes whose join is materialized
    order: tuple[str, ...]  # Leapfrog attribute order
    shares: Shares  # HCube share vector for the final relation set
    est: dict = field(default_factory=dict)  # estimated cost breakdown

    @property
    def precomputed_bags(self) -> list[Bag]:
        return [self.hypertree.bags[i] for i in sorted(self.precompute)]

    def final_relations(self) -> list[tuple[str, tuple[str, ...]]]:
        """Relation list of Q_i: pre-computed bags become one relation
        ``bag{i}``; other bags contribute their raw λ relations."""
        out: list[tuple[str, tuple[str, ...]]] = []
        for b in self.hypertree.bags:
            if b.index in self.precompute:
                out.append((f"bag{b.index}", b.attrs))
            else:
                out.extend((r.name, r.attrs) for r in b.relations)
        return out


class _Estimator:
    """Cached sampling-based estimates over a local database (§IV)."""

    #: cap on locally materialized bag joins (driver memory guard)
    MAX_JOIN_ROWS = 3_000_000
    #: wall-clock cap per sampling call; hub values can be arbitrarily
    #: heavy, so every estimate is budgeted and scales by the samples
    #: actually processed
    BUDGET_PER_CALL = 1.0
    #: samples per β measurement (each extends a whole query variant)
    K_BETA = 12

    def __init__(
        self, db: LocalDB, query: JoinQuery, tree: Hypertree, k: int, seed: int
    ):
        self.db = db
        self.query = query
        self.tree = tree
        self.k = k
        self.seed = seed
        self._prefix: dict[frozenset[str], float] = {}
        self._joins: dict[int, np.ndarray | None] = {}
        self._join_work: dict[int, float] = {}
        self._beta: dict[tuple[int, bool], CardinalityEstimate | None] = {}
        self.total_extensions = 0
        self.total_elapsed = 0.0

    def _order_for(self, attrs) -> tuple[str, ...]:
        return tuple(a for a in self.query.attrs if a in set(attrs))

    def _track(self, est: CardinalityEstimate) -> CardinalityEstimate:
        self.total_extensions += est.extensions
        self.total_elapsed += est.elapsed
        return est

    # -- prefix binding counts --------------------------------------------
    def prefix_count(self, attrs: frozenset[str]) -> float:
        """Estimated |T^{prefix}| for a prefix attribute set."""
        if not attrs:
            return 1.0
        if attrs not in self._prefix:
            sub = project_db(self.db, self._order_for(attrs))
            est = self._track(
                estimate_cardinality_local(
                    sub,
                    self._order_for(attrs),
                    k=self.k,
                    seed=self.seed,
                    budget_seconds=self.BUDGET_PER_CALL,
                )
            )
            self._prefix[attrs] = max(est.estimate, 1.0)
        return self._prefix[attrs]

    # -- local pre-joins ---------------------------------------------------
    def local_bag_join(self, bag: Bag) -> np.ndarray | None:
        """Materialize ⋈λ(v) on the driver (size-capped); None if too big.

        Uses pandas hash joins (C speed) — this is plan-time machinery,
        not the operator under study."""
        if bag.index not in self._joins:
            import pandas as pd

            df: pd.DataFrame | None = None
            work = 0.0  # tuples through the join pipeline (for cost_M)
            for r in bag.join_order():
                attrs, rows = self.db[r.name]
                nxt = pd.DataFrame(rows, columns=list(attrs))
                work += len(nxt)
                if df is None:
                    df = nxt
                else:
                    shared = [c for c in df.columns if c in nxt.columns]
                    df = (
                        df.merge(nxt, on=shared)
                        if shared
                        else df.merge(nxt, how="cross")
                    )
                    work += len(df)
                if len(df) > self.MAX_JOIN_ROWS:
                    df = None
                    work = float("inf")  # blow-up: effectively unjoinable
                    break
            self._join_work[bag.index] = work
            self._joins[bag.index] = (
                None
                if df is None
                else df[list(bag.attrs)].to_numpy(dtype=np.int64)
            )
        return self._joins[bag.index]

    def join_work(self, bag: Bag) -> float | None:
        """Tuples through the pre-join pipeline (incl. intermediates)."""
        self.local_bag_join(bag)
        w = self._join_work.get(bag.index)
        return w if w is not None and np.isfinite(w) else None

    def bag_join_size(self, bag: Bag) -> float:
        """|R_v| — exact when the local join fit, else sampled."""
        rows = self.local_bag_join(bag)
        if rows is not None:
            return float(max(len(rows), 1))
        sub: LocalDB = {r.name: self.db[r.name] for r in bag.relations}
        est = self._track(
            estimate_cardinality_local(
                sub,
                bag.attrs,
                k=self.k,
                seed=self.seed,
                budget_seconds=self.BUDGET_PER_CALL,
            )
        )
        return max(est.estimate, 1.0)

    # -- β measurement (§III-B) -------------------------------------------
    def beta_stats(self, v: int, pre: bool) -> CardinalityEstimate | None:
        """Sampled extension statistics for the plan variant that
        traverses bag ``v`` last, with λ(v) either raw or pre-joined."""
        key = (v, pre)
        if key not in self._beta:
            bag = self.tree.bags[v]
            if pre:
                rows = self.local_bag_join(bag)
                if rows is None:
                    self._beta[key] = None
                    return None
                db_v: LocalDB = {
                    name: spec
                    for name, spec in self.db.items()
                    if name not in {r.name for r in bag.relations}
                }
                db_v[f"bag{v}"] = (bag.attrs, rows)
            else:
                db_v = dict(self.db)
            prefix = [
                a
                for b in self.tree.bags
                if b.index != v
                for a in b.attrs
            ]
            order = self._order_for(prefix) + tuple(
                a for a in self.query.attrs if a not in set(prefix)
            )
            self._beta[key] = self._track(
                estimate_cardinality_local(
                    db_v,
                    order,
                    k=self.K_BETA,
                    seed=self.seed,
                    budget_seconds=self.BUDGET_PER_CALL,
                )
            )
        return self._beta[key]

    @property
    def beta_raw(self) -> float | None:
        if self.total_elapsed > 0 and self.total_extensions > 0:
            return self.total_extensions / self.total_elapsed
        return None


def _rels_for(
    tree: Hypertree,
    precompute: frozenset[int],
    sizes: dict[str, int],
    est: _Estimator,
) -> list[RelSpec]:
    out: list[RelSpec] = []
    for b in tree.bags:
        if b.index in precompute:
            out.append((b.attrs, int(round(est.bag_join_size(b)))))
        else:
            out.extend((r.attrs, sizes[r.name]) for r in b.relations)
    return out


def optimize(
    query: JoinQuery,
    db: LocalDB,
    cost_model: CostModel,
    *,
    sample_k: int = 200,
    seed: int = 0,
    hypertree: Hypertree | None = None,
    beta_source: str = "sampled",
) -> PlanChoice:
    """Run Alg. 2 and return the chosen plan.

    ``db`` holds the (driver-local) relations used for sampling-based
    estimation; execution itself stays in Spark. ``beta_source`` selects
    how extension rates are obtained: ``"sampled"`` (the paper's §III-B
    sampling measurement, default) or ``"model"`` (the calibrated
    β_raw/β_pre constants of the CostModel — cheaper, used by tests to
    force planner decisions deterministically).
    """
    if beta_source not in ("sampled", "model"):
        raise ValueError(f"beta_source must be sampled|model, got {beta_source!r}")
    tree = hypertree or find_hypertree(query)
    sizes = {name: int(rows.shape[0]) for name, (_, rows) in db.items()}
    est = _Estimator(db, query, tree, sample_k, seed)
    cm = cost_model

    def comp_cost(t_prev: float, stats, precomputed: bool) -> float:
        """Computation cost of the variant measured by ``stats``.

        Sampled mode: the per-value counting time scaled by |val(A)|
        predicts the sequential whole-query time directly (capturing
        both cheaper extensions and fewer partial bindings under a
        pre-joined bag), divided by the skew-adjusted parallelism.
        Model mode (stats is None): the paper's closed form ``cost_E``.
        """
        if stats is None:
            return cm.cost_E(t_prev, precomputed=precomputed)
        n_eff = max(1.0, cm.n_servers * (1.0 - stats.hub_share))
        return stats.seconds_per_value * stats.val_count / n_eff

    V = set(range(len(tree.bags)))
    C: frozenset[int] = frozenset()
    O_rev: list[int] = []
    round_costs: list[dict] = []

    while V:
        best: tuple[float, int, bool] | None = None  # (cost, v, precompute?)
        for v in sorted(V):
            rest = V - {v}
            if rest and not tree.is_connected_subset(rest):
                continue  # O' could not extend to a valid traversal order
            prefix_attrs = frozenset(
                a for i in rest for a in tree.bags[i].attrs
            )
            t_prev = est.prefix_count(prefix_attrs)
            cost_c, _ = cm.cost_C(query.attrs, _rels_for(tree, C, sizes, est))
            raw_stats = (
                est.beta_stats(v, pre=False)
                if beta_source == "sampled"
                else None
            )
            cost_no = cost_c + comp_cost(t_prev, raw_stats, precomputed=False)
            if best is None or cost_no < best[0]:
                best = (cost_no, v, False)
            bag = tree.bags[v]
            if bag.needs_precompute:
                c_new = C | {v}
                cost_c2, _ = cm.cost_C(
                    query.attrs, _rels_for(tree, c_new, sizes, est)
                )
                cost_m = cm.cost_M(
                    [sizes[r.name] for r in bag.relations],
                    est.bag_join_size(bag),
                    join_work=est.join_work(bag),
                )
                pre_stats = (
                    est.beta_stats(v, pre=True)
                    if beta_source == "sampled"
                    else None
                )
                cost_pre = (
                    cost_m
                    + cost_c2
                    + comp_cost(t_prev, pre_stats, precomputed=True)
                )
                if cost_pre < best[0]:
                    best = (cost_pre, v, True)
        assert best is not None, "hypertree has no valid traversal order"
        cost, v_star, pre = best
        if pre:
            C = C | {v_star}
        O_rev.append(v_star)
        V.remove(v_star)
        round_costs.append({"bag": v_star, "precompute": pre, "cost": cost})

    traversal = tuple(reversed(O_rev))
    order = tree.attribute_order(traversal)
    final_rels = _rels_for(tree, C, sizes, est)
    cost_c, shares = cm.cost_C(query.attrs, final_rels)
    est_breakdown = {
        "rounds": round_costs,
        "cost_C": cost_c,
        "beta_raw": est.beta_raw or cm.beta_raw,
        "beta_pre": cm.beta_pre,
        "final_relations": final_rels,
    }
    return PlanChoice(
        query=query,
        hypertree=tree,
        traversal=traversal,
        precompute=C,
        order=order,
        shares=shares,
        est=est_breakdown,
    )
