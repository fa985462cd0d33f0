"""Partial-order factors M(v), Q(v), W(v) and dominance (Section IV-B).

Three expert factors score every visualization node:

* **M(v)** — matching quality between the data and the chart type
  (Eqs. 1-5): pies need few, diverse, non-negative slices and no AVG;
  bars tolerate up to ~20 categories; scatters need correlation; lines
  need the y series to follow a distribution (Trend).  Scores are
  normalised per chart type by the maximum among same-chart nodes.
* **Q(v)** — quality of the transformation (Eq. 6): ``1 - |X'|/|X|`` —
  transformations that genuinely reduce cardinality are better.
* **W(v)** — importance of the node's columns (Eqs. 7-8): the fraction
  of valid charts that mention each column, summed and normalised.

Definition 2 then induces the partial order: u dominates v when u is at
least as good on all three factors (strictly better on at least one),
and Eq. 9 weighs each dominance edge by the mean factor difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..dataset.stats import entropy
from ..language.ast import AggregateOp, ChartType
from .nodes import VisualizationNode
from .trend import DEFAULT_R2_THRESHOLD, TREND_FAMILIES, fit_trend

__all__ = [
    "FactorScores",
    "PartialOrderScorer",
    "matching_quality_raw",
    "transformation_quality",
    "dominates",
    "strictly_dominates",
    "edge_weight",
]


@dataclass(frozen=True)
class FactorScores:
    """The (M, Q, W) triple of one node, after normalisation."""

    m: float
    q: float
    w: float

    def as_tuple(self) -> Tuple[float, float, float]:
        """(M, Q, W) as a plain tuple (sortable, hashable)."""
        return (self.m, self.q, self.w)


# ----------------------------------------------------------------------
# Factor 1: matching quality M(v)
# ----------------------------------------------------------------------
def _pie_quality(node: VisualizationNode) -> float:
    """Eq. (1).  AVG pies, singleton pies and negative slices score 0;
    otherwise the normalised slice entropy, damped by 10/d beyond 10
    slices.

    The one M(v) branch that reads the plotted series rather than F:
    F's ``y_entropy`` is measured once per data variant, and the slice
    entropy of an ordered pie sums the same shares in another order, so
    the two can differ in the last bit.
    """
    if node.query.aggregate is AggregateOp.AVG:
        return 0.0
    d = node.features.distinct_tx
    if d <= 1:
        return 0.0
    y = np.asarray(node.data.y_values, dtype=np.float64)
    if y.min() < 0 or y.sum() <= 0:
        return 0.0
    # Normalised entropy in [0, 1]: 1 means evenly informative slices.
    diversity = entropy(y) / math.log(len(y)) if len(y) > 1 else 0.0
    base = 1.0 if d <= 10 else 10.0 / d
    return base * diversity


def _bar_quality(node: VisualizationNode) -> float:
    """Eq. (2): 0 for one bar, 1 up to 20 bars, 20/d beyond."""
    d = node.features.distinct_tx
    if d <= 1:
        return 0.0
    if d <= 20:
        return 1.0
    return 20.0 / d


def _scatter_quality(node: VisualizationNode) -> float:
    """Eq. (3): the correlation strength of the plotted pair."""
    return abs(node.features.corr_transformed)


def _line_quality(
    node: VisualizationNode,
    r2_threshold: float,
    trend_families: Sequence[str] = TREND_FAMILIES,
) -> float:
    """Eq. (4): Trend(Y) — 1 when the y series follows a distribution.

    Under the default families F's ``trend_r2`` is exactly the best R²
    that :func:`~repro.core.trend.fit_trend` finds for the plotted
    series, so a positive threshold needs no refit.  Other families
    (the opt-in "smooth") and a threshold of zero or below (which a
    series too short to fit would pass) refit the series.
    """
    if node.features.distinct_tx <= 1:
        return 0.0
    if r2_threshold > 0 and tuple(trend_families) == TREND_FAMILIES:
        return 1.0 if node.features.trend_r2 >= r2_threshold else 0.0
    result = fit_trend(
        node.data.y_values, families=trend_families, r2_threshold=r2_threshold
    )
    return 1.0 if result.has_trend else 0.0


def matching_quality_raw(
    node: VisualizationNode,
    r2_threshold: float = DEFAULT_R2_THRESHOLD,
    trend_families: Sequence[str] = TREND_FAMILIES,
) -> float:
    """Un-normalised M(v) for one node.

    A function of the query and the feature vector F for bar, scatter
    and (under the default families) line charts; a pie also reads its
    plotted slices.  ``trend_families`` controls the line chart's
    Trend(Y) test; pass
    :data:`~repro.core.trend.EXTENDED_TREND_FAMILIES` to also accept
    smooth non-monotone series (seasonal curves like Figure 1(c)).
    """
    if node.chart is ChartType.PIE:
        return _pie_quality(node)
    if node.chart is ChartType.BAR:
        return _bar_quality(node)
    if node.chart is ChartType.SCATTER:
        return _scatter_quality(node)
    return _line_quality(node, r2_threshold, trend_families)


# ----------------------------------------------------------------------
# Factor 2: transformation quality Q(v)
# ----------------------------------------------------------------------
def transformation_quality(node: VisualizationNode) -> float:
    """Eq. (6): ``1 - |X'| / |X|`` — reward genuine summarisation."""
    source = node.data.source_rows
    if source <= 0:
        return 0.0
    ratio = node.data.transformed_rows / source
    return max(0.0, 1.0 - ratio)


# ----------------------------------------------------------------------
# Scorer: computes all three factors for a candidate set
# ----------------------------------------------------------------------
class PartialOrderScorer:
    """Score a set of valid nodes on (M, Q, W) per Section IV-B.

    Both M's per-chart normalisation (Eq. 5) and W's definition (the
    share of *valid charts* mentioning a column, Eq. 7) are properties
    of the whole candidate set, so scoring is batched.
    """

    def __init__(
        self,
        r2_threshold: float = DEFAULT_R2_THRESHOLD,
        trend_families: Sequence[str] = TREND_FAMILIES,
    ) -> None:
        self.r2_threshold = r2_threshold
        self.trend_families = tuple(trend_families)

    def column_importance(
        self, nodes: Sequence[VisualizationNode]
    ) -> Dict[str, float]:
        """W(X): fraction of valid charts whose query mentions column X."""
        if not nodes:
            return {}
        counts: Dict[str, int] = {}
        for node in nodes:
            for column in node.columns:
                counts[column] = counts.get(column, 0) + 1
        total = len(nodes)
        return {column: count / total for column, count in counts.items()}

    def score(
        self,
        nodes: Sequence[VisualizationNode],
        raw_m: Optional[Sequence[float]] = None,
    ) -> List[FactorScores]:
        """The normalised (M, Q, W) triple of every node, in input order.

        ``raw_m`` optionally supplies the un-normalised M(v) of each
        node (same order as ``nodes``), skipping the per-node
        :func:`matching_quality_raw` calls — the incremental engine
        caches raw M across appends for charts whose inputs did not
        move.  Normalisation still happens here: Eq. (5) depends on the
        whole candidate set, not on a single node.
        """
        if not nodes:
            return []

        if raw_m is None:
            raw_m = [
                matching_quality_raw(n, self.r2_threshold, self.trend_families)
                for n in nodes
            ]
        elif len(raw_m) != len(nodes):
            raise ValueError(
                f"raw_m has {len(raw_m)} entries for {len(nodes)} nodes"
            )
        # Eq. (5): normalise M per chart type by the same-chart maximum.
        max_per_chart: Dict[ChartType, float] = {}
        for node, value in zip(nodes, raw_m):
            max_per_chart[node.chart] = max(max_per_chart.get(node.chart, 0.0), value)
        norm_m = [
            value / max_per_chart[node.chart] if max_per_chart[node.chart] > 0 else 0.0
            for node, value in zip(nodes, raw_m)
        ]

        q = [transformation_quality(n) for n in nodes]

        importance = self.column_importance(nodes)
        raw_w = [sum(importance[c] for c in n.columns) for n in nodes]
        max_w = max(raw_w) if raw_w else 0.0
        norm_w = [value / max_w if max_w > 0 else 0.0 for value in raw_w]

        return [
            FactorScores(m=m, q=qv, w=w) for m, qv, w in zip(norm_m, q, norm_w)
        ]


# ----------------------------------------------------------------------
# Dominance (Definition 2) and edge weights (Eq. 9)
# ----------------------------------------------------------------------
def dominates(u: FactorScores, v: FactorScores) -> bool:
    """u >= v on every factor (possibly equal on all)."""
    return u.m >= v.m and u.q >= v.q and u.w >= v.w


def strictly_dominates(u: FactorScores, v: FactorScores) -> bool:
    """u >= v on every factor and > on at least one (Definition 2's >-)."""
    return dominates(u, v) and (u.m > v.m or u.q > v.q or u.w > v.w)


def edge_weight(u: FactorScores, v: FactorScores) -> float:
    """Eq. (9): the mean factor advantage of u over v."""
    return ((u.m - v.m) + (u.q - v.q) + (u.w - v.w)) / 3.0
