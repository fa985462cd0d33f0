"""The progressive top-k method (Section V-B).

Instead of materialising every candidate and ranking the full set, the
progressive method keeps one *leaf list* per x-axis column (grouped
under the per-type lists L_c, L_t, L_n) and runs a tournament: leaves
are opened lazily, each contributing its best remaining chart, and the
overall best is emitted repeatedly until k charts are out.

Unopened leaves participate through an *upper bound* on any chart they
could produce, computed from the schema alone — so a column is never
grouped/binned at all when k charts already beat its bound, which is the
paper's second optimization ("do not generate the groups of a column if
there are k charts better than any chart in this column").

Charts are compared by the composite factor score (M + Q + W_est) / 3,
with W estimated from rule counts over the schema (the exact W needs the
globally-filtered chart set, which progressive evaluation avoids
building).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..dataset.column import ColumnType
from ..dataset.table import Table
from ..obs import MetricsRegistry, Tracer
from ..obs.context import Observer
from .enumeration import (
    EnumerationConfig,
    EnumerationContext,
    rule_based_for_column,
)
from .nodes import VisualizationNode
from .partial_order import matching_quality_raw, transformation_quality
from .rules import aggregate_rules, transform_rules, visualization_rules

__all__ = ["ProgressiveResult", "estimate_column_importance", "progressive_top_k"]


def estimate_column_importance(
    table: Table, config: EnumerationConfig = EnumerationConfig()
) -> Dict[str, float]:
    """Schema-only estimate of W(X): each column's share of the charts
    the decision rules could generate, without executing anything."""
    rule_config = config.rule_config()
    counts: Dict[str, float] = {name: 0.0 for name in table.column_names}
    total = 0.0

    def chart_slots(x_col, y_col, one_column: bool) -> int:
        transforms = len(transform_rules(x_col, rule_config))
        aggregates = 1 if one_column else len(aggregate_rules(y_col))
        charts = len(visualization_rules(x_col.ctype, True, correlated=True))
        return transforms * aggregates * charts

    for x in table.columns:
        if config.include_one_column:
            slots = chart_slots(x, x, one_column=True)
            counts[x.name] += slots
            total += slots
        for y in table.columns:
            if y.name == x.name:
                continue
            slots = chart_slots(x, y, one_column=False)
            counts[x.name] += slots
            counts[y.name] += slots
            total += slots
    if total <= 0:
        return {name: 0.0 for name in counts}
    return {name: value / total for name, value in counts.items()}


def _composite(node: VisualizationNode, importance: Dict[str, float], max_w: float) -> float:
    """(M + Q + W_est) / 3 — the progressive comparison score."""
    w = sum(importance.get(c, 0.0) for c in node.columns)
    w_norm = w / max_w if max_w > 0 else 0.0
    return (matching_quality_raw(node) + transformation_quality(node) + w_norm) / 3.0


@dataclass
class ProgressiveResult:
    """Top-k nodes plus how much work the tournament avoided."""

    nodes: List[VisualizationNode]
    scores: List[float]
    columns_opened: int
    columns_total: int
    candidates_generated: int

    @property
    def columns_skipped(self) -> int:
        return self.columns_total - self.columns_opened


def progressive_top_k(
    table: Table,
    k: int = 10,
    config: EnumerationConfig = EnumerationConfig(),
    context: Optional[EnumerationContext] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> ProgressiveResult:
    """Emit the top-k charts without materialising every candidate.

    The heap holds two kinds of entries: *bound* entries for unopened
    column leaves (their schema-level upper bound) and *chart* entries
    for generated candidates.  Popping a bound opens that leaf; popping
    a chart emits it.  Correctness: a chart is only emitted when its
    actual score beats every unopened leaf's upper bound.

    ``tracer`` records a ``progressive_top_k`` span with one child
    ``open_leaf`` span per materialised column; ``metrics`` accumulates
    emitted-vs-materialised counters, making the paper's second V-B
    optimisation ("never group a column k better charts dominate")
    observable.
    """
    observer = Observer(tracer, metrics)
    with observer, observer.span(
        "progressive_top_k", table=table.name, k=k
    ) as root:
        result = _progressive_top_k(table, k, config, context, observer)
        root.set("columns_opened", result.columns_opened)
        root.set("columns_total", result.columns_total)
        root.set("candidates_materialised", result.candidates_generated)
        root.set("nodes_emitted", len(result.nodes))
    for name, amount, help_text in (
        ("runs", 1, "progressive_top_k invocations"),
        ("columns_opened", result.columns_opened,
         "Column leaves actually grouped/binned"),
        ("columns_skipped", result.columns_skipped,
         "Column leaves pruned by their schema upper bound"),
        ("candidates_materialised", result.candidates_generated,
         "Candidate nodes generated by opened leaves"),
        ("nodes_emitted", len(result.nodes), "Charts emitted into the top-k"),
    ):
        observer.count(f"progressive_{name}_total", amount, help=help_text)
    return result


def _progressive_top_k(
    table: Table,
    k: int,
    config: EnumerationConfig,
    context: Optional[EnumerationContext],
    observer: Observer,
) -> ProgressiveResult:
    ctx = context or EnumerationContext(table, config)
    importance = estimate_column_importance(table, config)

    # max_w normalises the two-column importance sum into [0, 1].
    pair_sums = [
        importance[a] + importance[b]
        for a in table.column_names
        for b in table.column_names
    ]
    max_w = max(pair_sums) if pair_sums else 1.0

    # Upper bound of any chart with x = column: M <= 1, Q <= 1, and the
    # node importance at most importance[x] + best partner importance.
    best_partner = max(importance.values()) if importance else 0.0
    heap: List[Tuple[float, int, str, object]] = []
    for serial, name in enumerate(table.column_names):
        w_bound = min(importance[name] + best_partner, max_w)
        bound = (1.0 + 1.0 + (w_bound / max_w if max_w > 0 else 0.0)) / 3.0
        heapq.heappush(heap, (-bound, serial, "bound", name))

    serial = len(table.column_names)
    opened = 0
    generated = 0
    top_nodes: List[VisualizationNode] = []
    top_scores: List[float] = []

    while heap and len(top_nodes) < k:
        negative_score, _, kind, payload = heapq.heappop(heap)
        if kind == "bound":
            # Open the leaf: generate, score, and enqueue its charts.
            opened += 1
            with observer.span("open_leaf", column=payload) as leaf_span:
                leaf_nodes = rule_based_for_column(ctx, payload)
                leaf_span.add("materialised", len(leaf_nodes))
            generated += len(leaf_nodes)
            for node in leaf_nodes:
                if matching_quality_raw(node) <= 0:
                    continue  # never a valid chart (zero matching quality)
                score = _composite(node, importance, max_w)
                serial += 1
                heapq.heappush(heap, (-score, serial, "chart", node))
        else:
            top_nodes.append(payload)
            top_scores.append(-negative_score)

    return ProgressiveResult(
        nodes=top_nodes,
        scores=top_scores,
        columns_opened=opened,
        columns_total=table.num_columns,
        candidates_generated=generated,
    )
