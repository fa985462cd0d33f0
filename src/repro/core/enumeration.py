"""Candidate enumeration over the visualization search space (Figure 3).

Two generation modes mirror the paper's Figure 12 legends:

* **Exhaustive (E)** — every executable query in the two-column (and
  optionally one-column) search space: all transforms, aggregates,
  orderings, and chart types.
* **Rule-based (R)** — only queries the Section V-A decision rules
  admit, with one canonical ordering per chart.

Both modes share an :class:`EnumerationContext` that caches the
expensive work per *data variant* — the grouped/binned assignment per
(column, transform) and each aggregate per (transform, Y, op) — so the
four chart types and three orderings over the same data cost one
transform pass, which is the paper's first Section V-B optimization.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..dataset.column import Column, ColumnType
from ..dataset.table import Table
from ..errors import ValidationError
from ..language.aggregation import aggregate
from ..language.ast import (
    AggregateOp,
    BinByGranularity,
    BinByUDF,
    BinGranularity,
    BinIntoBuckets,
    ChartType,
    GroupBy,
    OrderBy,
    OrderTarget,
    Transform,
    VisQuery,
)
from ..language.binning import DEFAULT_NUM_BUCKETS, TransformResult
from ..language.executor import (
    ChartData,
    apply_transform,
    as_float_tuple,
    as_str_tuple,
)
from .correlation import correlation
from .features import ColumnFeatures, FeatureVector, shape_stats, trend_r2
from .nodes import VisualizationNode
from .rules import (
    PruningCounters,
    RuleConfig,
    aggregate_rules,
    canonical_order,
    sorting_rules,
    transform_rules,
    visualization_rules,
)

__all__ = [
    "EnumerationConfig",
    "EnumerationContext",
    "enumerate_exhaustive",
    "enumerate_rule_based",
    "exhaustive_for_column",
    "rule_based_for_pair",
    "rule_based_for_column",
    "enumerate_candidates",
    "two_column_space",
    "one_column_space",
    "multi_column_space",
    "search_space_size",
]


# ----------------------------------------------------------------------
# Search-space sizes (the closed forms of Section II-B)
# ----------------------------------------------------------------------
def two_column_space(m: int) -> int:
    """|search space| for two columns: 528 * m * (m - 1)."""
    return 528 * m * (m - 1)


def one_column_space(m: int) -> int:
    """|search space| for one column: 264 * m."""
    return 264 * m


def multi_column_space(m: int) -> int:
    """|search space| for the X/Y/Z three-column case: 704 * m^3."""
    return 704 * m**3


def search_space_size(m: int, include_one_column: bool = True) -> int:
    """The full candidate space selection enumerates over for m columns.

    528·m(m−1) two-column queries plus (optionally) the 264·m
    one-column ones — the denominator of the paper's pruning-ratio
    claims, which the observability layer reports alongside the
    per-rule pruning counters.
    """
    return two_column_space(m) + (one_column_space(m) if include_one_column else 0)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EnumerationConfig:
    """Knobs shared by both enumeration modes.

    ``orderings`` is ``"all"`` (none/X/Y — the exhaustive space),
    ``"canonical"`` (one designer-chosen ordering per chart) or
    ``"none"``.
    """

    include_one_column: bool = True
    orderings: str = "all"
    numeric_bins: Tuple[int, ...] = (DEFAULT_NUM_BUCKETS,)
    granularities: Tuple[BinGranularity, ...] = tuple(BinGranularity)
    correlation_threshold: float = 0.5
    #: Registered UDF bucketings as (name, callable) pairs; applied to
    #: numeric x columns in both enumeration modes (the paper's
    #: ``BIN X BY UDF(X)`` case).
    udfs: Tuple = ()
    #: Worker count for the parallel serving engine: 1 runs serially in
    #: process, -1 uses every CPU, n > 1 fans candidate enumeration +
    #: feature extraction + recognition out over x-columns.  Never
    #: changes results — parallel output is identical to serial.
    n_jobs: int = 1
    #: Pool flavour for n_jobs > 1: ``"process"`` (true parallelism,
    #: models shipped to workers once) or ``"thread"`` (zero setup cost,
    #: useful when numpy dominates or pickling is unwanted).
    backend: str = "process"

    def rule_config(self) -> RuleConfig:
        """The rule-system view of this configuration."""
        return RuleConfig(
            granularities=self.granularities,
            numeric_bins=self.numeric_bins,
            correlation_threshold=self.correlation_threshold,
            udfs=self.udfs,
        )


# ----------------------------------------------------------------------
# Shared-computation context
# ----------------------------------------------------------------------
class EnumerationContext:
    """Caches per-table computation shared by many candidates.

    All caches key on hashable AST fragments, so a context can be reused
    across enumeration modes for the same table.

    ``cache`` optionally plugs in a cross-call, cross-table store (a
    :class:`repro.engine.cache.MultiLevelCache` by duck type: an object
    with ``transforms`` / ``features`` LRU levels).  Entries are keyed
    on the table's content fingerprint, so repeated or duplicated
    tables reuse grouped/binned assignments and feature vectors across
    independent contexts.

    ``pruning`` accumulates per-decision-rule candidate accounting
    (:class:`~repro.core.rules.PruningCounters`) across every
    enumeration run through this context; always on — incrementing a
    dict counter is far cheaper than the work it measures.
    """

    def __init__(
        self,
        table: Table,
        config: EnumerationConfig = EnumerationConfig(),
        cache=None,
    ) -> None:
        self.table = table
        self.config = config
        self.cache = cache
        self.pruning = PruningCounters()
        self._cache_fp: Optional[str] = (
            table.cache_fingerprint() if cache is not None else None
        )
        self._column_features: Dict[str, ColumnFeatures] = {}
        self._raw_corr: Dict[Tuple[str, str], float] = {}
        self._transforms: Dict[Transform, TransformResult] = {}
        self._aggregates: Dict[Tuple[Transform, str, AggregateOp], np.ndarray] = {}
        self._transformed_corr: Dict[Tuple, float] = {}
        # Per data variant (x, y, transform, op): the order-invariant
        # statistics of F; per (variant, order): its trend R².
        self._variant_stats: Dict[Tuple, Tuple] = {}
        self._trend_r2: Dict[Tuple, float] = {}

    # -- cached primitives ---------------------------------------------
    def column_features(self, name: str) -> ColumnFeatures:
        """Cached per-column features (1)-(5)."""
        if name not in self._column_features:
            self._column_features[name] = ColumnFeatures.of(self.table.column(name))
        return self._column_features[name]

    def raw_correlation(self, x: str, y: str) -> float:
        """c(X, Y) over the raw columns; 0 when either is categorical."""
        key = (x, y) if x <= y else (y, x)
        if key not in self._raw_corr:
            col_x = self.table.column(key[0])
            col_y = self.table.column(key[1])
            if ColumnType.CATEGORICAL in (col_x.ctype, col_y.ctype):
                value = 0.0
            else:
                value = correlation(col_x.values, col_y.values).value
            self._raw_corr[key] = value
        return self._raw_corr[key]

    def transform_result(self, transform: Transform) -> TransformResult:
        """Compact columnar result of a TRANSFORM, cached.

        Both the per-context dict and the shared ``cache.transforms``
        level store the :class:`~repro.language.binning.TransformResult`
        itself — a few label strings plus three small arrays and the
        row assignment, never per-row ``Bucket`` objects.
        """
        if transform not in self._transforms:
            if self.cache is not None:
                key = (self._cache_fp, transform)
                result = self._cache_get("transforms", key)
                if result is None:
                    result = apply_transform(transform, self.table)
                    self._cache_put("transforms", key, result)
            else:
                result = apply_transform(transform, self.table)
            self._transforms[transform] = result
        return self._transforms[transform]

    def _cache_get(self, level: str, key):
        """Tiered lookup when the cache supports it (``fetch`` falls
        through to the disk tier); plain ``get`` for duck-typed caches."""
        fetch = getattr(self.cache, "fetch", None)
        if fetch is not None:
            return fetch(level, key)
        return getattr(self.cache, level).get(key)

    def _cache_put(self, level: str, key, value) -> None:
        store = getattr(self.cache, "store", None)
        if store is not None:
            store(level, key, value)
        else:
            getattr(self.cache, level).put(key, value)

    def aggregated(self, transform: Transform, y: str, op: AggregateOp) -> np.ndarray:
        """Cached per-bucket aggregate of Y under a TRANSFORM."""
        key = (transform, y, op)
        if key not in self._aggregates:
            result = self.transform_result(transform)
            y_col = self.table.column(y) if op is not AggregateOp.CNT else None
            self._aggregates[key] = aggregate(
                op, result.assignment, result.num_buckets, y_col
            )
        return self._aggregates[key]

    # -- data-variant construction ---------------------------------------
    def _base_data(
        self,
        x: str,
        y: str,
        transform: Optional[Transform],
        op: Optional[AggregateOp],
    ) -> Optional[ChartData]:
        """Unordered ChartData for a variant; None when inexecutable."""
        placeholder = VisQuery(
            chart=ChartType.BAR, x=x, y=y, transform=transform, aggregate=op
        )
        if transform is None:
            y_col = self.table.column(y)
            if y_col.ctype is not ColumnType.NUMERICAL:
                return None
            x_col = self.table.column(x)
            if x_col.ctype is ColumnType.CATEGORICAL:
                labels = as_str_tuple(x_col.values)
                x_values = as_float_tuple(np.arange(len(labels)))
                discrete = True
            else:
                x_values = as_float_tuple(x_col.values)
                labels = ()  # elided for continuous raw series (fast path)
                discrete = False
            return ChartData(
                query=placeholder,
                x_labels=labels,
                x_values=x_values,
                y_values=as_float_tuple(y_col.values),
                x_is_discrete=discrete,
                source_rows=self.table.num_rows,
            )
        try:
            result = self.transform_result(transform)
            y_values = self.aggregated(transform, y, op)
        except ValidationError:
            return None
        return ChartData(
            query=placeholder,
            x_labels=result.labels,
            x_values=result.values_tuple,
            y_values=as_float_tuple(y_values),
            x_is_discrete=isinstance(transform, GroupBy),
            source_rows=self.table.num_rows,
        )

    @staticmethod
    def _chart_data(data: ChartData, query: VisQuery) -> ChartData:
        """The variant's unordered ``data`` as ``query`` plots it."""
        order = query.order
        if order is None or data.is_empty():
            return dataclasses.replace(data, query=query)
        keys = np.asarray(
            data.x_values if order.target is OrderTarget.X else data.y_values
        )
        permutation = np.argsort(keys, kind="stable")
        if order.descending:
            permutation = permutation[::-1]
        positions = permutation.tolist()
        return dataclasses.replace(
            data,
            query=query,
            x_labels=tuple([data.x_labels[i] for i in positions])
            if data.x_labels
            else (),
            x_values=tuple([data.x_values[i] for i in positions]),
            y_values=tuple([data.y_values[i] for i in positions]),
        )

    def transformed_correlation(
        self,
        x: str,
        y: str,
        transform: Optional[Transform],
        op: Optional[AggregateOp],
        data: ChartData,
    ) -> float:
        """c(X', Y') — permutation-invariant, so cached per data variant."""
        key = (x, y, transform, op)
        if key not in self._transformed_corr:
            self._transformed_corr[key] = correlation(
                data.x_values, data.y_values
            ).value
        return self._transformed_corr[key]

    def build_node(self, query: VisQuery, data: ChartData) -> VisualizationNode:
        """Assemble the node of ``query`` over its data variant.

        ``data`` is the variant's unordered ChartData (``_base_data``);
        the query's ordering is applied here.  Equivalent to make_node.
        """
        chart_data = self._chart_data(data, query)
        if self.cache is not None:
            key = (
                self._cache_fp,
                query.chart,
                query.x,
                query.y,
                query.transform,
                query.aggregate,
                query.order,
            )
            features = self._cache_get("features", key)
            if features is None:
                features = self._measure_features(query, chart_data, data)
                self._cache_put("features", key, features)
        else:
            features = self._measure_features(query, chart_data, data)
        return VisualizationNode(
            query=query,
            data=chart_data,
            features=features,
            table_name=self.table.name,
        )

    def _variant_statistics(self, key: Tuple, data: ChartData) -> Tuple:
        """``(d(X'), d(Y'), min(Y'), entropy, spread)`` of a data variant.

        All five are functions of the unordered data, so they are
        measured once per variant, from the unordered ``data`` whichever
        chart asks first.  ``min(Y')`` is ``None`` when Y' holds a NaN:
        Python's ``min`` then depends on the order, so each ordering
        measures its own.
        """
        stats = self._variant_stats.get(key)
        if stats is None:
            y = np.asarray(data.y_values, dtype=np.float64)
            y_entropy, y_spread = shape_stats(y) if len(y) else (0.0, 0.0)
            y_min = None if np.isnan(y).any() else data.y_min
            stats = (data.distinct_x, data.distinct_y, y_min, y_entropy, y_spread)
            self._variant_stats[key] = stats
        return stats

    def _measure_features(
        self, query: VisQuery, chart_data: ChartData, variant: ChartData
    ) -> FeatureVector:
        """Measure the feature vector **F** of one candidate chart.

        ``chart_data`` is the ordered data the chart plots and
        ``variant`` the unordered data it was ordered from.  Everything
        but the trend R² is read from the per-variant statistics; the
        trend is fitted once per (variant, order).
        """
        key = (query.x, query.y, query.transform, query.aggregate)
        distinct_x, distinct_y, y_min, y_entropy, y_spread = (
            self._variant_statistics(key, variant)
        )
        order_key = key + (query.order,)
        r2 = self._trend_r2.get(order_key)
        if r2 is None:
            r2 = trend_r2(np.asarray(chart_data.y_values, dtype=np.float64))
            self._trend_r2[order_key] = r2
        return FeatureVector(
            x=self.column_features(query.x),
            y=self.column_features(query.y),
            corr=self.raw_correlation(query.x, query.y),
            chart=query.chart,
            transformed_rows=chart_data.transformed_rows,
            distinct_tx=distinct_x,
            distinct_ty=distinct_y,
            corr_transformed=self.transformed_correlation(
                query.x, query.y, query.transform, query.aggregate, chart_data
            ),
            y_min_transformed=chart_data.y_min if y_min is None else y_min,
            y_entropy=y_entropy,
            y_spread=y_spread,
            trend_r2=r2,
        )


class SourceEnumerationContext(EnumerationContext):
    """Enumeration context for source-backed tables.

    Two optional table annotations (see :mod:`repro.dataset.sources`)
    change where cached primitives come from, leaving every other code
    path — variant generation, pruning, feature measurement, node
    assembly — untouched:

    * ``table.pushdown_provider`` (materialised sqlite): transformed
      data variants are served straight from SQL ``GROUP BY`` bucket
      arrays when the signature is expressible; the provider returns
      ``None`` for anything it cannot translate exactly and the
      in-memory kernel path runs as usual.  Pushdown chart parts stay
      in a per-provider memo, never in the shared transform cache —
      they carry no row assignment and must not masquerade as kernel
      ``TransformResult`` entries.
    * ``table.stream_profile`` (reservoir-sample tables): per-column
      features (1)–(5) come from the one-pass full-stream sketch
      statistics instead of the sampled column bytes, so ``d(X)``,
      ``|X|``, ``r(X)``, min and max describe the real table.
    """

    def __init__(
        self,
        table: Table,
        config: EnumerationConfig = EnumerationConfig(),
        cache=None,
    ) -> None:
        super().__init__(table, config, cache=cache)
        self.provider = getattr(table, "pushdown_provider", None)
        self.profile = getattr(table, "stream_profile", None)

    def column_features(self, name: str) -> ColumnFeatures:
        if self.profile is not None and name not in self._column_features:
            stats = self.profile.stats_for(name)
            if stats is not None:
                self._column_features[name] = ColumnFeatures(
                    num_distinct=stats.num_distinct,
                    num_tuples=stats.num_tuples,
                    unique_ratio=stats.unique_ratio,
                    min_value=stats.min_value,
                    max_value=stats.max_value,
                    ctype=stats.ctype,
                )
        return super().column_features(name)

    def _base_data(
        self,
        x: str,
        y: str,
        transform: Optional[Transform],
        op: Optional[AggregateOp],
    ) -> Optional[ChartData]:
        if self.provider is not None and transform is not None and op is not None:
            parts = self.provider.serve(transform, op, y)
            if parts is not None:
                placeholder = VisQuery(
                    chart=ChartType.BAR, x=x, y=y,
                    transform=transform, aggregate=op,
                )
                return ChartData(
                    query=placeholder,
                    x_labels=parts["labels"],
                    x_values=parts["values"],
                    y_values=parts["y_values"],
                    x_is_discrete=parts["x_is_discrete"],
                    source_rows=parts["source_rows"],
                )
        return super()._base_data(x, y, transform, op)


def context_for(
    table: Table,
    config: EnumerationConfig = EnumerationConfig(),
    cache=None,
) -> EnumerationContext:
    """The right context class for a table: source-aware when the table
    carries a pushdown provider or stream profile, plain otherwise."""
    if (
        getattr(table, "pushdown_provider", None) is not None
        or getattr(table, "stream_profile", None) is not None
    ):
        return SourceEnumerationContext(table, config, cache=cache)
    return EnumerationContext(table, config, cache=cache)


# ----------------------------------------------------------------------
# Variant generation shared by both modes
# ----------------------------------------------------------------------
def _exhaustive_transforms(
    x: Column, config: EnumerationConfig
) -> List[Optional[Transform]]:
    """All transform options of the two-column space for column X."""
    options: List[Optional[Transform]] = [None]
    if x.ctype.is_groupable:
        options.append(GroupBy(x.name))
    if x.ctype is ColumnType.TEMPORAL:
        options.extend(BinByGranularity(x.name, g) for g in config.granularities)
    if x.ctype is ColumnType.NUMERICAL:
        options.extend(BinIntoBuckets(x.name, n) for n in config.numeric_bins)
        options.extend(BinByUDF(x.name, name, udf) for name, udf in config.udfs)
    return options


def _aggregates_for(y: Column, transform: Optional[Transform]) -> List[Optional[AggregateOp]]:
    if transform is None:
        return [None]
    if y.ctype is ColumnType.NUMERICAL:
        return [AggregateOp.AVG, AggregateOp.SUM, AggregateOp.CNT]
    return [AggregateOp.CNT]


def _order_options(
    config: EnumerationConfig, chart: ChartType, x_type: ColumnType
) -> List[Optional[OrderBy]]:
    if config.orderings == "none":
        return [None]
    if config.orderings == "canonical":
        return [canonical_order(chart, x_type)]
    return [None, OrderBy(OrderTarget.X), OrderBy(OrderTarget.Y)]


# ----------------------------------------------------------------------
# The two enumeration modes
# ----------------------------------------------------------------------
def _exhaustive_for_pair(
    ctx: EnumerationContext,
    x_name: str,
    y_name: str,
    counters: Optional[PruningCounters] = None,
) -> List[VisualizationNode]:
    """Every executable exhaustive candidate for one ordered (X, Y) pair."""
    table = ctx.table
    config = ctx.config
    counters = ctx.pruning if counters is None else counters
    x_col = table.column(x_name)
    y_col = table.column(y_name)
    one_column = x_name == y_name
    nodes: List[VisualizationNode] = []
    for transform in _exhaustive_transforms(x_col, config):
        if one_column and transform is None:
            continue  # a raw single column has no (X, Y) pairing
        ops = (
            [AggregateOp.CNT]
            if one_column
            else _aggregates_for(y_col, transform)
        )
        for op in ops:
            data = ctx._base_data(x_name, y_name, transform, op)
            if data is None or data.is_empty():
                counters.prune("variant_inexecutable")
                continue
            for chart in ChartType:
                for order in _order_options(config, chart, x_col.ctype):
                    query = VisQuery(
                        chart=chart,
                        x=x_name,
                        y=y_name,
                        transform=transform,
                        aggregate=op,
                        order=order,
                    )
                    counters.emit()
                    nodes.append(ctx.build_node(query, data))
    return nodes


def exhaustive_for_column(
    ctx: EnumerationContext,
    x_name: str,
    counters: Optional[PruningCounters] = None,
) -> Tuple[List[VisualizationNode], List[VisualizationNode]]:
    """Exhaustive candidates with ``x_name`` on the x-axis.

    Returns ``(one_column_nodes, two_column_nodes)`` separately so that
    per-column fan-out (the parallel executor's unit of work) can
    reassemble the exact serial order of :func:`enumerate_exhaustive`,
    which emits all one-column candidates before any two-column ones.

    ``counters`` overrides where pruning accounting accumulates
    (defaults to ``ctx.pruning``); the parallel executor passes a
    per-task accumulator so worker counts merge back race-free.
    """
    one_nodes: List[VisualizationNode] = []
    if ctx.config.include_one_column:
        one_nodes = _exhaustive_for_pair(ctx, x_name, x_name, counters)
    pair_nodes: List[VisualizationNode] = []
    for y_name in ctx.table.column_names:
        if y_name != x_name:
            pair_nodes.extend(_exhaustive_for_pair(ctx, x_name, y_name, counters))
    return one_nodes, pair_nodes


def enumerate_exhaustive(
    table: Table,
    config: EnumerationConfig = EnumerationConfig(),
    context: Optional[EnumerationContext] = None,
) -> List[VisualizationNode]:
    """Mode E: every executable candidate in the search space."""
    ctx = context or EnumerationContext(table, config)
    one_nodes: List[VisualizationNode] = []
    pair_nodes: List[VisualizationNode] = []
    for x_name in table.column_names:
        ones, pairs = exhaustive_for_column(ctx, x_name)
        one_nodes.extend(ones)
        pair_nodes.extend(pairs)
    return one_nodes + pair_nodes


def rule_based_for_pair(
    ctx: EnumerationContext,
    x_name: str,
    y_name: str,
    counters: Optional[PruningCounters] = None,
) -> List[VisualizationNode]:
    """Rule-compliant candidates for one ordered (X, Y) pair.

    The building block of both full rule-based enumeration and the
    progressive method's per-column leaves.

    ``counters`` (default ``ctx.pruning``) records, per decision rule,
    how many candidate variants the rules eliminated, maintaining the
    invariant ``considered == emitted + pruned`` — see
    :class:`~repro.core.rules.PruningCounters`.
    """
    table = ctx.table
    rule_config = ctx.config.rule_config()
    counters = ctx.pruning if counters is None else counters
    x_col = table.column(x_name)
    y_col = table.column(y_name)
    one_column = x_name == y_name
    nodes: List[VisualizationNode] = []

    # Raw (untransformed) candidates: scatter for correlated Num/Num pairs.
    if (
        not one_column
        and y_col.ctype is ColumnType.NUMERICAL
        and x_col.ctype is ColumnType.NUMERICAL
    ):
        if (
            abs(ctx.raw_correlation(x_name, y_name))
            >= rule_config.correlation_threshold
        ):
            query = VisQuery(
                chart=ChartType.SCATTER,
                x=x_name,
                y=y_name,
                order=OrderBy(OrderTarget.X),
            )
            data = ctx._base_data(x_name, y_name, None, None)
            if data is not None and not data.is_empty():
                counters.emit()
                nodes.append(ctx.build_node(query, data))
            else:
                counters.prune("scatter_degenerate_data")
        else:
            # The Num/Num scatter rule: below-threshold |c(X, Y)| means
            # the raw point cloud carries no relationship worth showing.
            counters.prune("scatter_low_correlation")

    # Transformed candidates per the transformation rules.  CNT(Y) counts
    # rows per bucket regardless of Y, so the chart it produces is
    # identical for every Y column: rule-based enumeration emits count
    # charts only through the one-column (x == y) path to avoid
    # duplicates, leaving AVG/SUM for genuine two-column pairs.
    for transform in transform_rules(x_col, rule_config):
        if one_column:
            ops = [AggregateOp.CNT]
        else:
            ops = [op for op in aggregate_rules(y_col) if op is not AggregateOp.CNT]
            if not ops:
                counters.prune("aggregate_count_dedup")
                continue
        for op in ops:
            data = ctx._base_data(x_name, y_name, transform, op)
            # A transform that leaves fewer than two buckets can never
            # be a meaningful chart; rules prune it outright.
            if data is None:
                counters.prune("variant_inexecutable")
                continue
            if data.transformed_rows < 2:
                counters.prune("variant_min_buckets")
                continue
            correlated = (
                abs(
                    ctx.transformed_correlation(x_name, y_name, transform, op, data)
                )
                >= rule_config.correlation_threshold
            )
            if x_col.ctype is ColumnType.NUMERICAL and not correlated:
                # visualization_rules withholds SCATTER for Num X when
                # the transformed series is uncorrelated.
                counters.prune("scatter_uncorrelated_transformed")
            for chart in visualization_rules(x_col.ctype, True, correlated):
                order = canonical_order(chart, x_col.ctype)
                query = VisQuery(
                    chart=chart,
                    x=x_name,
                    y=y_name,
                    transform=transform,
                    aggregate=op,
                    order=order,
                )
                counters.emit()
                # The sorting rule fixes one canonical ordering where the
                # exhaustive space tries all three (none / X / Y).
                counters.prune("ordering_canonicalised", 2)
                nodes.append(ctx.build_node(query, data))
    return nodes


def rule_based_for_column(
    ctx: EnumerationContext,
    x_name: str,
    counters: Optional[PruningCounters] = None,
) -> List[VisualizationNode]:
    """All rule-compliant candidates with ``x_name`` on the x-axis."""
    nodes: List[VisualizationNode] = []
    if ctx.config.include_one_column:
        nodes.extend(rule_based_for_pair(ctx, x_name, x_name, counters))
    for y_name in ctx.table.column_names:
        if y_name != x_name:
            nodes.extend(rule_based_for_pair(ctx, x_name, y_name, counters))
    return nodes


def enumerate_rule_based(
    table: Table,
    config: EnumerationConfig = EnumerationConfig(),
    context: Optional[EnumerationContext] = None,
) -> List[VisualizationNode]:
    """Mode R: only rule-compliant candidates, one canonical ordering each."""
    ctx = context or EnumerationContext(table, config)
    nodes: List[VisualizationNode] = []
    for x_name in table.column_names:
        nodes.extend(rule_based_for_column(ctx, x_name))
    return nodes


def enumerate_candidates(
    table: Table,
    mode: str = "rules",
    config: EnumerationConfig = EnumerationConfig(),
    context: Optional[EnumerationContext] = None,
) -> List[VisualizationNode]:
    """Enumerate candidates in ``mode`` "exhaustive" (E) or "rules" (R)."""
    if mode in ("rules", "R"):
        return enumerate_rule_based(table, config, context)
    if mode in ("exhaustive", "E"):
        return enumerate_exhaustive(table, config, context)
    raise ValueError(f"unknown enumeration mode {mode!r}; use 'rules' or 'exhaustive'")
