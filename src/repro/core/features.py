"""The recognition feature vector **F** (Section III).

For a two-column candidate the paper extracts, per column: the number of
distinct values d(X), the number of tuples |X|, the unique ratio r(X),
min(X), max(X) and the data type T(X) — six features per column — plus
the column correlation c(X, Y) and the visualization type: 14 features.

:func:`extract_features` measures them; :func:`encode_features` turns a
batch into a fixed-width numeric matrix (one-hot types and chart, log-
scaled cardinalities, presence flags for undefined min/max) usable by
every classifier in :mod:`repro.ml`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..dataset.column import Column, ColumnType
from ..dataset.table import Table
from ..language.ast import ChartType, VisQuery
from ..language.executor import ChartData
from .correlation import centred, correlation
from .trend import fit_trend

__all__ = [
    "ColumnFeatures",
    "FeatureVector",
    "extract_features",
    "encode_features",
    "series_stats",
    "shape_stats",
    "trend_r2",
    "FEATURE_NAMES",
]


def shape_stats(y: np.ndarray) -> Tuple[float, float]:
    """``(normalised entropy, relative spread)`` of a non-empty series.

    Both are functions of the multiset of values, not of their order,
    so enumeration computes them once per data variant.  Shares are
    filtered *after* dividing by the total: a subnormal magnitude can
    underflow to an exact zero share, and ``0 · log 0`` would be NaN.
    """
    n = len(y)
    magnitude = np.abs(y)
    total = float(magnitude.sum())
    if total > 0 and n > 1:
        p = magnitude / total
        p = p[p > 0]
        y_entropy = float(-(p * np.log(p)).sum() / np.log(n))
    else:
        y_entropy = 0.0
    mean_abs = total / n
    # sqrt(Σdy²/n) is y.std() to the last bit.
    y_spread = math.sqrt(centred(y)[1] / n) / mean_abs if mean_abs > 0 else 0.0
    return y_entropy, min(y_spread, 5.0)


def trend_r2(y: np.ndarray) -> float:
    """The best trend family's R² (Eq. 4) of a series, in plotted order."""
    return fit_trend(y, r2_threshold=0.0).r_squared if len(y) >= 3 else 0.0


def series_stats(y_values: Sequence[float]) -> Tuple[float, float, float]:
    """Shape statistics of a plotted y series.

    Returns ``(normalised entropy, relative spread, trend R^2)`` — the
    measurable counterparts of the perception factors (slice diversity,
    bar contrast, line trend) that the raw 14 features cannot express.
    """
    y = np.asarray(y_values, dtype=np.float64)
    if len(y) == 0:
        return 0.0, 0.0, 0.0
    y_entropy, y_spread = shape_stats(y)
    return y_entropy, y_spread, trend_r2(y)


@dataclass(frozen=True)
class ColumnFeatures:
    """Features (1)-(5) for one column."""

    num_distinct: int
    num_tuples: int
    unique_ratio: float
    min_value: Optional[float]
    max_value: Optional[float]
    ctype: ColumnType

    @classmethod
    def of(cls, column: Column) -> "ColumnFeatures":
        return cls(
            num_distinct=column.num_distinct,
            num_tuples=column.num_tuples,
            unique_ratio=column.unique_ratio,
            min_value=column.min(),
            max_value=column.max(),
            ctype=column.ctype,
        )


@dataclass(frozen=True)
class FeatureVector:
    """The full 14-feature vector, plus transformed-data statistics.

    The paper's Table II shows that a visualization node also records
    ``|X'|``, ``d(X')``, ``d(Y')`` and ``c(X', Y')`` of the transformed
    data; these feed the partial-order factors and are kept here so each
    candidate is featurised exactly once.

    Enumeration measures F once per data variant (x, y, transform,
    aggregate), not per chart: ``distinct_tx``, ``distinct_ty``,
    ``y_min_transformed``, ``y_entropy`` and ``y_spread`` do not depend
    on the ordering, and only ``trend_r2`` (the best Eq. 4 R² of the
    series in plotted order) is fitted per (variant, ordering).  M(v)
    then reads F: a line's Trend(Y) is ``trend_r2 >= threshold``, a
    bar's and a scatter's factors are ``distinct_tx`` and
    ``corr_transformed``.
    """

    x: ColumnFeatures
    y: ColumnFeatures
    corr: float
    chart: ChartType
    # transformed-data statistics (Table II)
    transformed_rows: int
    distinct_tx: int
    distinct_ty: int
    corr_transformed: float
    y_min_transformed: float
    # series-shape statistics of the plotted y values (extended set):
    # entropy and spread per data variant, trend R² per ordering
    y_entropy: float
    y_spread: float
    trend_r2: float

    def as_pairs(self) -> List[Tuple[str, object]]:
        """(name, value) pairs in a stable order, for reports and tests."""
        return list(zip(FEATURE_NAMES, self._raw_values()))

    def _raw_values(self) -> List[object]:
        return [
            self.x.num_distinct,
            self.x.num_tuples,
            self.x.unique_ratio,
            self.x.min_value,
            self.x.max_value,
            self.x.ctype.value,
            self.y.num_distinct,
            self.y.num_tuples,
            self.y.unique_ratio,
            self.y.min_value,
            self.y.max_value,
            self.y.ctype.value,
            self.corr,
            self.chart.value,
        ]


FEATURE_NAMES = (
    "d(X)", "|X|", "r(X)", "min(X)", "max(X)", "T(X)",
    "d(Y)", "|Y|", "r(Y)", "min(Y)", "max(Y)", "T(Y)",
    "c(X,Y)", "chart",
)


def _column_correlation(x: Column, y: Column) -> float:
    """c(X, Y) over raw columns; undefined (0) when either is categorical."""
    if x.ctype is ColumnType.CATEGORICAL or y.ctype is ColumnType.CATEGORICAL:
        return 0.0
    return correlation(x.values, y.values).value


def extract_features(table: Table, query: VisQuery, data: ChartData) -> FeatureVector:
    """Measure the feature vector of one candidate visualization."""
    x_col = table.column(query.x)
    y_col = table.column(query.y)
    corr_transformed = correlation(data.x_values, data.y_values).value
    y_entropy, y_spread, trend_r2 = series_stats(data.y_values)
    return FeatureVector(
        x=ColumnFeatures.of(x_col),
        y=ColumnFeatures.of(y_col),
        corr=_column_correlation(x_col, y_col),
        chart=query.chart,
        transformed_rows=data.transformed_rows,
        distinct_tx=data.distinct_x,
        distinct_ty=data.distinct_y,
        corr_transformed=corr_transformed,
        y_min_transformed=data.y_min,
        y_entropy=y_entropy,
        y_spread=y_spread,
        trend_r2=trend_r2,
    )


_TYPE_ORDER = (ColumnType.CATEGORICAL, ColumnType.NUMERICAL, ColumnType.TEMPORAL)
_CHART_ORDER = (ChartType.BAR, ChartType.LINE, ChartType.PIE, ChartType.SCATTER)


def _encode_column(features: ColumnFeatures) -> List[float]:
    has_range = features.min_value is not None
    span = (
        features.max_value - features.min_value
        if has_range and features.max_value is not None
        else 0.0
    )
    encoded = [
        float(np.log1p(features.num_distinct)),
        float(np.log1p(features.num_tuples)),
        float(features.unique_ratio),
        1.0 if has_range else 0.0,
        float(np.log1p(abs(span))),
    ]
    encoded.extend(1.0 if features.ctype is t else 0.0 for t in _TYPE_ORDER)
    return encoded


def encode_features(
    vectors: Sequence[FeatureVector], extended: bool = True
) -> np.ndarray:
    """Encode feature vectors as a dense numeric matrix.

    Layout per row: 8 numbers for X (log d, log n, ratio, range flag,
    log span, 3 type one-hots), 8 for Y, the raw-column correlation, 4
    chart one-hots — the encoded form of the paper's 14 features.  With
    ``extended=True`` (default) the transformed-data statistics of
    Table II are appended, which measurably helps every model.
    """
    rows = []
    for fv in vectors:
        row = _encode_column(fv.x) + _encode_column(fv.y)
        row.append(float(fv.corr))
        row.extend(1.0 if fv.chart is c else 0.0 for c in _CHART_ORDER)
        if extended:
            row.extend(
                [
                    float(np.log1p(fv.transformed_rows)),
                    float(np.log1p(fv.distinct_tx)),
                    float(np.log1p(fv.distinct_ty)),
                    float(fv.corr_transformed),
                    1.0 if fv.y_min_transformed < 0 else 0.0,
                    (
                        fv.transformed_rows / fv.x.num_tuples
                        if fv.x.num_tuples
                        else 0.0
                    ),
                    float(fv.y_entropy),
                    float(fv.y_spread),
                    float(fv.trend_r2),
                ]
            )
        rows.append(row)
    if not rows:
        width = 21 + (9 if extended else 0)
        return np.zeros((0, width))
    return np.asarray(rows, dtype=np.float64)
