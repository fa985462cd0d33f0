"""Trend detection Trend(Y) — Eq. (4) of Section IV-B.

A line chart is worth drawing when the y series "follows a distribution,
e.g., linear distribution, power law distribution, log distribution or
exponential distribution"; otherwise the chart shows noise (the paper's
Figure 1(d)).  We fit each family against the point index (the x order
of the chart), measure goodness of fit by R², and declare a trend when
the best family's R² clears a threshold.

Fits are all reduced to ordinary least squares on transformed axes:

* linear:        y   ~ a * t + b
* logarithmic:   y   ~ a * ln(t) + b           (t >= 1)
* exponential:   ln y ~ a * t + b              (y > 0)
* power law:     ln y ~ a * ln(t) + b          (y > 0, t >= 1)

The R² of an OLS line is the squared Pearson correlation of its two
axes, so every family reduces to the centred moments of
:mod:`repro.core.correlation` (:func:`~repro.core.correlation.centred`
and :func:`~repro.core.correlation.r_squared_centred`): each of the four
axes (t, ln t, y, ln y) is centred once per series and each fit costs
one sum of products, instead of a ``var``/``cov``/residual pass per
family.  The "smooth" family's lag-1 autocorrelation uses the same
centred side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .correlation import centred, r_squared_centred

__all__ = [
    "TrendResult",
    "fit_trend",
    "trend",
    "smoothness",
    "TREND_FAMILIES",
    "EXTENDED_TREND_FAMILIES",
    "DEFAULT_R2_THRESHOLD",
]

TREND_FAMILIES = ("linear", "log", "exponential", "power")

#: TREND_FAMILIES plus "smooth": structured-but-non-monotone series
#: (the paper's Figure 1(c) hourly seasonality) score on lag-1
#: autocorrelation instead of a monotone fit.  Opt-in because the
#: paper's Eq. 4 names only the four monotone families.
EXTENDED_TREND_FAMILIES = TREND_FAMILIES + ("smooth",)

#: Minimum R² of the best family to declare "follows a distribution".
DEFAULT_R2_THRESHOLD = 0.75


@dataclass(frozen=True)
class TrendResult:
    """Best-fitting trend family for a series and its R² per family."""

    has_trend: bool
    family: Optional[str]
    r_squared: float
    per_family: Dict[str, float]


def smoothness(y: Sequence[float]) -> float:
    """Lag-1 autocorrelation clipped to [0, 1].

    A smooth curve (seasonal delays by hour, Figure 1(c)) has strongly
    positive lag-1 autocorrelation; white noise (delays by date, Figure
    1(d)) sits near zero.  This is the "smooth" trend family's score.
    """
    y = np.asarray(y, dtype=np.float64)
    y = y[np.isfinite(y)]
    if len(y) < 4:
        return 0.0
    deviations, denominator = centred(y)
    if denominator <= 1e-12:
        return 1.0  # constant series: perfectly smooth
    lag1 = float((deviations[:-1] * deviations[1:]).sum()) / denominator
    return max(0.0, min(1.0, lag1))


def _monotone_scores(y: np.ndarray, families: Sequence[str]) -> Dict[str, float]:
    """R² of each requested monotone family over a finite series (n ≥ 3)."""
    scores: Dict[str, float] = {}
    t = np.arange(1, len(y) + 1, dtype=np.float64)
    t_side = centred(t)
    log_t_side = centred(np.log(t))
    y_side = centred(y)
    if "linear" in families:
        scores["linear"] = r_squared_centred(*t_side, *y_side)
    if "log" in families:
        scores["log"] = r_squared_centred(*log_t_side, *y_side)
    if ("exponential" in families or "power" in families) and (y > 0).all():
        log_y_side = centred(np.log(y))
        if "exponential" in families:
            scores["exponential"] = r_squared_centred(*t_side, *log_y_side)
        if "power" in families:
            scores["power"] = r_squared_centred(*log_t_side, *log_y_side)
    return scores


def fit_trend(
    y: Sequence[float],
    families: Sequence[str] = TREND_FAMILIES,
    r2_threshold: float = DEFAULT_R2_THRESHOLD,
) -> TrendResult:
    """Fit each trend family to the series and pick the best.

    The independent variable is the 1-based point index, matching a line
    chart whose x-axis is already ordered.
    """
    y = np.asarray(y, dtype=np.float64)
    y = y[np.isfinite(y)]
    if len(y) < 3:
        return TrendResult(False, None, 0.0, {})
    scores = _monotone_scores(y, families)
    if "smooth" in families:
        scores["smooth"] = smoothness(y)

    if not scores:
        return TrendResult(False, None, 0.0, {})
    best = max(scores, key=scores.get)
    best_r2 = scores[best]
    return TrendResult(best_r2 >= r2_threshold, best, best_r2, scores)


def trend(y: Sequence[float], r2_threshold: float = DEFAULT_R2_THRESHOLD) -> float:
    """Trend(Y) per Eq. (4): 1.0 when Y follows a distribution, else 0.0."""
    return 1.0 if fit_trend(y, r2_threshold=r2_threshold).has_trend else 0.0
