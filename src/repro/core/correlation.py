"""Column correlation c(X, Y) — feature (6) of Section III.

The paper considers *linear, polynomial, power, and log* correlations and
takes the maximum of the four as c(X, Y) in [-1, 1].  Each family is
evaluated as the absolute Pearson correlation of a transformed pair:

* linear:       corr(x, y)
* polynomial:   corr(x^2, y) — degree-2 proxy, plus quadratic-fit R
* power:        corr(log x, log y)   (requires positive x and y)
* log:          corr(log x, y)       (requires positive x)

Every family is one Pearson correlation, and Pearson needs only the
centred second moments: n, ``Σdx²``, ``Σdy²`` and ``Σdx·dy`` with
``d = v − v̄``.  :func:`centred` computes one side of them exactly as
``np.var`` does (same mean, same pairwise summation), so
:func:`pearson_centred` reproduces the ``std``/``mean`` formula to the
last bit while each side is centred once: the y side serves the
linear, polynomial and (over all-positive x) log families together.
The trend fits of Eq. 4 (:mod:`repro.core.trend`) use the same two
helpers, since the R² of ``y ~ a·t + b`` is ``pearson(t, y)²``.
Centring before summing follows Chan, Golub and LeVeque (1979): raw
power sums lose ~9 digits on epoch-second values (~1.6e9).

The returned value keeps the sign of the winning family's correlation so
"larger is higher correlation" holds as in the paper, while rules that
only need strength use :func:`correlation_strength`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "CorrelationResult",
    "pearson",
    "centred",
    "pearson_centred",
    "r_squared_centred",
    "correlation",
    "correlation_strength",
    "CORRELATION_FAMILIES",
]

CORRELATION_FAMILIES = ("linear", "polynomial", "power", "log")

# ``ndarray.sum()`` is this reduction behind a Python-level wrapper; the
# kernel calls it directly (same pairwise summation, same bits).
_sum = np.add.reduce


def centred(values: np.ndarray) -> Tuple[np.ndarray, float]:
    """One side of the centred moments: ``(v − v̄, Σ(v − v̄)²)``.

    The expressions are ``np.var``'s own, so ``Σ/n`` equals
    ``np.var(values)`` bit for bit and every existing guard on a
    variance or standard deviation keeps its exact branch.
    """
    deviations = values - _sum(values) / len(values)
    return deviations, float(_sum(deviations * deviations))


def pearson_centred(
    dx: np.ndarray, sxx: float, dy: np.ndarray, syy: float
) -> float:
    """Pearson correlation of two centred sides of equal length ≥ 1.

    0.0 when either standard deviation is at most 1e-12; clamped to
    [-1, 1].  Bit-identical to :func:`pearson` on the raw arrays.
    """
    n = len(dx)
    x_std = math.sqrt(sxx / n)
    y_std = math.sqrt(syy / n)
    if x_std <= 1e-12 or y_std <= 1e-12:
        return 0.0
    value = float(_sum(dx * dy)) / n / (x_std * y_std)
    return max(-1.0, min(1.0, value))


def r_squared_centred(
    dt: np.ndarray, stt: float, dy: np.ndarray, syy: float
) -> float:
    """R² of the OLS line ``y ~ a·t + b`` from centred sides.

    Equal to ``pearson(t, y)²`` (``Σdt·dy² / (Σdt²·Σdy²)``), clamped
    to [0, 1].  Guards: fewer than three points → 0; ``var(y) ≤ 1e-12``
    → 1.0 (a constant series trivially follows a flat line);
    ``var(t) ≤ 1e-12`` → 0.
    """
    n = len(dt)
    if n < 3:
        return 0.0
    if syy / n <= 1e-12:
        return 1.0
    if stt / n <= 1e-12:
        return 0.0
    sty = float(_sum(dt * dy))
    return min(1.0, max(0.0, (sty / stt) * (sty / syy)))


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Plain Pearson correlation; 0.0 when either side is constant."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y) or len(x) < 2:
        return 0.0
    return pearson_centred(*centred(x), *centred(y))


@dataclass(frozen=True)
class CorrelationResult:
    """The winning correlation family and all per-family scores."""

    value: float
    family: str
    per_family: Dict[str, float]

    @property
    def strength(self) -> float:
        """Magnitude of the strongest correlation, in [0, 1]."""
        return abs(self.value)


def _family_scores(
    x: np.ndarray, y: np.ndarray, families: Sequence[str]
) -> Dict[str, float]:
    """Per-family Pearson scores of a finite pair, each side centred once."""
    scores: Dict[str, float] = {}
    dx, sxx = centred(x)
    y_side = centred(y)
    if "linear" in families:
        scores["linear"] = pearson_centred(dx, sxx, *y_side)
    if "polynomial" in families:
        # Degree-2 proxy: correlation against the centred square captures
        # symmetric parabolic relationships that plain Pearson misses.
        scores["polynomial"] = pearson_centred(*centred(dx**2), *y_side)
    # The log families use the positive part of the pair; when that is
    # the whole pair (the common case) the centred sides are shared.
    positive_x = x > 0
    enough = max(3, len(x) // 2)
    log_x_side = None
    if ("log" in families or "power" in families) and positive_x.all():
        log_x_side = centred(np.log(x))
    if "log" in families and positive_x.sum() >= enough:
        if log_x_side is not None:
            scores["log"] = pearson_centred(*log_x_side, *y_side)
        else:
            scores["log"] = pearson(np.log(x[positive_x]), y[positive_x])
    if "power" in families:
        positive_both = positive_x & (y > 0)
        if positive_both.sum() >= enough:
            if log_x_side is not None and positive_both.all():
                scores["power"] = pearson_centred(
                    *log_x_side, *centred(np.log(y))
                )
            else:
                scores["power"] = pearson(
                    np.log(x[positive_both]), np.log(y[positive_both])
                )
    return scores


def correlation(
    x: Sequence[float],
    y: Sequence[float],
    families: Sequence[str] = CORRELATION_FAMILIES,
) -> CorrelationResult:
    """Compute c(X, Y): the strongest correlation across families.

    Non-finite values are dropped pairwise.  Fewer than three valid pairs
    yields zero correlation.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y):
        shorter = min(len(x), len(y))
        x, y = x[:shorter], y[:shorter]
    finite = np.isfinite(x) & np.isfinite(y)
    x, y = x[finite], y[finite]
    if len(x) < 3:
        return CorrelationResult(0.0, "linear", {f: 0.0 for f in families})

    scores = _family_scores(x, y, families)
    if not scores:
        return CorrelationResult(0.0, "linear", {})
    best_family = max(scores, key=lambda f: abs(scores[f]))
    return CorrelationResult(scores[best_family], best_family, scores)


def correlation_strength(
    x: Sequence[float],
    y: Sequence[float],
    families: Sequence[str] = CORRELATION_FAMILIES,
) -> float:
    """|c(X, Y)| in [0, 1]; convenience for rules and M(v) of scatter."""
    return correlation(x, y, families).strength
