"""The centred-moments kernel behind c(X, Y), Eq. 4's trend fits and F.

The differential tests hold the kernel against test-local copies of the
``np.var``/``np.cov``/``std`` formulas it replaced: Pearson and the four
correlation families must match them bit for bit, and every trend R²
must match within 1e-12 and take the same guard branch.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import enumeration as enumeration_module
from repro.core import partial_order
from repro.core.correlation import (
    centred,
    correlation,
    pearson,
    pearson_centred,
    r_squared_centred,
)
from repro.core.enumeration import EnumerationContext, enumerate_candidates
from repro.core.features import series_stats
from repro.core.partial_order import matching_quality_raw
from repro.core.selection import _MatchingMemo
from repro.core.trend import EXTENDED_TREND_FAMILIES, fit_trend
from repro.dataset.stats import entropy
from repro.language.ast import ChartType


# ----------------------------------------------------------------------
# Test-local copies of the formulas the kernel replaced
# ----------------------------------------------------------------------
def _reference_r2_branch(t: np.ndarray, y: np.ndarray):
    """(guard branch, R²) of the per-family OLS fit the kernel replaced."""
    if len(t) < 3:
        return "short", 0.0
    y_var = np.var(y)
    if y_var <= 1e-12:
        return "constant_y", 1.0
    t_var = np.var(t)
    if t_var <= 1e-12:
        return "constant_t", 0.0
    slope = np.cov(t, y, bias=True)[0, 1] / t_var
    intercept = y.mean() - slope * t.mean()
    residual = y - (slope * t + intercept)
    return "fit", float(max(0.0, 1.0 - np.var(residual) / y_var))


def _kernel_r2_branch(t: np.ndarray, y: np.ndarray):
    if len(t) == 0:
        return "short", 0.0
    dt, stt = centred(t)
    dy, syy = centred(y)
    n = len(t)
    if n < 3:
        branch = "short"
    elif syy / n <= 1e-12:
        branch = "constant_y"
    elif stt / n <= 1e-12:
        branch = "constant_t"
    else:
        branch = "fit"
    return branch, r_squared_centred(dt, stt, dy, syy)


def _reference_pearson(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y) or len(x) < 2:
        return 0.0
    x_std = x.std()
    y_std = y.std()
    if x_std <= 1e-12 or y_std <= 1e-12:
        return 0.0
    value = float(np.mean((x - x.mean()) * (y - y.mean())) / (x_std * y_std))
    return max(-1.0, min(1.0, value))


def _reference_family_scores(x, y):
    scores = {"linear": _reference_pearson(x, y)}
    centred_x = x - x.mean()
    scores["polynomial"] = _reference_pearson(centred_x**2, y)
    positive_x = x > 0
    if positive_x.sum() >= max(3, len(x) // 2):
        scores["log"] = _reference_pearson(np.log(x[positive_x]), y[positive_x])
    positive_both = positive_x & (y > 0)
    if positive_both.sum() >= max(3, len(x) // 2):
        scores["power"] = _reference_pearson(
            np.log(x[positive_both]), np.log(y[positive_both])
        )
    return scores


def _family_axes(y):
    """The finite series' (t-axis, y-axis) pair of every family it admits."""
    y = np.asarray(y, dtype=np.float64)
    y = y[np.isfinite(y)]
    if len(y) < 3:
        return {}
    t = np.arange(1, len(y) + 1, dtype=np.float64)
    axes = {"linear": (t, y), "log": (np.log(t), y)}
    if (y > 0).all():
        axes["exponential"] = (t, np.log(y))
        axes["power"] = (np.log(t), np.log(y))
    return axes


def _exact_r2(t, y) -> float:
    """R² of the OLS line in exact rational arithmetic."""
    ts = [Fraction(v) for v in t]
    ys = [Fraction(v) for v in y]
    n = len(ts)
    mt, my = sum(ts) / n, sum(ys) / n
    stt = sum((a - mt) ** 2 for a in ts)
    syy = sum((b - my) ** 2 for b in ys)
    sty = sum((a - mt) * (b - my) for a, b in zip(ts, ys))
    return float(sty * sty / (stt * syy))


moderate = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
series = st.lists(moderate, min_size=0, max_size=40)
# Few distinct values: constant series, ties and n < 3 come up often.
coarse = st.lists(st.sampled_from([-2.0, 0.0, 1.0, 1.0, 3.5]), max_size=12)
# Wide magnitudes (huge offsets included) plus non-finite values, kept
# small enough that no sum of squares overflows.
wide = st.one_of(
    st.floats(min_value=-1e150, max_value=1e150),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
any_float = st.floats(allow_nan=True, allow_infinity=True, width=64)


def _resolved(v: np.ndarray) -> bool:
    """Whether the spread spans at least 1e7 ulps of the largest value.

    Below that the mean itself cannot be rounded finely enough for any
    two-pass formula (the replaced one included) to resolve the spread,
    and neither result means anything.
    """
    return bool(np.std(v) >= 1e7 * np.spacing(np.max(np.abs(v))))


def _assert_same_fit(t, y):
    """Same guard branch as the OLS fit, and the same R² within 1e-12 —
    or, where cancellation makes the OLS residual formula drift further
    (large offsets), within 1e-12 of the exact R² and closer to it."""
    ref_branch, ref = _reference_r2_branch(t, y)
    branch, value = _kernel_r2_branch(t, y)
    assert branch == ref_branch
    assert 0.0 <= value <= 1.0
    if branch == "fit" and _resolved(y) and abs(value - ref) > 1e-12:
        exact = _exact_r2(t, y)
        assert abs(value - exact) < abs(ref - exact)
        assert value == pytest.approx(exact, abs=1e-12)


# ----------------------------------------------------------------------
# Differentials
# ----------------------------------------------------------------------
class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(series, coarse))
    def test_r_squared_matches_the_ols_fit(self, values):
        y = np.asarray(values, dtype=np.float64)
        t = np.arange(1, len(y) + 1, dtype=np.float64)
        for axis in (t, np.log(t)):
            _assert_same_fit(axis, y)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(series, coarse, st.lists(wide, max_size=12)))
    def test_fit_trend_matches_per_family(self, values):
        axes = _family_axes(values)
        result = fit_trend(values, r2_threshold=0.0)
        assert set(result.per_family) == set(axes)
        for family, (t, y) in axes.items():
            _assert_same_fit(t, y)
            assert result.per_family[family] == _kernel_r2_branch(t, y)[1]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(any_float, any_float), max_size=30)
        | st.lists(st.tuples(moderate, moderate), max_size=30)
    )
    def test_pearson_is_bit_identical(self, pairs):
        x = [a for a, _ in pairs]
        y = [b for _, b in pairs]
        with np.errstate(all="ignore"):
            expected = _reference_pearson(x, y)
            got = pearson(x, y)
        assert got == expected or (math.isnan(got) and math.isnan(expected))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(moderate, moderate), min_size=3, max_size=30))
    def test_correlation_families_are_bit_identical(self, pairs):
        x = np.asarray([a for a, _ in pairs])
        y = np.asarray([b for _, b in pairs])
        with np.errstate(all="ignore"):
            assert correlation(x, y).per_family == _reference_family_scores(x, y)

    def test_non_positive_values_skip_the_log_families(self):
        y = [3.0, -1.0, 2.0, 5.0, 0.0]
        assert set(fit_trend(y, r2_threshold=0.0).per_family) == {"linear", "log"}
        x = np.asarray([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0])
        scores = correlation(x, x**2).per_family
        assert "log" not in scores and "power" not in scores

    def test_non_finite_values_are_filtered(self):
        y = [1.0, np.nan, 2.0, np.inf, 3.0, 4.0]
        assert fit_trend(y).per_family == fit_trend([1.0, 2.0, 3.0, 4.0]).per_family
        x = [1.0, 2.0, np.nan, 4.0, 5.0]
        assert correlation(x, [2.0, 4.0, 6.0, 8.0, 10.0]).value == 1.0


class TestGuards:
    def test_fewer_than_three_points(self):
        t = np.asarray([1.0, 2.0])
        assert r_squared_centred(*centred(t), *centred(np.asarray([1.0, 5.0]))) == 0.0
        assert fit_trend([1.0, 2.0]).r_squared == 0.0

    def test_constant_series_follows_a_flat_line(self):
        t = np.arange(1.0, 6.0)
        assert r_squared_centred(*centred(t), *centred(np.full(5, 7.0))) == 1.0

    def test_constant_axis_has_no_fit(self):
        y = np.asarray([1.0, 4.0, 2.0])
        assert r_squared_centred(*centred(np.ones(3)), *centred(y)) == 0.0

    def test_constant_side_has_no_correlation(self):
        x = np.ones(4)
        y = np.asarray([1.0, 2.0, 3.0, 5.0])
        assert pearson_centred(*centred(x), *centred(y)) == 0.0
        assert pearson([1.0], [2.0]) == 0.0

    def test_variance_is_numpys_to_the_last_bit(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 7, 8, 9, 31, 200):
            values = rng.normal(1e3, 17.0, size=n)
            _, ss = centred(values)
            assert ss / n == np.var(values)


class TestLargeOffset:
    """Epoch-second scale values (~1.6e9): centring keeps every digit."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-500.0, 500.0), min_size=3, max_size=25))
    def test_r_squared_stays_exact(self, noise):
        y = 1.6e9 + np.asarray(noise)
        t = np.arange(1, len(y) + 1, dtype=np.float64)
        branch, value = _kernel_r2_branch(t, y)
        if branch == "fit" and _resolved(y):
            assert value == pytest.approx(_exact_r2(t, y), abs=1e-12)

    def test_offset_trend_fits_are_exact(self):
        rng = np.random.default_rng(11)
        y = 1.6e9 + rng.normal(0.0, 50.0, size=12) + 10.0 * np.arange(12)
        t = np.arange(1, 13, dtype=np.float64)
        scores = fit_trend(y, families=("linear", "log")).per_family
        assert scores["linear"] == pytest.approx(_exact_r2(t, y), abs=1e-12)
        assert scores["log"] == pytest.approx(_exact_r2(np.log(t), y), abs=1e-12)

    def test_offset_correlation_is_exact(self):
        rng = np.random.default_rng(5)
        x = 1.6e9 + np.arange(20.0) * 60.0
        y = 3.0 * np.arange(20.0) + rng.normal(0.0, 4.0, size=20)
        t = x - 1.6e9
        assert abs(pearson(x, y) - pearson(t, y)) < 1e-12


# ----------------------------------------------------------------------
# F: entropy regression and per-variant statistics
# ----------------------------------------------------------------------
class TestSeriesStats:
    def test_underflowing_share_gives_a_finite_entropy(self):
        y_entropy, _, _ = series_stats([5e-324, 1.0, 2.0])
        assert math.isfinite(y_entropy)
        assert y_entropy == pytest.approx(
            entropy(np.asarray([1.0, 2.0])) / math.log(3)
        )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(moderate, min_size=1, max_size=30))
    def test_shape_statistics_are_bit_identical(self, values):
        # The entropy and spread formulas the kernel-based ones replaced
        # (which agree wherever no share underflows).
        assume(not any(0 < abs(v) < 1e-300 for v in values))
        y = np.asarray(values, dtype=np.float64)
        magnitude = np.abs(y)
        total = magnitude.sum()
        if total > 0 and len(y) > 1:
            p = magnitude[magnitude > 0] / total
            expected_entropy = float(-(p * np.log(p)).sum() / np.log(len(y)))
        else:
            expected_entropy = 0.0
        mean_abs = magnitude.mean()
        spread = float(y.std() / mean_abs) if mean_abs > 0 else 0.0
        assert series_stats(values)[:2] == (expected_entropy, min(spread, 5.0))

    def test_entropy_matches_the_pie_entropy(self):
        y = [4.0, 1.0, 3.0, 2.0]
        assert series_stats(y)[0] == pytest.approx(entropy(np.asarray(y)) / math.log(4))


def _spy(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _variant(node):
    q = node.query
    return (q.x, q.y, q.transform, q.aggregate)


class TestPerVariantStatistics:
    def test_shape_stats_once_per_variant_trend_once_per_order(
        self, flights_table, monkeypatch
    ):
        shape_calls = _spy(monkeypatch, enumeration_module, "shape_stats")
        trend_calls = _spy(monkeypatch, enumeration_module, "trend_r2")
        nodes = enumerate_candidates(flights_table, "exhaustive")
        variants = {_variant(n) for n in nodes}
        orders = {_variant(n) + (n.query.order,) for n in nodes}
        assert len(nodes) > len(orders) > len(variants)
        assert len(shape_calls) == len(variants)
        assert len(trend_calls) == len(orders)

    def test_features_equal_a_per_chart_measurement(self, flights_table):
        for node in enumerate_candidates(flights_table, "exhaustive"):
            data, features = node.data, node.features
            y_entropy, y_spread, trend_r2 = series_stats(data.y_values)
            assert features.trend_r2 == trend_r2
            assert features.y_entropy == pytest.approx(y_entropy, abs=1e-12)
            assert features.y_spread == pytest.approx(y_spread, abs=1e-12)
            assert features.distinct_tx == data.distinct_x
            assert features.distinct_ty == data.distinct_y
            assert features.y_min_transformed == data.y_min

    def test_statistics_do_not_depend_on_which_chart_asks_first(
        self, flights_table
    ):
        forward = EnumerationContext(flights_table)
        nodes = enumerate_candidates(flights_table, "exhaustive", context=forward)
        backward = EnumerationContext(flights_table)
        for node in reversed(nodes):
            variant = backward._base_data(*_variant(node))
            rebuilt = backward.build_node(node.query, variant)
            assert rebuilt.features.y_entropy == node.features.y_entropy
            assert rebuilt.features.trend_r2 == node.features.trend_r2


# ----------------------------------------------------------------------
# M(v) reads F
# ----------------------------------------------------------------------
class TestMatchingQualityReadsF:
    def test_no_refit_under_the_default_families(self, flights_table, monkeypatch):
        nodes = enumerate_candidates(flights_table, "exhaustive")
        fits = _spy(monkeypatch, partial_order, "fit_trend")
        values = [matching_quality_raw(n) for n in nodes]
        assert fits == []
        lines = [
            (n, v) for n, v in zip(nodes, values) if n.chart is ChartType.LINE
        ]
        assert lines
        for node, value in lines:
            refit = fit_trend(node.data.y_values).has_trend
            assert value == (1.0 if refit and node.data.distinct_x > 1 else 0.0)

    def test_extended_families_still_refit(self, flights_table, monkeypatch):
        nodes = enumerate_candidates(flights_table, "rules")
        fits = _spy(monkeypatch, partial_order, "fit_trend")
        for node in nodes:
            matching_quality_raw(node, trend_families=EXTENDED_TREND_FAMILIES)
        assert len(fits) == sum(
            n.chart is ChartType.LINE and n.data.distinct_x > 1 for n in nodes
        )

    def test_memo_guards_only_pies_on_the_series(self, flights_table):
        import dataclasses

        nodes = enumerate_candidates(flights_table, "exhaustive")
        memo = _MatchingMemo()
        for node in nodes:
            memo(node)
        computed = memo.computed
        for node in nodes:
            reversed_data = dataclasses.replace(
                node.data, y_values=tuple(reversed(node.data.y_values))
            )
            moved = dataclasses.replace(node, data=reversed_data)
            memo(moved)
        pies = sum(
            n.chart is ChartType.PIE
            and tuple(reversed(n.data.y_values)) != n.data.y_values
            for n in nodes
        )
        assert memo.computed - computed == pies

