"""Integration tests for end-to-end selection, progressive top-k, hybrid."""

import numpy as np
import pytest

from repro.core import (
    HybridRanker,
    LearningToRankRanker,
    PartialOrderRanker,
    enumerate_rule_based,
    progressive_top_k,
    select_top_k,
)
from repro.core.partial_order import matching_quality_raw
from repro.core.progressive import estimate_column_importance
from repro.errors import SelectionError


class TestSelectTopK:
    def test_returns_k_nodes_with_timings(self, flights_table):
        result = select_top_k(flights_table, k=5)
        assert len(result.nodes) == 5
        assert set(result.timings) == {"enumerate", "recognize", "rank"}
        assert result.total_seconds > 0
        assert abs(sum(result.phase_fraction(p) for p in result.timings) - 1.0) < 1e-9

    def test_order_is_full_permutation_of_valid(self, flights_table):
        result = select_top_k(flights_table, k=3)
        assert sorted(result.order) == list(range(result.valid))

    def test_heuristic_filter_drops_zero_matching_quality(self, flights_table):
        result = select_top_k(flights_table, k=10)
        for node in result.nodes:
            assert matching_quality_raw(node) > 0

    def test_matching_quality_computed_once_per_candidate(
        self, flights_table, monkeypatch
    ):
        # The recognize phase's M(v) values feed the rank phase's
        # factor scoring; neither phase recomputes what the other had.
        import repro.core.partial_order as partial_order
        import repro.core.selection as selection

        calls = []

        def counting(node, *args, **kwargs):
            calls.append(id(node))
            return matching_quality_raw(node, *args, **kwargs)

        monkeypatch.setattr(selection, "matching_quality_raw", counting)
        monkeypatch.setattr(partial_order, "matching_quality_raw", counting)
        result = select_top_k(flights_table, k=5)
        assert result.valid < result.candidates  # both phases did work
        assert len(calls) == result.candidates
        assert len(set(calls)) == len(calls)

    def test_exhaustive_mode_has_more_candidates(self, flights_table):
        rules = select_top_k(flights_table, k=2, enumeration="rules")
        exhaustive = select_top_k(flights_table, k=2, enumeration="exhaustive")
        assert exhaustive.candidates > rules.candidates

    def test_k_zero(self, flights_table):
        assert select_top_k(flights_table, k=0).nodes == []

    def test_negative_k_rejected(self, flights_table):
        with pytest.raises(SelectionError):
            select_top_k(flights_table, k=-1)

    def test_ltr_mode_requires_model(self, flights_table):
        with pytest.raises(SelectionError):
            select_top_k(flights_table, ranker="learning_to_rank")

    def test_unknown_ranker(self, flights_table):
        with pytest.raises(SelectionError):
            select_top_k(flights_table, ranker="bogus")

    @pytest.mark.parametrize("strategy", ["naive", "quicksort", "range_tree"])
    def test_graph_strategies_give_same_top_k(self, flights_table, strategy):
        reference = select_top_k(flights_table, k=5, graph_strategy="naive")
        other = select_top_k(flights_table, k=5, graph_strategy=strategy)
        assert [n.key() for n in other.nodes] == [n.key() for n in reference.nodes]


class TestPartialOrderRanker:
    def test_rank_is_permutation(self, flights_table):
        nodes = enumerate_rule_based(flights_table)
        order = PartialOrderRanker().rank(nodes)
        assert sorted(order) == list(range(len(nodes)))

    def test_empty(self):
        assert PartialOrderRanker().rank([]) == []


class TestProgressive:
    def test_returns_k_nodes(self, flights_table):
        result = progressive_top_k(flights_table, k=5)
        assert len(result.nodes) == 5
        assert len(result.scores) == 5

    def test_scores_descending(self, flights_table):
        result = progressive_top_k(flights_table, k=8)
        assert result.scores == sorted(result.scores, reverse=True)

    def test_prunes_columns(self, flights_table):
        result = progressive_top_k(flights_table, k=2)
        assert result.columns_opened <= result.columns_total
        assert result.candidates_generated > 0

    def test_no_zero_quality_results(self, flights_table):
        result = progressive_top_k(flights_table, k=10)
        for node in result.nodes:
            assert matching_quality_raw(node) > 0

    def test_importance_estimate_sums_to_about_two(self, flights_table):
        # Each two-column chart contributes to two columns' counts, so
        # the shares sum to just under 2 (one-column charts add 1 each).
        importance = estimate_column_importance(flights_table)
        assert 1.0 <= sum(importance.values()) <= 2.0 + 1e-9

    def test_progressive_matches_full_composite_ranking(self, flights_table):
        """The tournament must emit the same top-k as scoring every
        rule-based candidate with the composite and sorting."""
        from repro.core.enumeration import EnumerationConfig, EnumerationContext
        from repro.core.progressive import _composite

        config = EnumerationConfig()
        importance = estimate_column_importance(flights_table, config)
        pair_sums = [
            importance[a] + importance[b]
            for a in flights_table.column_names
            for b in flights_table.column_names
        ]
        max_w = max(pair_sums)
        nodes = enumerate_rule_based(flights_table, config)
        eligible = [n for n in nodes if matching_quality_raw(n) > 0]
        expected = sorted(
            (_composite(n, importance, max_w) for n in eligible), reverse=True
        )[:6]
        result = progressive_top_k(flights_table, k=6, config=config)
        assert result.scores == pytest.approx(expected)


class TestHybridRanker:
    @pytest.fixture()
    def trained(self, flights_table):
        nodes = enumerate_rule_based(flights_table)
        # Synthetic relevance: the composite expert score, quantised.
        scorer_rel = [min(4, int(4 * matching_quality_raw(n))) for n in nodes]
        ltr = LearningToRankRanker(n_estimators=10).fit([(nodes, scorer_rel)])
        return nodes, scorer_rel, ltr

    def test_rank_is_permutation(self, trained):
        nodes, _, ltr = trained
        hybrid = HybridRanker(ltr)
        assert sorted(hybrid.rank(nodes)) == list(range(len(nodes)))

    def test_alpha_zero_equals_ltr(self, trained):
        nodes, _, ltr = trained
        hybrid = HybridRanker(ltr, alpha=0.0)
        assert hybrid.rank(nodes) == ltr.rank(nodes)

    def test_fit_alpha_returns_grid_value(self, trained):
        nodes, rel, ltr = trained
        hybrid = HybridRanker(ltr)
        alpha = hybrid.fit_alpha([(nodes, rel)], grid=(0.0, 1.0, 2.0))
        assert alpha in (0.0, 1.0, 2.0)
        assert hybrid.alpha == alpha

    def test_fit_alpha_empty_rejected(self, trained):
        _, _, ltr = trained
        with pytest.raises(Exception):
            HybridRanker(ltr).fit_alpha([])
