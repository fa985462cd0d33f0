"""Unit tests for the from-scratch CART trees."""

import numpy as np
import pytest

from repro.errors import ModelError, NotFittedError
from repro.ml import DecisionTreeClassifier, DecisionTreeRegressor


class TestClassifier:
    def test_perfectly_separable(self):
        X = np.asarray([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = np.asarray([0, 0, 0, 1, 1, 1])
        model = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert list(model.predict(X)) == list(y)
        assert model.depth_ == 1

    def test_xor_needs_depth_two(self):
        X = np.asarray([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.asarray([0, 1, 1, 0])
        shallow = DecisionTreeClassifier(max_depth=1).fit(X, y)
        deep = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert (shallow.predict(X) == y).mean() < 1.0
        assert (deep.predict(X) == y).mean() == 1.0

    def test_string_labels(self):
        X = np.asarray([[0.0], [10.0]])
        model = DecisionTreeClassifier().fit(X, ["bad", "good"])
        assert list(model.predict([[1.0], [9.0]])) == ["bad", "good"]

    def test_predict_proba_sums_to_one(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 3))
        y = X[:, 0] > 0
        model = DecisionTreeClassifier(max_depth=4).fit(X, y)
        proba = model.predict_proba(X)
        assert proba.shape == (100, 2)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_sample_weights_shift_decision(self):
        X = np.asarray([[0.0], [1.0], [2.0], [3.0]])
        y = np.asarray([0, 0, 1, 1])
        # Give overwhelming weight to the class-1 points so a depth-0
        # tie-ish case classifies everything as 1 at the root leaf.
        model = DecisionTreeClassifier(max_depth=1, min_samples_split=100).fit(
            X, y, sample_weight=[1, 1, 100, 100]
        )
        assert model.predict([[0.0]])[0] == 1

    def test_min_samples_leaf_respected(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = (X[:, 0] > 8).astype(int)  # only one positive
        model = DecisionTreeClassifier(min_samples_leaf=3).fit(X, y)
        # No split can isolate the single positive with 3-sample leaves.
        assert model.root_.is_leaf or all(
            leaf_n >= 3
            for leaf_n in _leaf_sizes(model.root_)
        )

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict([[1.0]])

    def test_validation_errors(self):
        with pytest.raises(ModelError):
            DecisionTreeClassifier(max_depth=0)
        with pytest.raises(ModelError):
            DecisionTreeClassifier().fit(np.zeros((2, 2)), [0])
        with pytest.raises(ModelError):
            DecisionTreeClassifier().fit(np.zeros((0, 2)), [])


def _leaf_sizes(node):
    if node.is_leaf:
        return [node.n_samples]
    return _leaf_sizes(node.left) + _leaf_sizes(node.right)


class TestRegressor:
    def test_piecewise_constant_fit(self):
        X = np.asarray([[0.0], [1.0], [10.0], [11.0]])
        y = np.asarray([2.0, 2.0, 8.0, 8.0])
        model = DecisionTreeRegressor(max_depth=2).fit(X, y)
        assert model.predict([[0.5]])[0] == pytest.approx(2.0)
        assert model.predict([[10.5]])[0] == pytest.approx(8.0)

    def test_deeper_tree_reduces_training_error(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, size=(200, 2))
        y = np.sin(6 * X[:, 0]) + X[:, 1]
        errors = []
        for depth in (1, 3, 6):
            model = DecisionTreeRegressor(max_depth=depth).fit(X, y)
            errors.append(float(np.mean((model.predict(X) - y) ** 2)))
        assert errors[0] > errors[1] > errors[2]

    def test_apply_returns_leaves_with_values(self):
        X = np.asarray([[0.0], [10.0]])
        y = np.asarray([1.0, 5.0])
        model = DecisionTreeRegressor(max_depth=1).fit(X, y)
        leaves = model.apply(X)
        assert leaves[0].is_leaf and leaves[1].is_leaf
        assert leaves[0].value[0] == pytest.approx(1.0)

    def test_constant_target_single_leaf(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        model = DecisionTreeRegressor().fit(X, np.full(10, 3.0))
        assert model.root_.is_leaf
        assert model.predict([[99.0]])[0] == pytest.approx(3.0)

    def test_count_leaves(self):
        X = np.arange(8, dtype=float).reshape(-1, 1)
        y = (X[:, 0] > 3).astype(float)
        model = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert model.n_leaves_ == 2


def _per_row_leaf(tree, row):
    """The row-at-a-time walk the array router replaced."""
    node = tree.root_
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node


class TestArrayRouter:
    """Routing row-index arrays lands every row where the per-row walk
    does, NaN rows (which go right) included."""

    @staticmethod
    def _data(seed, n=160, d=4):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        X[rng.uniform(size=X.shape) < 0.08] = np.nan
        return rng, X

    @pytest.mark.parametrize("seed", range(6))
    def test_classifier_leaves_and_outputs(self, seed):
        rng, X = self._data(seed)
        y = (np.nan_to_num(X[:, 0]) + rng.normal(0, 0.5, len(X)) > 0).astype(int)
        train = np.nan_to_num(X, nan=0.0)
        model = DecisionTreeClassifier(max_depth=6, random_state=seed).fit(train, y)
        expected = np.vstack([_per_row_leaf(model, row).value for row in X])
        assert np.array_equal(model.predict_proba(X), expected)
        assert list(model.predict(X)) == list(
            model.classes_[np.argmax(expected, axis=1)]
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_regressor_leaves_and_outputs(self, seed):
        rng, X = self._data(seed)
        y = np.sin(np.nan_to_num(X[:, 1])) + rng.normal(0, 0.1, len(X))
        model = DecisionTreeRegressor(max_depth=5).fit(np.nan_to_num(X), y)
        leaves = model.apply(X)
        expected = [_per_row_leaf(model, row) for row in X]
        assert all(a is b for a, b in zip(leaves, expected))
        assert len(leaves) == len(X)
        assert np.array_equal(
            model.predict(X), np.asarray([leaf.value[0] for leaf in expected])
        )

    def test_lambdamart_scores_are_the_in_order_tree_sums(self):
        from repro.ml.lambdamart import LambdaMART, RankingDataset

        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 3))
        relevance = rng.integers(0, 3, size=60).astype(float)
        groups = np.repeat(np.arange(6), 10)
        model = LambdaMART(n_estimators=5, max_depth=3).fit(
            RankingDataset(X, relevance, groups)
        )
        # Training through the per-row walk grows the very same model.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                DecisionTreeRegressor, "apply",
                lambda tree, rows: [_per_row_leaf(tree, r) for r in rows],
            )
            reference = LambdaMART(n_estimators=5, max_depth=3).fit(
                RankingDataset(X, relevance, groups)
            )
        assert np.array_equal(model.predict(X), reference.predict(X))
        X[::7, 1] = np.nan
        expected = np.zeros(len(X))
        for tree in model.trees_:
            expected += model.learning_rate * np.asarray(
                [_per_row_leaf(tree, row).value[0] for row in X]
            )
        assert np.array_equal(model.predict(X), expected)

    def test_empty_input(self):
        model = DecisionTreeRegressor().fit([[0.0], [1.0]], [0.0, 1.0])
        assert model.predict(np.zeros((0, 1))).shape == (0,)
        assert model.apply(np.zeros((0, 1))) == []
