"""CART decision trees, implemented from scratch on numpy.

The paper uses a decision tree [Quinlan 1986] as the winning binary
classifier for visualization recognition, and LambdaMART's weak learners
are regression trees — so both a classifier and a regressor live here.

Split search is the standard sort-and-scan: for each feature, candidate
thresholds are midpoints between consecutive distinct sorted values, and
prefix sums over the sorted order give every split's impurity in O(n)
after the O(n log n) sort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ModelError, NotFittedError

__all__ = ["TreeNode", "DecisionTreeClassifier", "DecisionTreeRegressor"]


@dataclass
class TreeNode:
    """A node of a fitted tree.

    Internal nodes route ``x[feature] <= threshold`` left, else right.
    Leaves carry ``value``: class probabilities for classification, the
    mean target for regression.
    """

    feature: int = -1
    threshold: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    value: Optional[np.ndarray] = None
    n_samples: int = 0
    impurity: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def depth(self) -> int:
        """Height of the subtree rooted here (a single leaf has depth 0)."""
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def count_leaves(self) -> int:
        """Number of leaves in the subtree rooted here."""
        if self.is_leaf:
            return 1
        return self.left.count_leaves() + self.right.count_leaves()


def _validate_xy(X, y) -> Tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ModelError(f"X must be 2-D, got shape {X.shape}")
    if len(X) != len(y):
        raise ModelError(f"X has {len(X)} rows but y has {len(y)}")
    if len(X) == 0:
        raise ModelError("cannot fit on an empty dataset")
    return X, y


class _BaseTree:
    """Shared growth machinery for classifier and regressor trees."""

    def __init__(
        self,
        max_depth: int = 12,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Optional[int] = None,
        random_state: Optional[int] = None,
    ) -> None:
        if max_depth < 1:
            raise ModelError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_leaf < 1:
            raise ModelError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        self.max_depth = max_depth
        self.min_samples_split = max(2, min_samples_split)
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.root_: Optional[TreeNode] = None
        self.n_features_: int = 0

    # -- subclass hooks -------------------------------------------------
    def _leaf_value(self, target: np.ndarray, weights: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _node_impurity(self, target: np.ndarray, weights: np.ndarray) -> float:
        raise NotImplementedError

    def _best_split_for_feature(
        self, order: np.ndarray, values: np.ndarray, target: np.ndarray, weights: np.ndarray
    ) -> Tuple[float, float]:
        """Return (impurity decrease proxy, threshold) for one feature.

        Larger first element is better; ``-inf`` means no valid split.
        """
        raise NotImplementedError

    # -- growth ---------------------------------------------------------
    def _fit_tree(self, X: np.ndarray, target: np.ndarray, weights: np.ndarray) -> None:
        self.n_features_ = X.shape[1]
        self._rng = np.random.default_rng(self.random_state)
        indices = np.arange(len(X))
        self.root_ = self._grow(X, target, weights, indices, depth=0)

    def _grow(
        self,
        X: np.ndarray,
        target: np.ndarray,
        weights: np.ndarray,
        indices: np.ndarray,
        depth: int,
    ) -> TreeNode:
        node_target = target[indices]
        node_weights = weights[indices]
        impurity = self._node_impurity(node_target, node_weights)
        node = TreeNode(
            value=self._leaf_value(node_target, node_weights),
            n_samples=len(indices),
            impurity=impurity,
        )
        if (
            depth >= self.max_depth
            or len(indices) < self.min_samples_split
            or impurity <= 1e-12
        ):
            return node

        feature_ids = np.arange(self.n_features_)
        if self.max_features is not None and self.max_features < self.n_features_:
            feature_ids = self._rng.choice(
                self.n_features_, size=self.max_features, replace=False
            )

        best_gain, best_feature, best_threshold = -np.inf, -1, 0.0
        for feature in feature_ids:
            values = X[indices, feature]
            order = np.argsort(values, kind="stable")
            gain, threshold = self._best_split_for_feature(
                order, values, node_target, node_weights
            )
            if gain > best_gain:
                best_gain, best_feature, best_threshold = gain, int(feature), threshold

        if best_feature < 0 or not np.isfinite(best_gain):
            return node

        mask = X[indices, best_feature] <= best_threshold
        left_idx, right_idx = indices[mask], indices[~mask]
        if len(left_idx) < self.min_samples_leaf or len(right_idx) < self.min_samples_leaf:
            return node

        node.feature = best_feature
        node.threshold = best_threshold
        node.left = self._grow(X, target, weights, left_idx, depth + 1)
        node.right = self._grow(X, target, weights, right_idx, depth + 1)
        return node

    def _route(self, X: np.ndarray) -> List[Tuple[TreeNode, np.ndarray]]:
        """Each reached leaf with the indices of the rows landing in it.

        Routes whole row-index arrays down the tree, one mask per
        internal node: ``X[rows, f] <= threshold`` goes left, anything
        else (NaN included) right — the per-row rule, array at a time.
        """
        routed: List[Tuple[TreeNode, np.ndarray]] = []
        stack = [(self.root_, np.arange(len(X)))]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                routed.append((node, rows))
                continue
            go_left = X[rows, node.feature] <= node.threshold
            right = rows[~go_left]
            left = rows[go_left]
            if len(right):
                stack.append((node.right, right))
            if len(left):
                stack.append((node.left, left))
        return routed

    def _check_fitted(self) -> None:
        if self.root_ is None:
            raise NotFittedError(type(self).__name__)

    @property
    def depth_(self) -> int:
        self._check_fitted()
        return self.root_.depth()

    @property
    def n_leaves_(self) -> int:
        self._check_fitted()
        return self.root_.count_leaves()


class DecisionTreeClassifier(_BaseTree):
    """CART classifier with Gini impurity.

    Supports arbitrary hashable class labels, per-sample weights, and
    probability output.  This is the paper's recognition model (DT).
    """

    def fit(self, X, y, sample_weight=None) -> "DecisionTreeClassifier":
        """Grow the tree on (optionally weighted) labelled samples."""
        X, y = _validate_xy(X, y)
        self.classes_, encoded = np.unique(np.asarray(y), return_inverse=True)
        self._n_classes = len(self.classes_)
        weights = (
            np.ones(len(X))
            if sample_weight is None
            else np.asarray(sample_weight, dtype=np.float64)
        )
        self._fit_tree(X, encoded.astype(np.intp), weights)
        return self

    def _leaf_value(self, target: np.ndarray, weights: np.ndarray) -> np.ndarray:
        counts = np.bincount(target, weights=weights, minlength=self._n_classes)
        total = counts.sum()
        return counts / total if total > 0 else np.full(self._n_classes, 1.0 / self._n_classes)

    def _node_impurity(self, target: np.ndarray, weights: np.ndarray) -> float:
        counts = np.bincount(target, weights=weights, minlength=self._n_classes)
        total = counts.sum()
        if total <= 0:
            return 0.0
        p = counts / total
        return float(1.0 - (p * p).sum())

    def _best_split_for_feature(self, order, values, target, weights):
        sorted_vals = values[order]
        sorted_target = target[order]
        sorted_weights = weights[order]
        n = len(order)
        if n < 2 * self.min_samples_leaf:
            return -np.inf, 0.0

        # Weighted prefix class counts: cum[i, c] = weight of class c in
        # the first i+1 sorted samples.
        onehot = np.zeros((n, self._n_classes))
        onehot[np.arange(n), sorted_target] = sorted_weights
        cum = np.cumsum(onehot, axis=0)
        total = cum[-1]
        total_weight = total.sum()

        left = cum[:-1]
        right = total[None, :] - left
        left_weight = left.sum(axis=1)
        right_weight = total_weight - left_weight

        with np.errstate(invalid="ignore", divide="ignore"):
            gini_left = 1.0 - ((left / left_weight[:, None]) ** 2).sum(axis=1)
            gini_right = 1.0 - ((right / right_weight[:, None]) ** 2).sum(axis=1)
        weighted = (
            left_weight * np.nan_to_num(gini_left)
            + right_weight * np.nan_to_num(gini_right)
        ) / max(total_weight, 1e-12)

        positions = np.arange(1, n)
        valid = (
            (sorted_vals[1:] > sorted_vals[:-1] + 1e-12)
            & (positions >= self.min_samples_leaf)
            & (positions <= n - self.min_samples_leaf)
        )
        if not valid.any():
            return -np.inf, 0.0
        scores = np.where(valid, -weighted, -np.inf)
        best = int(np.argmax(scores))
        threshold = (sorted_vals[best] + sorted_vals[best + 1]) / 2.0
        return float(scores[best]), float(threshold)

    def predict_proba(self, X) -> np.ndarray:
        """Class-probability matrix of shape ``(n_samples, n_classes)``."""
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        probabilities = np.empty((len(X), self._n_classes))
        for leaf, rows in self._route(X):
            probabilities[rows] = leaf.value
        return probabilities

    def predict(self, X) -> np.ndarray:
        """Most probable class per sample."""
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]


class DecisionTreeRegressor(_BaseTree):
    """CART regressor with MSE criterion (the LambdaMART weak learner)."""

    def fit(self, X, y, sample_weight=None) -> "DecisionTreeRegressor":
        """Grow the tree minimising (weighted) squared error."""
        X, y = _validate_xy(X, y)
        target = np.asarray(y, dtype=np.float64)
        weights = (
            np.ones(len(X))
            if sample_weight is None
            else np.asarray(sample_weight, dtype=np.float64)
        )
        self._fit_tree(X, target, weights)
        return self

    def _leaf_value(self, target: np.ndarray, weights: np.ndarray) -> np.ndarray:
        total = weights.sum()
        mean = float((target * weights).sum() / total) if total > 0 else 0.0
        return np.asarray([mean])

    def _node_impurity(self, target: np.ndarray, weights: np.ndarray) -> float:
        total = weights.sum()
        if total <= 0:
            return 0.0
        mean = (target * weights).sum() / total
        return float((weights * (target - mean) ** 2).sum() / total)

    def _best_split_for_feature(self, order, values, target, weights):
        sorted_vals = values[order]
        sorted_target = target[order]
        sorted_weights = weights[order]
        n = len(order)
        if n < 2 * self.min_samples_leaf:
            return -np.inf, 0.0

        wsum = np.cumsum(sorted_weights)[:-1]
        wy = np.cumsum(sorted_weights * sorted_target)[:-1]
        total_w = sorted_weights.sum()
        total_wy = (sorted_weights * sorted_target).sum()
        right_w = total_w - wsum
        right_wy = total_wy - wy

        # Maximising between-group variance == minimising weighted MSE.
        with np.errstate(invalid="ignore", divide="ignore"):
            score = np.where(
                (wsum > 0) & (right_w > 0),
                wy**2 / np.maximum(wsum, 1e-12)
                + right_wy**2 / np.maximum(right_w, 1e-12),
                -np.inf,
            )

        positions = np.arange(1, n)
        valid = (
            (sorted_vals[1:] > sorted_vals[:-1] + 1e-12)
            & (positions >= self.min_samples_leaf)
            & (positions <= n - self.min_samples_leaf)
        )
        score = np.where(valid, score, -np.inf)
        if not np.isfinite(score).any():
            return -np.inf, 0.0
        best = int(np.argmax(score))
        threshold = (sorted_vals[best] + sorted_vals[best + 1]) / 2.0
        return float(score[best]), float(threshold)

    def predict(self, X) -> np.ndarray:
        """Predicted regression value per sample."""
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        values = np.empty(len(X))
        for leaf, rows in self._route(X):
            values[rows] = leaf.value[0]
        return values

    def apply(self, X) -> List[TreeNode]:
        """The leaf node each sample lands in (used by LambdaMART's
        leaf-value re-estimation)."""
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        leaves: List[Optional[TreeNode]] = [None] * len(X)
        for leaf, rows in self._route(X):
            for row in rows.tolist():
                leaves[row] = leaf
        return leaves
