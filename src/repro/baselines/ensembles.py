"""Tree ensembles from scratch: RF, AdaBoost, GBDT, XGBoost-lite.

The four supervised baselines of Table III, re-implemented on the one
gradient/hessian tree in ``baselines.trees`` (no sklearn/xgboost offline).
Each passes the tree its own (g, h): RF and AdaBoost (−w·y, w) with λ = 0
(Gini trees), GBDT (−r, 1) (MSE trees on the residual r), XGBoost
(p − y, p(1 − p)) with λ = 1. All expose ``fit(X, y)`` / ``predict(X)``
for binary y.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.trees import Tree

# Shrinkage of each boosting stage (GBDT and XGBoost).
LEARNING_RATE = 0.1


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


class RandomForest:
    """Bagged Gini trees searching √d random features per split."""

    def __init__(self, *, n_estimators: int = 50, max_depth: int = 8, seed: int = 0) -> None:
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.seed = seed
        self.trees: list[Tree] = []

    def fit(self, X: np.ndarray, y: np.ndarray):
        X, y = np.asarray(X, float), np.asarray(y, float)
        rng = np.random.default_rng(self.seed)
        mf = max(1, int(np.sqrt(X.shape[1])))
        self.trees = []
        for i in range(self.n_estimators):
            idx = rng.integers(0, len(X), len(X))
            t = Tree(max_depth=self.max_depth, max_features=mf, seed=self.seed + i + 1)
            t.fit(X[idx], -y[idx], np.ones(len(idx)))
            self.trees.append(t)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        p = np.mean([t.predict_value(X) for t in self.trees], axis=0)
        return (p >= 0.5).astype(int)


class AdaBoost:
    """Discrete AdaBoost (SAMME) with shallow Gini trees."""

    def __init__(self, *, n_estimators: int = 80, max_depth: int = 2) -> None:
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.stages: list[tuple[float, Tree]] = []

    @staticmethod
    def _vote(t: Tree, X: np.ndarray) -> np.ndarray:
        return (t.predict_value(X) >= 0.5).astype(int)

    def fit(self, X: np.ndarray, y: np.ndarray):
        X, y = np.asarray(X, float), np.asarray(y, float)
        w = np.full(len(y), 1.0 / len(y))
        ypm = 2 * y - 1
        self.stages = []
        for _ in range(self.n_estimators):
            t = Tree(max_depth=self.max_depth).fit(X, -w * y, w)
            pred = self._vote(t, X)
            err = float(w[pred != y].sum() / w.sum())
            if err >= 0.5:
                break
            err = max(err, 1e-10)
            alpha = 0.5 * np.log((1 - err) / err)
            self.stages.append((alpha, t))
            w = w * np.exp(-alpha * ypm * (2 * pred - 1))
            w /= w.sum()
            if err < 1e-9:
                break
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self.stages:
            return np.ones(len(X), dtype=int)
        F = np.sum([a * (2 * self._vote(t, X) - 1) for a, t in self.stages], axis=0)
        return (F >= 0).astype(int)


class _Boosting:
    """Logistic-loss boosting: F = f0 + LEARNING_RATE · Σ tree(X)."""

    def __init__(self, *, n_estimators: int = 100, max_depth: int = 3) -> None:
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.f0 = 0.0
        self.trees: list[Tree] = []

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        F = np.full(len(X), self.f0)
        for t in self.trees:
            F = F + LEARNING_RATE * t.predict_value(X)
        return F

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) >= 0).astype(int)


class GradientBoosting(_Boosting):
    """GBDT: MSE trees fit to residuals, Newton-rescaled leaf values
    (Friedman's classic algorithm)."""

    def fit(self, X: np.ndarray, y: np.ndarray):
        X, y = np.asarray(X, float), np.asarray(y, float)
        p = np.clip(y.mean(), 1e-6, 1 - 1e-6)
        self.f0 = float(np.log(p / (1 - p)))
        F = np.full(len(y), self.f0)
        self.trees = []
        for _ in range(self.n_estimators):
            prob = _sigmoid(F)
            resid = y - prob
            t = Tree(max_depth=self.max_depth).fit(X, -resid, np.ones(len(y)))
            # Newton leaf rescale: replace each leaf mean(r) with
            # sum(r)/sum(p(1-p)) over the leaf.
            h = prob * (1 - prob)
            leaf = t.apply(X)
            for k in np.unique(leaf):
                m = leaf == k
                hs = h[m].sum()
                t.value[k] = float(resid[m].sum() / hs) if hs > 1e-12 else 0.0
            F = F + LEARNING_RATE * t.predict_value(X)
            self.trees.append(t)
        return self


class XGBoostLite(_Boosting):
    """Second-order boosting with L2-regularised Newton trees (the core of
    XGBoost: exact greedy split on structure gain, shrinkage, λ)."""

    def __init__(self, *, n_estimators: int = 100, max_depth: int = 3, lam: float = 1.0) -> None:
        super().__init__(n_estimators=n_estimators, max_depth=max_depth)
        self.lam = lam

    def fit(self, X: np.ndarray, y: np.ndarray):
        X, y = np.asarray(X, float), np.asarray(y, float)
        F = np.full(len(y), self.f0)
        self.trees = []
        for _ in range(self.n_estimators):
            p = _sigmoid(F)
            t = Tree(max_depth=self.max_depth, lam=self.lam, min_child_hessian=1.0)
            t.fit(X, p - y, np.maximum(p * (1 - p), 1e-12))
            F = F + LEARNING_RATE * t.predict_value(X)
            self.trees.append(t)
        return self
