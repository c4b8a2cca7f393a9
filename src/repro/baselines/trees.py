"""One regression tree on per-sample gradients and hessians (numpy).

Substrate for the supervised baselines of Table III (AdaBoost, GBDT, RF,
XGBoost) — no sklearn/xgboost exists offline, so the tree learner is built
here. Every tree is grown from a gradient ``g`` and hessian ``h`` per
sample with one split search, the second-order structure gain of XGBoost
(Chen & Guestrin, KDD 2016) on the bracket

    B = G_L²/(H_L + λ) + G_R²/(H_R + λ) − G²/(H + λ),

and every leaf predicts −G/(H + λ). The CART criteria are the λ = 0 case:
with g = −w·y and h = w, B is half the weighted Gini reduction of a binary
y and equals the weighted MSE reduction of a real y, and the leaf value is
the weighted mean of y. Split search is exact over sorted feature values
with cumulative sums (vectorised per feature).
"""
from __future__ import annotations

import numpy as np

# A split is taken only if its bracket B exceeds this floor.
MIN_GAIN = 1e-12
# Each child of a split keeps at least this many samples.
MIN_CHILD_SAMPLES = 2


def _best_split(
    x: np.ndarray, g: np.ndarray, h: np.ndarray, lam: float
) -> tuple[float, float] | None:
    """Best threshold on one feature by the bracket B.

    Returns (B, threshold), or None if no split has B above ``MIN_GAIN``.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    # Candidate boundaries: positions where the value changes.
    diff = np.flatnonzero(xs[1:] != xs[:-1])
    if len(diff) == 0:
        return None
    cg, ch = np.cumsum(g[order]), np.cumsum(h[order])
    GL, HL = cg[diff], ch[diff]
    GR, HR = cg[-1] - GL, ch[-1] - HL
    # H_R is a difference of cumulative sums and can round to zero at λ = 0.
    gain = (
        GL**2 / (HL + lam) + GR**2 / np.maximum(HR + lam, 1e-12)
        - cg[-1] ** 2 / (ch[-1] + lam)
    )
    k = int(np.argmax(gain))
    if gain[k] <= MIN_GAIN:
        return None
    return float(gain[k]), (xs[diff[k]] + xs[diff[k] + 1]) / 2.0


class Tree:
    """Depth-limited tree on (g, h) with L2 λ on the leaf values.

    ``min_child_hessian`` is the least Σh a child may hold (XGBoost's
    ``min_child_weight``); ``max_features`` features, drawn per node from
    ``seed``, are searched (all when None).
    """

    def __init__(
        self,
        *,
        max_depth: int,
        lam: float = 0.0,
        min_child_hessian: float = 0.0,
        max_features: int | None = None,
        seed: int = 0,
    ) -> None:
        self.max_depth = max_depth
        self.lam = lam
        self.min_child_hessian = min_child_hessian
        self.max_features = max_features
        self._rng = np.random.default_rng(seed)

    def fit(self, X: np.ndarray, g: np.ndarray, h: np.ndarray):
        # One [feature, thresh, left, right, value] per node, root first;
        # a leaf has feature -1. Stored as one array per field.
        nodes: list[list] = []
        self._grow(np.asarray(X, float), np.asarray(g, float), np.asarray(h, float), 0, nodes)
        self.feature, self.thresh, self.left, self.right, self.value = map(np.array, zip(*nodes))
        return self

    def _grow(self, X, g, h, depth, nodes) -> int:
        k = len(nodes)
        node = [-1, 0.0, -1, -1, float(-g.sum() / (h.sum() + self.lam))]
        nodes.append(node)
        if (
            depth >= self.max_depth
            or len(g) < 2 * MIN_CHILD_SAMPLES
            or h.sum() < 2 * self.min_child_hessian
        ):
            return k
        n_feat = X.shape[1]
        feats = np.arange(n_feat)
        if self.max_features is not None and self.max_features < n_feat:
            feats = self._rng.choice(n_feat, size=self.max_features, replace=False)
        best = None
        for f in feats:
            res = _best_split(X[:, f], g, h, self.lam)
            if res and (best is None or res[0] > best[0]):
                best = (res[0], int(f), res[1])
        if best is None:
            return k
        _, f, t = best
        mask = X[:, f] <= t
        for side in (mask, ~mask):
            if side.sum() < MIN_CHILD_SAMPLES or h[side].sum() < self.min_child_hessian:
                return k
        node[0], node[1] = f, t
        node[2] = self._grow(X[mask], g[mask], h[mask], depth + 1, nodes)
        node[3] = self._grow(X[~mask], g[~mask], h[~mask], depth + 1, nodes)
        return k

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index of each row of ``X``."""
        X = np.asarray(X, dtype=float)
        rows = np.arange(len(X))
        node = np.zeros(len(X), dtype=int)
        for _ in range(self.max_depth):
            f = self.feature[node]
            inner = f >= 0
            if not inner.any():
                break
            go_left = X[rows, np.maximum(f, 0)] <= self.thresh[node]
            node = np.where(inner, np.where(go_left, self.left[node], self.right[node]), node)
        return node

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        return self.value[self.apply(X)]
