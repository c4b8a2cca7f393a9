"""The one gradient/hessian tree and its split search."""
import numpy as np
import pytest

from repro.baselines.trees import MIN_CHILD_SAMPLES, Tree, _best_split


def _gini_split(x, y, w):
    """The split search as a weighted Gini tree sees it: (g, h) = (−w·y, w)."""
    return _best_split(x, -w * y, w, 0.0)


class TestSplitSearch:
    def test_perfect_split_found(self):
        x = np.array([0.0, 1.0, 2.0, 10.0, 11.0, 12.0])
        y = np.array([0, 0, 0, 1, 1, 1], dtype=float)
        gain, t = _gini_split(x, y, np.ones(6))
        assert 2.0 < t < 10.0
        assert gain > 0

    def test_constant_feature_no_split(self):
        x = np.ones(5)
        y = np.array([0, 1, 0, 1, 0], dtype=float)
        assert _gini_split(x, y, np.ones(5)) is None

    def test_pure_labels_no_split(self):
        x = np.arange(5.0)
        y = np.ones(5)
        assert _gini_split(x, y, np.ones(5)) is None

    def test_mse_split_on_regression(self):
        x = np.arange(6.0)
        y = np.array([0.0, 0.1, 0.0, 5.0, 5.1, 5.2])
        gain, t = _best_split(x, -y, np.ones(6), 0.0)
        assert 2.0 < t < 3.0

    def test_weights_shift_split(self):
        """Putting all weight on a subset makes the split fit that subset."""
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        w = np.array([1.0, 1.0, 1e-9, 1e-9])
        gain, t = _gini_split(x, y, w)
        assert 0.0 < t < 1.0

    def test_newton_gain_matches_formula(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        g = np.array([1.0, 1.0, -1.0, -1.0])
        h = np.ones(4)
        gain, t = _best_split(x, g, h, 1.0)
        # best split between 1 and 2: GL=2,HL=2,GR=-2,HR=2,G=0,H=4
        assert gain == pytest.approx(4 / 3 + 4 / 3 - 0)
        assert 1.0 < t < 2.0


def _gini(y, w):
    p = (w * y).sum() / w.sum()
    return w.sum() * 2 * p * (1 - p)


def _sse(y, w):
    return (w * (y - (w * y).sum() / w.sum()) ** 2).sum()


def _newton(g, h, lam):
    return g.sum() ** 2 / (h.sum() + lam)


def _brute_force(X, score, better):
    """Every (feature, midpoint threshold) split by exhaustive enumeration;
    returns the best as (gain, feature, threshold), first one on ties."""
    best = None
    for f in range(X.shape[1]):
        vals = np.unique(X[:, f])
        for t in (vals[1:] + vals[:-1]) / 2:
            left = X[:, f] <= t
            gain = better(score(left), score(~left), score(np.ones(len(X), bool)))
            if best is None or gain > best[0] * (1 + 1e-9) + 1e-12:
                best = (gain, f, t)
    return best


@pytest.mark.parametrize("seed", range(20))
def test_one_search_matches_brute_force(seed):
    """On weighted random data the one split search picks the split of each
    classic criterion, with weighted Gini reduction = 2B, weighted MSE
    reduction = B and Newton gain = B/2 at the same λ."""
    rng = np.random.default_rng(seed)
    n = 24
    X = rng.integers(0, 7, size=(n, 3)).astype(float)
    w = rng.uniform(0.2, 2.0, n)
    yb = (rng.random(n) < 0.5).astype(float)
    yr = rng.normal(size=n)
    g, h, lam = rng.normal(size=n), rng.uniform(0.1, 1.0, n), 1.0

    cases = [
        # (g, h, λ, brute-force criterion, gain / B)
        (-w * yb, w, 0.0, lambda m, yy=yb: _gini(yy[m], w[m]), lambda l, r, p: p - l - r, 2.0),
        (-w * yr, w, 0.0, lambda m, yy=yr: _sse(yy[m], w[m]), lambda l, r, p: p - l - r, 1.0),
        (g, h, lam, lambda m: _newton(g[m], h[m], lam), lambda l, r, p: 0.5 * (l + r - p), 0.5),
    ]
    for gg, hh, ll, score, better, ratio in cases:
        gain, f, t = _brute_force(X, score, better)
        tree = Tree(max_depth=1, lam=ll).fit(X, gg, hh)
        left = X[:, f] <= t
        if min(left.sum(), (~left).sum()) < MIN_CHILD_SAMPLES or gain <= 0:
            assert tree.feature[0] == -1
            continue
        assert (tree.feature[0], tree.thresh[0]) == (f, t)
        B, _ = _best_split(X[:, f], gg, hh, ll)
        assert gain == pytest.approx(ratio * B, rel=1e-9)


class TestDecisionTree:
    """The tree at λ = 0 on (−y, 1): CART, by Gini for a binary y and by
    MSE for a real y."""

    @staticmethod
    def _fit(X, y, depth):
        return Tree(max_depth=depth).fit(X, -y, np.ones(len(y)))

    def test_fits_threshold_function(self):
        rng = np.random.default_rng(0)
        X = rng.random((200, 3))
        y = (X[:, 1] > 0.5).astype(float)
        t = self._fit(X, y, 2)
        assert ((t.predict_value(X) >= 0.5) == y).mean() > 0.97

    def test_fits_xor_with_depth2(self):
        rng = np.random.default_rng(0)
        X = rng.random((400, 2))
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(float)
        t = self._fit(X, y, 2)
        assert ((t.predict_value(X) >= 0.5) == y).mean() > 0.95

    def test_depth_zero_is_prior(self):
        X = np.random.default_rng(0).random((50, 2))
        y = np.array([1.0] * 30 + [0.0] * 20)
        t = self._fit(X, y, 0)
        assert np.allclose(t.predict_value(X), 0.6)

    def test_regression_reduces_mse(self):
        rng = np.random.default_rng(1)
        X = rng.random((300, 2))
        y = 3 * X[:, 0] + rng.normal(0, 0.05, 300)
        t = self._fit(X, y, 4)
        mse = ((t.predict_value(X) - y) ** 2).mean()
        assert mse < np.var(y) * 0.2

    def test_apply_matches_row_walk(self):
        """The vectorised traversal lands each row where a walk from the
        root, one row at a time, does."""
        rng = np.random.default_rng(2)
        X = rng.integers(0, 5, size=(300, 3)).astype(float)
        y = (rng.random(300) < 0.4).astype(float)
        t = self._fit(X, y, 6)
        Xq = rng.integers(-1, 6, size=(200, 3)).astype(float)
        walk = []
        for row in Xq:
            k = 0
            while t.feature[k] >= 0:
                k = t.left[k] if row[t.feature[k]] <= t.thresh[k] else t.right[k]
            walk.append(k)
        assert (t.feature >= 0).sum() > 5
        np.testing.assert_array_equal(t.apply(Xq), walk)


class TestNewtonTree:
    def test_leaf_value_formula(self):
        X = np.zeros((4, 1))
        g = np.array([1.0, 2.0, 3.0, 4.0])
        h = np.ones(4)
        t = Tree(max_depth=0, lam=1.0).fit(X, g, h)
        assert t.predict_value(X)[0] == pytest.approx(-10.0 / 5.0)

    def test_splits_by_gradient_sign(self):
        X = np.arange(8.0).reshape(-1, 1)
        g = np.array([1.0] * 4 + [-1.0] * 4)
        h = np.ones(8)
        t = Tree(max_depth=1, lam=0.0).fit(X, g, h)
        v = t.predict_value(X)
        assert np.allclose(v[:4], -1.0)
        assert np.allclose(v[4:], 1.0)

    def test_min_child_hessian_blocks_light_children(self):
        X = np.arange(8.0).reshape(-1, 1)
        g = np.array([1.0] * 4 + [-1.0] * 4)
        h = np.full(8, 0.2)
        assert Tree(max_depth=1, min_child_hessian=0.5).fit(X, g, h).feature[0] == 0
        assert Tree(max_depth=1, min_child_hessian=1.0).fit(X, g, h).feature[0] == -1
