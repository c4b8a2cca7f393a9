"""Tree ensembles (RF, AdaBoost, GBDT, XGBoost-lite)."""
import numpy as np
import pytest

from repro.baselines.ensembles import (
    AdaBoost,
    GradientBoosting,
    RandomForest,
    XGBoostLite,
)

ALL = [
    ("RF", lambda: RandomForest(n_estimators=20, max_depth=5, seed=0)),
    ("Ada", lambda: AdaBoost(n_estimators=30, max_depth=2)),
    ("GBDT", lambda: GradientBoosting(n_estimators=40, max_depth=3)),
    ("XGB", lambda: XGBoostLite(n_estimators=40, max_depth=3)),
]


def blob_data(n=300, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 4))
    y = ((X[:, 0] + X[:, 2]) > 1.0).astype(float)
    flip = rng.random(n) < noise
    y[flip] = 1 - y[flip]
    return X, y


def xor_data(n=500, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 2))
    y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(float)
    return X, y


@pytest.mark.parametrize("name,mk", ALL)
class TestAllEnsembles:
    def test_fits_separable(self, name, mk):
        X, y = blob_data()
        m = mk().fit(X, y)
        assert (m.predict(X) == y).mean() > 0.93

    def test_generalizes(self, name, mk):
        X, y = blob_data(seed=0)
        Xt, yt = blob_data(seed=1)
        m = mk().fit(X, y)
        assert (m.predict(Xt) == yt).mean() > 0.88

    def test_fits_xor(self, name, mk):
        X, y = xor_data()
        m = mk().fit(X, y)
        assert (m.predict(X) == y).mean() > 0.9

    def test_predict_valid(self, name, mk):
        X, y = blob_data(n=150)
        pred = mk().fit(X, y).predict(X)
        assert pred.shape == (150,)
        assert set(np.unique(pred)) <= {0, 1}

    def test_robust_to_label_noise(self, name, mk):
        X, y = blob_data(n=400, noise=0.1)
        Xt, yt = blob_data(seed=2)
        m = mk().fit(X, y)
        assert (m.predict(Xt) == yt).mean() > 0.8


class TestSpecifics:
    def test_rf_variance_reduction(self):
        """Forest should beat a single deep tree out of sample on noise."""
        from repro.baselines.trees import Tree

        X, y = blob_data(n=300, noise=0.25, seed=3)
        Xt, yt = blob_data(seed=4)
        tree = Tree(max_depth=10).fit(X, -y, np.ones(len(y)))
        tree_acc = ((tree.predict_value(Xt) >= 0.5) == yt).mean()
        rf_acc = (RandomForest(n_estimators=40, max_depth=10, seed=0).fit(X, y).predict(Xt) == yt).mean()
        assert rf_acc >= tree_acc - 0.01

    def test_adaboost_weights_increase_on_errors(self):
        X, y = xor_data(n=200)
        m = AdaBoost(n_estimators=5, max_depth=1).fit(X, y)
        assert len(m.stages) >= 2
        assert all(a > 0 for a, _ in m.stages)

    def test_gbdt_monotone_training_loss(self):
        X, y = blob_data(n=300)
        losses = []
        for n in (5, 20, 60):
            m = GradientBoosting(n_estimators=n, max_depth=3).fit(X, y)
            p = np.clip(1 / (1 + np.exp(-m.decision_function(X))), 1e-9, 1 - 1e-9)
            losses.append(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())
        assert losses[0] > losses[1] > losses[2]

    def test_xgb_regularisation_shrinks_leaves(self):
        X, y = blob_data(n=200)
        small = XGBoostLite(n_estimators=5, lam=0.0).fit(X, y)
        big = XGBoostLite(n_estimators=5, lam=50.0).fit(X, y)
        assert np.abs(big.decision_function(X)).mean() < np.abs(small.decision_function(X)).mean()
