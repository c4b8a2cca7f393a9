"""The generative model: Table I MLEs (Gaussian, Exponential), EM recovery
and its log-likelihood trace, and the eq. 11 score. Batch scoring
(``gcn.score_pairs``) is checked against ``score_array`` in test_gcn.py."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.em import (
    _LAM_HI,
    _VAR_FLOOR,
    DEFAULT_DISTS,
    EMParams,
    FeatureParams,
    _log_joint,
    _mstep,
    _mstep_moments,
    fit_em,
    loglik_and_resp,
    score_array,
)
from repro.core.gammas import GAMMA_NAMES


class TestTableIMLEs:
    """The M-step formulas from Table I with known responsibilities."""

    def test_gaussian_matched(self):
        x = np.array([1.0, 2.0, 3.0, 10.0])
        r = np.array([1.0, 1.0, 1.0, 0.0])  # last sample is unmatched
        m = _mstep_moments(
            "gaussian", sr=r.sum(), srx=(r * x).sum(), srxx=(r * x * x).sum()
        )
        assert m["mu"] == pytest.approx(2.0)
        assert m["var"] == pytest.approx(2.0 / 3.0)

    def test_gaussian_unmatched_complement(self):
        x = np.array([1.0, 2.0, 3.0, 10.0])
        r = np.array([1.0, 1.0, 1.0, 0.0])
        u = 1 - r
        m = _mstep_moments(
            "gaussian", sr=u.sum(), srx=(u * x).sum(), srxx=(u * x * x).sum()
        )
        assert m["mu"] == pytest.approx(10.0)

    def test_exponential_lambda_is_inverse_mean(self):
        x = np.array([0.5, 1.5, 2.0])
        r = np.ones(3)
        m = _mstep_moments("exponential", sr=3.0, srx=float(x.sum()), srxx=0.0)
        assert m["lam"] == pytest.approx(3.0 / 4.0)

    @given(st.lists(st.floats(0.01, 5.0), min_size=3, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_exponential_mle_property(self, xs):
        x = np.array(xs)
        m = _mstep_moments("exponential", sr=float(len(x)), srx=float(x.sum()), srxx=0.0)
        assert m["lam"] == pytest.approx(min(len(x) / x.sum(), 20.0))

    def test_fractional_responsibilities(self):
        """Table I with soft l_j: weighted means."""
        x = np.array([0.0, 4.0])
        r = np.array([0.25, 0.75])
        m = _mstep_moments("gaussian", sr=1.0, srx=3.0, srxx=12.0)
        assert m["mu"] == pytest.approx(3.0)


#: The mixture tests put their signal in one column, in the family
#: DEFAULT_DISTS gives it, and leave the other five at 0.
GAUSS, EXPO = "g3_interest", "g4_time"


def one_column(name: str, x: np.ndarray) -> np.ndarray:
    """An (n, 6) γ matrix: ``x`` in column ``name``, zeros elsewhere."""
    X = np.zeros((len(x), len(GAMMA_NAMES)))
    X[:, GAMMA_NAMES.index(name)] = x
    return X


class TestEMRecovery:
    def _two_component(self, dist, n=4000, seed=0):
        rng = np.random.default_rng(seed)
        z = rng.random(n) < 0.3
        if dist == "gaussian":
            x = np.where(z, rng.normal(2.0, 0.3, n), rng.normal(0.0, 0.3, n))
            return one_column(GAUSS, x), z
        x = np.where(z, rng.exponential(2.0, n), rng.exponential(0.1, n))
        return one_column(EXPO, x), z

    def test_recovers_gaussian_mixture(self):
        X, z = self._two_component("gaussian")
        p = fit_em(X, seed=1)
        assert p.p == pytest.approx(0.3, abs=0.05)
        assert p.features[GAUSS].matched["mu"] == pytest.approx(2.0, abs=0.1)
        assert p.features[GAUSS].unmatched["mu"] == pytest.approx(0.0, abs=0.1)

    def test_recovers_exponential_mixture(self):
        X, z = self._two_component("exponential")
        p = fit_em(X, seed=1)
        assert 1 / p.features[EXPO].matched["lam"] == pytest.approx(2.0, abs=0.5)
        assert p.features[EXPO].unmatched["lam"] > p.features[EXPO].matched["lam"]

    def test_responsibilities_separate_components(self):
        X, z = self._two_component("gaussian")
        p = fit_em(X, seed=1)
        _, resp = loglik_and_resp(X, p)
        acc = ((resp > 0.5) == z).mean()
        assert acc > 0.95

    def test_loglik_monotone_nondecreasing(self):
        """EM's defining property on the actual fit trajectory."""
        X, _ = self._two_component("gaussian", n=500)
        lls = fit_em(X, seed=1).loglik
        assert len(lls) >= 3
        assert all(b >= a - 1e-6 for a, b in zip(lls, lls[1:]))

    def test_matched_is_high_similarity_component(self):
        """Orientation: regardless of init, 'matched' means larger means."""
        X, _ = self._two_component("gaussian")
        for seed in range(3):
            p = fit_em(X, seed=seed)
            assert p.features[GAUSS].matched["mu"] > p.features[GAUSS].unmatched["mu"]

    def test_six_feature_fit_runs(self):
        rng = np.random.default_rng(0)
        n = 500
        z = rng.random(n) < 0.2
        X = np.stack(
            [
                np.where(z, rng.normal(0.8, 0.1, n), rng.normal(0.2, 0.1, n)),
                np.where(z, rng.exponential(1.0, n), rng.exponential(0.05, n)),
                np.where(z, rng.normal(0.7, 0.1, n), rng.normal(0.4, 0.1, n)),
                np.where(z, rng.exponential(0.5, n), rng.exponential(0.02, n)),
                np.where(z, rng.exponential(2.0, n), rng.exponential(0.1, n)),
                np.where(z, rng.exponential(0.3, n), rng.exponential(0.03, n)),
            ],
            axis=1,
        )
        p = fit_em(X, seed=0)
        scores = score_array(X, p)
        assert ((scores > 0) == z).mean() > 0.9
        # The E-step and the scores come from one log-joint: responsibilities
        # are the logistic of the score, the log-likelihood its log-sum-exp.
        ll, resp = loglik_and_resp(X, p)
        np.testing.assert_allclose(resp, 1 / (1 + np.exp(-scores)), rtol=0, atol=1e-12)
        lm, lu = _log_joint(X, p)
        np.testing.assert_array_equal(lm - lu, scores)
        assert ll == pytest.approx(float(np.sum(np.logaddexp(lm, lu))), rel=1e-12)


    def test_degenerate_features_capped_and_score_neutral(self):
        """An all-zero exponential feature has its λ at the cap and a constant
        Gaussian one its variance at the floor, in both components, as the
        M-step sets them; the two components then agree on both features,
        so neither moves any score."""
        rng = np.random.default_rng(3)
        n = 600
        z = rng.random(n) < 0.25
        X = np.stack(
            [
                np.full(n, 0.5),
                np.where(z, rng.exponential(1.0, n), rng.exponential(0.05, n)),
                np.where(z, rng.normal(0.7, 0.1, n), rng.normal(0.3, 0.1, n)),
                np.zeros(n),
                np.where(z, rng.exponential(2.0, n), rng.exponential(0.1, n)),
                np.where(z, rng.exponential(0.3, n), rng.exponential(0.03, n)),
            ],
            axis=1,
        )
        p = fit_em(X, seed=0)
        g1, g4 = p.features["g1_wl"], p.features["g4_time"]
        assert g1.matched == g1.unmatched == {"mu": 0.5, "var": _VAR_FLOOR}
        assert g4.matched == g4.unmatched == {"lam": _LAM_HI}
        other = X.copy()
        other[:, GAMMA_NAMES.index("g1_wl")] = rng.random(n)
        other[:, GAMMA_NAMES.index("g4_time")] = rng.exponential(1.0, n)
        np.testing.assert_allclose(score_array(other, p), score_array(X, p), rtol=0, atol=1e-9)


#: Hand-built parameters: γ₃ and γ₄ tell the components apart, and the
#: other four features have one marginal for both, so they add nothing to
#: a score.
NEUTRAL = {
    "g1_wl": FeatureParams("gaussian", {"mu": 0.0, "var": 1.0}, {"mu": 0.0, "var": 1.0}),
    "g2_clique": FeatureParams("exponential", {"lam": 1.0}, {"lam": 1.0}),
    "g5_repr_comm": FeatureParams("exponential", {"lam": 1.0}, {"lam": 1.0}),
    "g6_comm": FeatureParams("exponential", {"lam": 1.0}, {"lam": 1.0}),
}


class TestScoring:
    def _params(self):
        features = {
            **NEUTRAL,
            GAUSS: FeatureParams("gaussian", {"mu": 1.0, "var": 0.1}, {"mu": 0.0, "var": 0.1}),
            EXPO: FeatureParams("exponential", {"lam": 0.5}, {"lam": 5.0}),
        }
        return EMParams(p=0.2, features={g: features[g] for g in GAMMA_NAMES})

    def _x(self, g3, g4):
        """One γ row: γ₃ = g3, γ₄ = g4, and arbitrary neutral features."""
        return np.array([[0.3, 0.1, g3, g4, 0.2, 0.4]])

    def test_score_formula_by_hand(self):
        p = self._params()
        lm = math.log(0.2) - 0.5 * math.log(2 * math.pi * 0.1) - 0.0 + math.log(0.5) - 1.0
        lu = math.log(0.8) - 0.5 * math.log(2 * math.pi * 0.1) - 5.0 + math.log(5.0) - 10.0
        assert score_array(self._x(1.0, 2.0), p)[0] == pytest.approx(lm - lu)

    def test_higher_similarity_higher_score(self):
        p = self._params()
        lo = score_array(self._x(0.1, 0.1), p)[0]
        hi = score_array(self._x(0.9, 1.5), p)[0]
        assert hi > lo


class TestDefaults:
    def test_default_dists_cover_gammas(self):
        assert set(DEFAULT_DISTS) == set(GAMMA_NAMES)

    def test_mstep_on_empty_group_does_not_crash(self):
        X = one_column(GAUSS, np.array([0.5, 0.6]))
        r = np.zeros(2)
        params = _mstep(X, r)
        assert np.isfinite(params.features[GAUSS].matched["mu"])

    def test_empty_sample_fails_loudly(self):
        with pytest.raises(ValueError, match="no two vertices share a name"):
            fit_em(np.empty((0, len(GAMMA_NAMES))))
