"""The probabilistic generative model of Stage II (Section V-C, Table I).

A Fellegi–Sunter-style two-component mixture over candidate pairs: latent
l_j ∈ {M, U} with prior p = P(M); conditional on the component, the six
similarities are independent with exponential-family marginals — Gaussian
or Exponential, per ``DEFAULT_DISTS``. EM alternates the responsibility-
weighted Table I MLEs with the posterior E-step. The matching score
(eq. 11) is the log posterior-odds. The M-step is the one place the
variance floor and the λ caps apply. Every γ matrix has one column per
``GAMMA_NAMES`` entry, in that order.

``fit_em`` runs EM in numpy over a collected sample: the paper trains on a
10 % sample of pairs, so the training matrix is small by design.
``score_array`` is the one scoring function: ``gcn.score_pairs`` applies it
per partition to every candidate pair, and the incremental judge applies it
directly to a new paper's candidates. It shares the E-step's log-joint.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.core.gammas import GAMMA_NAMES

#: default marginal family per similarity. The bounded, roughly bell-shaped
#: kernels/cosines are Gaussian; the sparse non-negative ratio features
#: (mostly 0, heavy right tail) are Exponential.
DEFAULT_DISTS: dict[str, str] = {
    "g1_wl": "gaussian",
    "g2_clique": "exponential",
    "g3_interest": "gaussian",
    "g4_time": "exponential",
    "g5_repr_comm": "exponential",
    "g6_comm": "exponential",
}

# The caps on the fitted marginals, applied once, in the M-step
# (``_mstep_moments``); the log-densities read the parameters as given.
# The variance floor keeps a constant feature's density finite. λ is capped
# well below the unconstrained MLE for all-zero features: an exponential
# fitted to a mass at 0 would otherwise drive log-odds to ±∞ for any
# nonzero similarity.
_VAR_FLOOR = 1e-4
_LAM_LO, _LAM_HI = 1e-6, 20.0
_P_LO, _P_HI = 1e-6, 1 - 1e-6
# EM schedule: share of pairs initialised as probable matches, iteration
# cap, and the relative log-likelihood change that stops the fit.
_INIT_FRAC = 0.15
_N_ITER, _TOL = 60, 1e-7


@dataclasses.dataclass
class FeatureParams:
    """Marginal family and its matched/unmatched parameters:
    gaussian {"mu", "var"}, exponential {"lam"}."""

    dist: str
    matched: dict
    unmatched: dict


@dataclasses.dataclass
class EMParams:
    """Prior p = P(M), per-feature marginals, and the EM record: ``loglik``
    is the log-likelihood at each iteration."""

    p: float
    features: dict[str, FeatureParams]
    loglik: list[float] = dataclasses.field(default_factory=list)

    @property
    def n_iter(self) -> int:
        return len(self.loglik)


def _gauss_logpdf(x: np.ndarray, mu: float, var: float) -> np.ndarray:
    return -0.5 * np.log(2 * np.pi * var) - (x - mu) ** 2 / (2 * var)


def _exp_logpdf(x: np.ndarray, lam: float) -> np.ndarray:
    return math.log(lam) - lam * np.maximum(x, 0.0)


def _feature_logpdf(x: np.ndarray, fp: FeatureParams, which: str) -> np.ndarray:
    prm = fp.matched if which == "M" else fp.unmatched
    if fp.dist == "gaussian":
        return _gauss_logpdf(x, prm["mu"], prm["var"])
    return _exp_logpdf(x, prm["lam"])


def _mstep_moments(dist: str, *, sr: float, srx: float, srxx: float) -> dict:
    """Table I MLE from responsibility-weighted moments of one group.

    sr = Σ r_j, srx = Σ r_j γ_j, srxx = Σ r_j γ_j² (r is the group weight —
    l for matched, 1−l for unmatched).
    """
    if sr <= 1e-12:
        sr = 1e-12
    if dist == "gaussian":
        mu = srx / sr
        var = max(srxx / sr - mu * mu, _VAR_FLOOR)
        return {"mu": mu, "var": var}
    lam = sr / max(srx, 1e-12)
    return {"lam": min(max(lam, _LAM_LO), _LAM_HI)}


def _init_responsibilities(X: np.ndarray, seed: int) -> np.ndarray:
    """Unsupervised initialisation: pairs whose standardized mean similarity
    lands in the top ``_INIT_FRAC`` start as probable matches."""
    g = np.random.default_rng(seed)
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd == 0] = 1.0
    composite = ((X - mu) / sd).mean(axis=1)
    k = max(1, int(len(X) * _INIT_FRAC))
    thresh = np.partition(composite, -k)[-k]
    r = np.where(composite >= thresh, 0.9, 0.05).astype(float)
    return np.clip(r + g.normal(0, 0.01, len(r)), 0.01, 0.99)


def _log_joint(X: np.ndarray, params: EMParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-row log P(γ, M) and log P(γ, U): the prior plus each feature's
    log-density, summed in ``GAMMA_NAMES`` order."""
    lm = np.full(len(X), math.log(max(params.p, _P_LO)))
    lu = np.full(len(X), math.log(max(1 - params.p, _P_LO)))
    for i, f in enumerate(GAMMA_NAMES):
        fp = params.features[f]
        lm = lm + _feature_logpdf(X[:, i], fp, "M")
        lu = lu + _feature_logpdf(X[:, i], fp, "U")
    return lm, lu


def loglik_and_resp(X: np.ndarray, params: EMParams) -> tuple[float, np.ndarray]:
    """E-step: total log-likelihood and responsibilities P(M | γ, Θ)."""
    lm, lu = _log_joint(X, params)
    mx = np.maximum(lm, lu)
    ll = float(np.sum(mx + np.log(np.exp(lm - mx) + np.exp(lu - mx))))
    resp = 1.0 / (1.0 + np.exp(np.clip(lu - lm, -500, 500)))
    return ll, resp


def _mstep(X: np.ndarray, r: np.ndarray) -> EMParams:
    p = float(np.clip(r.mean(), _P_LO, _P_HI))
    out: dict[str, FeatureParams] = {}
    for i, f in enumerate(GAMMA_NAMES):
        x, d = X[:, i], DEFAULT_DISTS[f]
        m = _mstep_moments(
            d, sr=float(r.sum()), srx=float((r * x).sum()), srxx=float((r * x * x).sum())
        )
        u = _mstep_moments(
            d,
            sr=float((1 - r).sum()),
            srx=float(((1 - r) * x).sum()),
            srxx=float(((1 - r) * x * x).sum()),
        )
        out[f] = FeatureParams(dist=d, matched=m, unmatched=u)
    return EMParams(p=p, features=out)


def fit_em(X: np.ndarray, *, seed: int = 0) -> EMParams:
    """EM on an (n, 6) γ matrix, columns in ``GAMMA_NAMES`` order, each
    feature with its ``DEFAULT_DISTS`` family. Returns fitted parameters
    with the matched component oriented as the *higher-similarity* one."""
    X = np.asarray(X, dtype=float)
    if not len(X):
        raise ValueError("EM needs at least one γ vector: no two vertices share a name")
    r = _init_responsibilities(X, seed)
    params = _mstep(X, r)
    trace: list[float] = []
    for _ in range(_N_ITER):
        ll, r = loglik_and_resp(X, params)
        params = _mstep(X, r)
        trace.append(ll)
        if len(trace) > 1 and abs(ll - trace[-2]) < _TOL * (abs(trace[-2]) + 1):
            break
    params.loglik = trace
    return _orient(params)


def _orient(params: EMParams) -> EMParams:
    """Ensure the 'matched' component is the high-similarity one (EM is
    label-symmetric). Decide by the sum of component means across features."""
    def mean_of(prm: dict, dist: str) -> float:
        return prm["mu"] if dist == "gaussian" else 1.0 / prm["lam"]

    m_mean = sum(mean_of(fp.matched, fp.dist) for fp in params.features.values())
    u_mean = sum(mean_of(fp.unmatched, fp.dist) for fp in params.features.values())
    if m_mean >= u_mean:
        return params
    return dataclasses.replace(
        params,
        p=1 - params.p,
        features={
            f: FeatureParams(fp.dist, matched=fp.unmatched, unmatched=fp.matched)
            for f, fp in params.features.items()
        },
    )


def score_array(X: np.ndarray, params: EMParams) -> np.ndarray:
    """Matching scores sc_j (eq. 11), log P(γ, M) − log P(γ, U), for an
    (n, 6) γ matrix."""
    lm, lu = _log_joint(np.atleast_2d(np.asarray(X, dtype=float)), params)
    return lm - lu
