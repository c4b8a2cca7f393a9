"""The probabilistic generative model of Stage II (Section V-C, Table I).

A Fellegi–Sunter-style two-component mixture over candidate pairs: latent
l_j ∈ {M, U} with prior p = P(M); conditional on the component, the six
similarities are independent with exponential-family marginals. Table I of
the paper gives the responsibility-weighted MLEs for Multinomial, Gaussian
and Exponential marginals; EM alternates those M-step formulas with the
posterior E-step. The matching score (eq. 11) is the log posterior-odds.

``fit_em`` runs EM in numpy over a collected sample: the paper trains on a
10 % sample of pairs, so the training matrix is small by design. Scoring of
*all* pairs is a pure Catalyst column expression (``score_column``),
evaluated per partition; ``score_array`` is its numpy twin.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Mapping, Sequence

import numpy as np
from pyspark.sql import Column
from pyspark.sql import functions as F

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

_VAR_FLOOR = 1e-4
# λ is capped well below the unconstrained MLE for all-zero features: an
# exponential fitted to a mass at 0 would otherwise drive log-odds to ±∞
# for any nonzero similarity.
_LAM_LO, _LAM_HI = 1e-6, 20.0
_P_LO, _P_HI = 1e-6, 1 - 1e-6


@dataclasses.dataclass
class FeatureParams:
    """Marginal family and its matched/unmatched parameters.

    gaussian:    {"mu","var"};  exponential: {"lam"};
    multinomial: {"probs": {category: prob}} over rounded values.
    """

    dist: str
    matched: dict
    unmatched: dict


@dataclasses.dataclass
class EMParams:
    p: float
    features: dict[str, FeatureParams]
    n_iter: int = 0
    loglik: float = float("nan")


# --------------------------------------------------------------------------
# numpy math core
# --------------------------------------------------------------------------

def _gauss_logpdf(x: np.ndarray, mu: float, var: float) -> np.ndarray:
    var = max(var, _VAR_FLOOR)
    return -0.5 * np.log(2 * np.pi * var) - (x - mu) ** 2 / (2 * var)


def _exp_logpdf(x: np.ndarray, lam: float) -> np.ndarray:
    lam = min(max(lam, _LAM_LO), _LAM_HI)
    return math.log(lam) - lam * np.maximum(x, 0.0)


def _multi_logpdf(x: np.ndarray, probs: Mapping) -> np.ndarray:
    return np.log(
        np.array([max(probs.get(_cat(v), 0.0), 1e-9) for v in x])
    )


def _cat(v: float) -> float:
    """Category key for multinomial features: exact discrete value."""
    return round(float(v), 6)


def _feature_logpdf(x: np.ndarray, fp: FeatureParams, which: str) -> np.ndarray:
    prm = fp.matched if which == "M" else fp.unmatched
    if fp.dist == "gaussian":
        return _gauss_logpdf(x, prm["mu"], prm["var"])
    if fp.dist == "exponential":
        return _exp_logpdf(x, prm["lam"])
    if fp.dist == "multinomial":
        return _multi_logpdf(x, prm["probs"])
    raise ValueError(f"unknown distribution {fp.dist!r}")


def _mstep_moments(dist: str, *, sr: float, srx: float, srxx: float,
                   cats: Mapping | None = None) -> dict:
    """Table I MLE from responsibility-weighted moments of one group.

    sr = Σ r_j, srx = Σ r_j γ_j, srxx = Σ r_j γ_j² (r is the group weight —
    l for matched, 1−l for unmatched). ``cats`` maps category → Σ r_j I[γ=h]
    for multinomial.
    """
    if sr <= 1e-12:
        sr = 1e-12
    if dist == "gaussian":
        mu = srx / sr
        var = max(srxx / sr - mu * mu, _VAR_FLOOR)
        return {"mu": mu, "var": var}
    if dist == "exponential":
        lam = sr / max(srx, 1e-12)
        return {"lam": min(max(lam, _LAM_LO), _LAM_HI)}
    if dist == "multinomial":
        assert cats is not None
        total = sum(cats.values()) or 1.0
        return {"probs": {h: c / total for h, c in cats.items()}}
    raise ValueError(f"unknown distribution {dist!r}")


def _init_responsibilities(X: np.ndarray, init_frac: float, seed: int) -> np.ndarray:
    """Unsupervised initialisation: pairs whose standardized mean similarity
    lands in the top ``init_frac`` start as probable matches."""
    g = np.random.default_rng(seed)
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd == 0] = 1.0
    composite = ((X - mu) / sd).mean(axis=1)
    k = max(1, int(len(X) * init_frac))
    thresh = np.partition(composite, -k)[-k]
    r = np.where(composite >= thresh, 0.9, 0.05).astype(float)
    return np.clip(r + g.normal(0, 0.01, len(r)), 0.01, 0.99)


def _log_joint(
    X: np.ndarray, feats: Sequence[str], params: EMParams
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row log P(γ, M) and log P(γ, U): the prior plus each feature's
    log-density, summed in ``feats`` order."""
    lm = np.full(len(X), math.log(max(params.p, _P_LO)))
    lu = np.full(len(X), math.log(max(1 - params.p, _P_LO)))
    for i, f in enumerate(feats):
        fp = params.features[f]
        lm = lm + _feature_logpdf(X[:, i], fp, "M")
        lu = lu + _feature_logpdf(X[:, i], fp, "U")
    return lm, lu


def loglik_and_resp(
    X: np.ndarray, feats: Sequence[str], params: EMParams
) -> tuple[float, np.ndarray]:
    """E-step: total log-likelihood and responsibilities P(M | γ, Θ)."""
    lm, lu = _log_joint(X, feats, params)
    mx = np.maximum(lm, lu)
    ll = float(np.sum(mx + np.log(np.exp(lm - mx) + np.exp(lu - mx))))
    resp = 1.0 / (1.0 + np.exp(np.clip(lu - lm, -500, 500)))
    return ll, resp


def _mstep(X: np.ndarray, feats: Sequence[str], dists: Mapping[str, str],
           r: np.ndarray) -> EMParams:
    p = float(np.clip(r.mean(), _P_LO, _P_HI))
    out: dict[str, FeatureParams] = {}
    for i, f in enumerate(feats):
        x = X[:, i]
        d = dists[f]
        if d == "multinomial":
            cats_m: dict = {}
            cats_u: dict = {}
            for v, rj in zip(x, r):
                h = _cat(v)
                cats_m[h] = cats_m.get(h, 0.0) + rj
                cats_u[h] = cats_u.get(h, 0.0) + (1 - rj)
            m = _mstep_moments(d, sr=float(r.sum()), srx=0, srxx=0, cats=cats_m)
            u = _mstep_moments(d, sr=float((1 - r).sum()), srx=0, srxx=0, cats=cats_u)
        else:
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


def fit_em(
    X: np.ndarray,
    *,
    feats: Sequence[str] = GAMMA_NAMES,
    dists: Mapping[str, str] | None = None,
    n_iter: int = 60,
    tol: float = 1e-7,
    init_frac: float = 0.15,
    seed: int = 0,
) -> EMParams:
    """EM on a (n, len(feats)) similarity matrix. Returns fitted parameters
    with the matched component oriented as the *higher-similarity* one."""
    dists = dict(DEFAULT_DISTS if dists is None else dists)
    X = np.asarray(X, dtype=float)
    r = _init_responsibilities(X, init_frac, seed)
    params = _mstep(X, feats, dists, r)
    prev = -np.inf
    for it in range(1, n_iter + 1):
        ll, r = loglik_and_resp(X, feats, params)
        params = _mstep(X, feats, dists, r)
        params.n_iter, params.loglik = it, ll
        if abs(ll - prev) < tol * (abs(prev) + 1):
            break
        prev = ll
    return _orient(params, feats)


def _orient(params: EMParams, feats: Sequence[str]) -> EMParams:
    """Ensure the 'matched' component is the high-similarity one (EM is
    label-symmetric). Decide by the sum of component means across features."""
    def mean_of(prm: dict, dist: str) -> float:
        if dist == "gaussian":
            return prm["mu"]
        if dist == "exponential":
            return 1.0 / prm["lam"]
        return sum(h * q for h, q in prm["probs"].items())

    m_mean = sum(mean_of(params.features[f].matched, params.features[f].dist) for f in feats)
    u_mean = sum(mean_of(params.features[f].unmatched, params.features[f].dist) for f in feats)
    if m_mean < u_mean:
        params = EMParams(
            p=1 - params.p,
            features={
                f: FeatureParams(fp.dist, matched=fp.unmatched, unmatched=fp.matched)
                for f, fp in params.features.items()
            },
            n_iter=params.n_iter,
            loglik=params.loglik,
        )
    return params


def score_array(
    X: np.ndarray, params: EMParams, feats: Sequence[str] = GAMMA_NAMES
) -> np.ndarray:
    """Matching scores sc_j (eq. 11) for a (n, len(feats)) γ matrix — the
    numpy twin of ``score_column`` used by the incremental path."""
    lm, lu = _log_joint(np.atleast_2d(np.asarray(X, dtype=float)), feats, params)
    return lm - lu


# --------------------------------------------------------------------------
# Spark: scoring
# --------------------------------------------------------------------------

def _logpdf_column(col: Column, fp: FeatureParams, which: str) -> Column:
    prm = fp.matched if which == "M" else fp.unmatched
    if fp.dist == "gaussian":
        var = max(prm["var"], _VAR_FLOOR)
        return F.lit(-0.5 * math.log(2 * math.pi * var)) - (col - F.lit(prm["mu"])) ** 2 / F.lit(2 * var)
    if fp.dist == "exponential":
        lam = min(max(prm["lam"], _LAM_LO), _LAM_HI)
        return F.lit(math.log(lam)) - F.lit(lam) * F.greatest(col, F.lit(0.0))
    if fp.dist == "multinomial":
        pairs = [x for h, q in prm["probs"].items() for x in (F.lit(float(h)), F.lit(float(q)))]
        m = F.create_map(*pairs) if pairs else F.create_map()
        prob = F.coalesce(F.element_at(m, F.round(col, 6)), F.lit(1e-9))
        return F.log(F.greatest(prob, F.lit(1e-9)))
    raise ValueError(fp.dist)


def score_column(params: EMParams, feats: Sequence[str] = GAMMA_NAMES) -> Column:
    """Matching score sc_j (eq. 11) as a Catalyst expression over the γ
    columns — the per-partition posterior computation."""
    lm: Column = F.lit(math.log(max(params.p, _P_LO)))
    lu: Column = F.lit(math.log(max(1 - params.p, _P_LO)))
    for f in feats:
        fp = params.features[f]
        lm = lm + _logpdf_column(F.col(f), fp, "M")
        lu = lu + _logpdf_column(F.col(f), fp, "U")
    return lm - lu
