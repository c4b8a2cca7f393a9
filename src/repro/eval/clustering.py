"""Clustering algorithms implemented from scratch (numpy).

The unsupervised baselines cluster per-name paper sets: ANON and Aminer use
hierarchical agglomerative clustering (HAC), NetE and GHOST use Affinity
Propagation (AP); AP also stands in for NetE's HDBSCAN (no sklearn/hdbscan
offline; see DESIGN.md substitutions). Per-name instances are small (tens
to a few hundred papers), so the O(n²)–O(n³) reference algorithms are
appropriate.
"""
from __future__ import annotations

import numpy as np


def hac_average(dist: np.ndarray, *, threshold: float) -> np.ndarray:
    """Average-linkage agglomerative clustering on a distance matrix.

    Merges the closest pair of clusters while the (average-linkage) distance
    is ≤ ``threshold``. Returns integer labels (0..k-1).
    """
    n = len(dist)
    if n == 0:
        return np.zeros(0, dtype=int)
    d = dist.astype(float).copy()
    np.fill_diagonal(d, np.inf)
    clusters: dict[int, list[int]] = {i: [i] for i in range(n)}
    active = set(range(n))
    while len(active) > 1:
        ids = sorted(active)
        sub = d[np.ix_(ids, ids)]
        k = int(np.argmin(sub))
        i, j = divmod(k, len(ids))
        if sub[i, j] > threshold:
            break
        ci, cj = ids[i], ids[j]
        ni, nj = len(clusters[ci]), len(clusters[cj])
        # Lance–Williams update for average linkage.
        for other in active - {ci, cj}:
            d[ci, other] = d[other, ci] = (
                ni * d[ci, other] + nj * d[cj, other]
            ) / (ni + nj)
        clusters[ci].extend(clusters[cj])
        del clusters[cj]
        active.remove(cj)
        d[cj, :] = d[:, cj] = np.inf
    labels = np.empty(n, dtype=int)
    for lab, members in enumerate(clusters.values()):
        labels[members] = lab
    return labels


# Affinity Propagation's message damping, iteration cap, and the number of
# iterations the exemplar set must stay unchanged to stop early.
AP_DAMPING = 0.7
AP_MAX_ITER = 200
AP_CONVERGENCE_ITER = 15


def affinity_propagation(
    sim: np.ndarray,
    *,
    preference: float | None = None,
) -> np.ndarray:
    """Affinity Propagation (Frey & Dueck 2007) on a similarity matrix."""
    n = len(sim)
    if n == 0:
        return np.zeros(0, dtype=int)
    if n == 1:
        return np.zeros(1, dtype=int)
    S = sim.astype(float).copy()
    rng = np.random.default_rng(0)
    pref = np.median(S[~np.eye(n, dtype=bool)]) if preference is None else preference
    np.fill_diagonal(S, pref)
    # Tiny noise breaks degeneracies (as in the reference implementation).
    S = S + 1e-12 * rng.standard_normal((n, n)) * (np.abs(S).max() + 1e-12)
    R = np.zeros((n, n))
    A = np.zeros((n, n))
    stable = 0
    last = None
    for _ in range(AP_MAX_ITER):
        AS = A + S
        idx = np.argmax(AS, axis=1)
        first = AS[np.arange(n), idx]
        AS[np.arange(n), idx] = -np.inf
        second = AS.max(axis=1)
        Rnew = S - first[:, None]
        Rnew[np.arange(n), idx] = S[np.arange(n), idx] - second
        R = AP_DAMPING * R + (1 - AP_DAMPING) * Rnew
        Rp = np.maximum(R, 0)
        np.fill_diagonal(Rp, R.diagonal())
        Anew = Rp.sum(axis=0)[None, :] - Rp
        dA = Anew.diagonal().copy()
        Anew = np.minimum(Anew, 0)
        np.fill_diagonal(Anew, dA)
        A = AP_DAMPING * A + (1 - AP_DAMPING) * Anew
        exemplars = np.flatnonzero((A + R).diagonal() > 0)
        key = tuple(exemplars.tolist())
        if key == last:
            stable += 1
            if stable >= AP_CONVERGENCE_ITER:
                break
        else:
            stable = 0
            last = key
    exemplars = np.flatnonzero((A + R).diagonal() > 0)
    if len(exemplars) == 0:
        exemplars = np.array([int(np.argmax(S.diagonal()))])
    labels = np.argmax(S[:, exemplars], axis=1)
    labels[exemplars] = np.arange(len(exemplars))
    return labels
