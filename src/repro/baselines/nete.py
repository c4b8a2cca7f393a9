"""NetE baseline (Xu et al., CIKM'18) — simplified reimplementation.

Top-down: papers are embedded by mining multiple relationship networks
(co-author, title, venue views here), then clustered per name. The original
uses HDBSCAN and Affinity Propagation; offline we use AP with a DBSCAN
density fallback for large instances (see DESIGN.md substitutions).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.baselines import cluster_each_name
from repro.baselines.embed import PaperEmbedder, cosine_distance_matrix
from repro.eval.clustering import affinity_propagation, dbscan

WEIGHTS = (1.0, 1.0, 0.7)
AP_CUTOVER = 400
EPS = 0.35
PREFERENCE_MULT = 4.0


def run_nete(
    papers: pd.DataFrame, names: list[str], *, embedder: PaperEmbedder
) -> pd.DataFrame:
    """Cluster each name's papers; returns (name, paper_id, cluster)."""

    def cluster(name: str, pids: list[int]) -> np.ndarray:
        X = np.stack([embedder.embed(p, name, WEIGHTS) for p in pids])
        D = cosine_distance_matrix(X)
        if len(pids) <= AP_CUTOVER:
            # Preference below the median similarity (×4, similarities are
            # negative distances) yields fewer, larger clusters — AP's knob
            # for the moderate-recall profile NetE shows in Table III.
            S = -D
            pref = (
                PREFERENCE_MULT * float(np.median(S[~np.eye(len(S), dtype=bool)]))
                if len(pids) > 1
                else 0.0
            )
            return affinity_propagation(S, preference=pref)
        return dbscan(D, eps=EPS, min_samples=2)

    return cluster_each_name(papers, names, cluster)
