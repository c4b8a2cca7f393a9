"""Aminer baseline (Zhang et al., KDD'18) — simplified reimplementation.

Top-down: global paper embeddings refined by local (per-name) information,
clustered by HAC. The original additionally learns from human annotations;
our offline stand-in uses the global three-view embedding with a
conservative HAC cut, which reproduces its high-precision / low-recall
Table III profile.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.baselines import cluster_each_name
from repro.baselines.embed import PaperEmbedder, cosine_distance_matrix
from repro.eval.clustering import hac_average

WEIGHTS = (1.0, 1.0, 1.0)
THRESHOLD = 0.70


def run_aminer(
    papers: pd.DataFrame, names: list[str], *, embedder: PaperEmbedder
) -> pd.DataFrame:
    """Cluster each name's papers; returns (name, paper_id, cluster)."""

    def cluster(name: str, pids: list[int]) -> np.ndarray:
        X = np.stack([embedder.embed(p, name, WEIGHTS) for p in pids])
        return hac_average(cosine_distance_matrix(X), threshold=THRESHOLD)

    return cluster_each_name(papers, names, cluster)
