"""ANON baseline (Zhang & Al Hasan, CIKM'17) — simplified reimplementation.

Top-down: per target name, embed that name's papers from the *anonymized
co-author network* view only (their method uses network information, not
content), then Hierarchical Agglomerative Clustering; each cluster is one
author. See DESIGN.md for the embedding substitution.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.baselines import cluster_each_name
from repro.baselines.embed import PaperEmbedder, cosine_distance_matrix
from repro.eval.clustering import hac_average

THRESHOLD = 0.6
TWO_HOP = 0.5


def run_anon(
    papers: pd.DataFrame, names: list[str], *, embedder: PaperEmbedder
) -> pd.DataFrame:
    """Cluster each name's papers; returns (name, paper_id, cluster).

    The co-author view includes a 2-hop neighbourhood term (``TWO_HOP``):
    ANON's network embedding sees structure beyond direct co-authors, and
    a pure 1-hop bag cannot relate an author's disjoint teams at all.
    """

    def cluster(name: str, pids: list[int]) -> np.ndarray:
        X = np.stack([embedder.coauthor_vec(p, name, two_hop=TWO_HOP) for p in pids])
        return hac_average(cosine_distance_matrix(X), threshold=THRESHOLD)

    return cluster_each_name(papers, names, cluster)
