"""Pairwise paper features for the supervised baselines.

Follows Treeratpituk & Giles (JCDL'09) as the paper does: for a pair of
papers sharing a target author name, similarities of co-authors, titles,
venues and years. Computed locally (pandas/numpy) over the labelled pair
sets — the supervised baselines are driver-side models.
"""
from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pandas as pd

from repro.text.keywords import title_tokens


class FeatureExtractor:
    """Computes corpus statistics and each paper's values once; then
    vectorises paper pairs from them."""

    def __init__(self, papers: pd.DataFrame) -> None:
        n_papers = len(papers)
        self.name_freq: Counter = Counter()
        token_df: Counter = Counter()
        self.venue_freq: Counter = Counter()
        tokens: dict[int, list[str]] = {}
        #: per paper: co-author name set, venue, year
        self._namesets: dict[int, frozenset[str]] = {}
        self._venue: dict[int, str] = {}
        self._year: dict[int, int] = {}
        cols = papers[["paper_id", "names", "title", "venue", "year"]]
        for pid, names, title, venue, year in cols.itertuples(index=False):
            tokens[pid] = toks = title_tokens(title)
            token_df.update(set(toks))
            self._namesets[pid] = frozenset(names)
            self.name_freq.update(names)
            self.venue_freq[venue] += 1
            self._venue[pid], self._year[pid] = venue, int(year)
        idf = {t: math.log(n_papers / (1 + c)) for t, c in token_df.items()}
        #: per title token: idf²; per paper: token set, token counts and
        #: tf-idf norm.
        self._idf2 = {t: w ** 2 for t, w in idf.items()}
        self._tokset = {pid: set(toks) for pid, toks in tokens.items()}
        self._tf = {pid: Counter(toks) for pid, toks in tokens.items()}
        self._tf_norm = {
            pid: math.sqrt(sum((c * idf[t]) ** 2 for t, c in tf.items()))
            for pid, tf in self._tf.items()
        }

    def pair(self, p1: int, p2: int, target_name: str) -> np.ndarray:
        """Feature vector of two papers sharing ``target_name``; co-authors
        exclude that name. Columns, in order: shared co-author count,
        co-author Jaccard, rarest shared co-author (1 / log of its corpus
        frequency), title keyword Jaccard, title tf-idf cosine, venue
        equal, venue rarity (1 / log of its frequency, when equal), year
        gap, and the smaller and larger co-author count."""
        c1 = self._namesets[p1] - {target_name}
        c2 = self._namesets[p2] - {target_name}
        shared = c1 & c2
        union = c1 | c2
        rarest = max(
            (1.0 / math.log(max(self.name_freq[n], 2)) for n in shared), default=0.0
        )
        t1, t2 = self._tokset[p1], self._tokset[p2]
        tj = len(t1 & t2) / len(t1 | t2) if t1 | t2 else 0.0
        # tf-idf cosine over title tokens, summed in sorted order: set order
        # follows the per-process string hash seed, and the sum's last bit
        # would follow it too.
        v1, v2 = self._tf[p1], self._tf[p2]
        dot = sum(v1[t] * v2[t] * self._idf2[t] for t in sorted(v1.keys() & v2.keys()))
        n1, n2 = self._tf_norm[p1], self._tf_norm[p2]
        cos = dot / (n1 * n2) if n1 > 0 and n2 > 0 else 0.0
        venue = self._venue[p1]
        venue_eq = float(venue == self._venue[p2])
        venue_rar = 1.0 / math.log(max(self.venue_freq[venue], 2)) if venue_eq else 0.0
        return np.array(
            [
                float(len(shared)),
                len(shared) / len(union) if union else 0.0,
                rarest,
                tj,
                cos,
                venue_eq,
                venue_rar,
                float(abs(self._year[p1] - self._year[p2])),
                float(min(len(c1), len(c2))),
                float(max(len(c1), len(c2))),
            ]
        )

    def pairs_matrix(self, pair_rows: pd.DataFrame) -> np.ndarray:
        """Vectorise rows (p1, p2, name) into the feature matrix."""
        return np.stack(
            [self.pair(p1, p2, nm) for p1, p2, nm in
             pair_rows[["p1", "p2", "name"]].itertuples(index=False)]
        )
