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
    """Precomputes corpus statistics once; then vectorises paper pairs."""

    def __init__(self, papers: pd.DataFrame) -> None:
        self.papers = papers.set_index("paper_id")
        self.n_papers = len(papers)
        self.name_freq: Counter = Counter()
        self.token_df: Counter = Counter()
        self.venue_freq: Counter = Counter()
        self._tokens: dict[int, list[str]] = {}
        self._namesets: dict[int, frozenset[str]] = {}
        for pid, row in self.papers.iterrows():
            self._tokens[pid] = toks = title_tokens(row["title"])
            self.token_df.update(set(toks))
            self._namesets[pid] = frozenset(row["names"])
            self.name_freq.update(row["names"])
            self.venue_freq[row["venue"]] += 1

    def _idf(self, tok: str) -> float:
        return math.log(self.n_papers / (1 + self.token_df.get(tok, 0)))

    def pair(self, p1: int, p2: int, target_name: str) -> np.ndarray:
        """Feature vector of two papers sharing ``target_name``; co-authors
        exclude that name. Columns, in order: shared co-author count,
        co-author Jaccard, rarest shared co-author (1 / log of its corpus
        frequency), title keyword Jaccard, title tf-idf cosine, venue
        equal, venue rarity (1 / log of its frequency, when equal), year
        gap, and the smaller and larger co-author count."""
        r1, r2 = self.papers.loc[p1], self.papers.loc[p2]
        c1 = self._namesets[p1] - {target_name}
        c2 = self._namesets[p2] - {target_name}
        shared = c1 & c2
        union = c1 | c2
        rarest = max(
            (1.0 / math.log(max(self.name_freq[n], 2)) for n in shared), default=0.0
        )
        t1, t2 = set(self._tokens[p1]), set(self._tokens[p2])
        tj = len(t1 & t2) / len(t1 | t2) if t1 | t2 else 0.0
        # tf-idf cosine over title tokens
        v1 = Counter(self._tokens[p1])
        v2 = Counter(self._tokens[p2])
        # Summed in sorted order: set order follows the per-process string
        # hash seed, and the sum's last bit would follow it too.
        dot = sum(v1[t] * v2[t] * self._idf(t) ** 2 for t in sorted(v1.keys() & v2.keys()))
        n1 = math.sqrt(sum((c * self._idf(t)) ** 2 for t, c in v1.items()))
        n2 = math.sqrt(sum((c * self._idf(t)) ** 2 for t, c in v2.items()))
        cos = dot / (n1 * n2) if n1 > 0 and n2 > 0 else 0.0
        venue_eq = float(r1["venue"] == r2["venue"])
        venue_rar = (
            1.0 / math.log(max(self.venue_freq[r1["venue"]], 2)) if venue_eq else 0.0
        )
        return np.array(
            [
                float(len(shared)),
                len(shared) / len(union) if union else 0.0,
                rarest,
                tj,
                cos,
                venue_eq,
                venue_rar,
                float(abs(int(r1["year"]) - int(r2["year"]))),
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
