"""Driver-side paper embeddings for the unsupervised baselines.

The four unsupervised baselines (ANON, NetE, Aminer, GHOST) are *top-down*:
per target name they embed that name's papers and cluster them. Their
reference implementations use various network/word embeddings that are not
reproducible offline; we build the same three views from corpus statistics:

* **title view** — mean of PPMI+SVD word vectors of title keywords
  (co-occurrences counted locally, because the baselines are timed as
  driver-side algorithms, then factorised by ``repro.text.embeddings``);
* **co-author view** — feature-hashed bag of co-author names, random-
  projected to a fixed dimension;
* **venue view** — feature-hashed venue indicator, random-projected.

Different baselines weight/concatenate these views differently.
"""
from __future__ import annotations

import hashlib
import math
from collections import Counter
from itertools import combinations

import numpy as np
import pandas as pd

from repro.text.embeddings import MAX_VOCAB, vocab_vectors
from repro.text.keywords import FREQUENT_CUT, title_tokens


# Dimensions of the title, co-author and venue views.
TITLE_DIM = 64
COAUTHOR_DIM = 32
VENUE_DIM = 16


def _stable_hash(s: str, mod: int) -> int:
    return int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "little") % mod


def local_keywords(papers: pd.DataFrame, *,
                   top_frequent_cut: float = FREQUENT_CUT) -> dict[int, list[str]]:
    """paper_id -> keyword list; mirrors ``repro.text.keywords.keywords``."""
    toks = {pid: title_tokens(title) for pid, title in zip(papers.paper_id, papers.title)}
    df = Counter()
    for ts in toks.values():
        df.update(set(ts))
    cut = top_frequent_cut * len(papers)
    return {pid: sorted({t for t in ts if df[t] <= cut}) for pid, ts in toks.items()}


def local_word_vectors(kw_by_paper: dict[int, list[str]], *,
                       dim: int = TITLE_DIM) -> dict[str, np.ndarray]:
    """PPMI + SVD word vectors from title co-occurrence, counted locally
    and factorised by ``repro.text.embeddings.vocab_vectors``."""
    freq = Counter()
    for ws in kw_by_paper.values():
        freq.update(ws)
    vocab = [w for w, _ in freq.most_common(MAX_VOCAB)]
    cooccurrences = (
        (a, b, 1) for ws in kw_by_paper.values() for a, b in combinations(sorted(set(ws)), 2)
    )
    return vocab_vectors(vocab, cooccurrences, dim)


class PaperEmbedder:
    """Builds per-paper view vectors once for the whole corpus."""

    def __init__(self, papers: pd.DataFrame) -> None:
        self.papers = papers.set_index("paper_id")
        self.kw = local_keywords(papers)
        self.wv = local_word_vectors(self.kw)
        self.title_dim = TITLE_DIM if not self.wv else len(next(iter(self.wv.values())))
        rng = np.random.default_rng(0)
        n_buckets = 4096
        self._proj_co = rng.standard_normal((n_buckets, COAUTHOR_DIM)) / math.sqrt(COAUTHOR_DIM)
        self._proj_ven = rng.standard_normal((n_buckets, VENUE_DIM)) / math.sqrt(VENUE_DIM)
        self._n_buckets = n_buckets
        # Name-level neighbourhood vectors for the 2-hop co-author view
        # (ANON's network embedding sees graph structure beyond direct
        # co-authorship; this is the count-based equivalent).
        self._bucket: dict[str, int] = {}
        adj: dict[str, set[str]] = {}
        for nms in papers.names:
            for a in nms:
                self._bucket.setdefault(a, _stable_hash(a, n_buckets))
                s = adj.setdefault(a, set())
                s.update(x for x in nms if x != a)
        self._nbr_vec: dict[str, np.ndarray] = {}
        for a, ns in adj.items():
            v = np.zeros(COAUTHOR_DIM)
            for m in ns:
                v += self._proj_co[self._bucket[m]]
            norm = np.linalg.norm(v)
            self._nbr_vec[a] = v / norm if norm > 0 else v

    def title_vec(self, pid: int) -> np.ndarray:
        acc = np.zeros(self.title_dim)
        n = 0
        for w in self.kw.get(pid, ()):
            v = self.wv.get(w)
            if v is not None:
                acc += v
                n += 1
        return acc / n if n else acc

    def coauthor_vec(self, pid: int, target_name: str, *, two_hop: float = 0.0) -> np.ndarray:
        """Hashed bag of co-author names; ``two_hop`` adds that fraction of
        each co-author's (normalised) neighbourhood vector."""
        acc = np.zeros(COAUTHOR_DIM)
        for nm in self.papers.loc[pid, "names"]:
            if nm != target_name:
                acc += self._proj_co[_stable_hash(nm, self._n_buckets)]
                if two_hop:
                    acc += two_hop * self._nbr_vec.get(nm, 0.0)
        return acc

    def venue_vec(self, pid: int) -> np.ndarray:
        return self._proj_ven[_stable_hash(self.papers.loc[pid, "venue"], self._n_buckets)]

    def embed(self, pid: int, target_name: str,
              weights: tuple[float, float, float]) -> np.ndarray:
        """Weighted concat of (coauthor, title, venue) views, L2-normalised
        per view so the weights are meaningful."""
        parts = []
        for w, vec in zip(
            weights,
            (self.coauthor_vec(pid, target_name), self.title_vec(pid), self.venue_vec(pid)),
        ):
            n = np.linalg.norm(vec)
            parts.append(w * vec / n if n > 0 else vec * 0.0)
        return np.concatenate(parts)


def cosine_distance_matrix(X: np.ndarray) -> np.ndarray:
    """Pairwise cosine distances (1 - cosine similarity), zeros-safe."""
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    Xn = np.divide(X, norms, out=np.zeros_like(X), where=norms > 0)
    sim = np.clip(Xn @ Xn.T, -1.0, 1.0)
    return 1.0 - sim
