"""Corpus-internal word vectors: PPMI + truncated SVD.

The paper uses pretrained language-model vectors (Word2Vec/GloVe/BERT) for
γ₃. No pretrained models exist offline, so we build distributional vectors
from the corpus itself: co-occurrence of keywords within titles → positive
PMI → SVD. This preserves the property γ₃ relies on — cosine similarity
reflects topical relatedness — and is the classic count-based equivalent of
Word2Vec (Levy & Goldberg 2014 show SGNS factorises shifted PMI).

Co-occurrence counting is Spark dataflow: ``repro.graph.pairs`` counts the
keyword pairs of every paper's keyword list (``repro.text.keywords``) in
one aggregation. The PPMI/SVD factorisation of the small vocab×vocab
matrix runs in numpy on the driver, in ``ppmi_svd``, which the
driver-side baselines share.
"""
from __future__ import annotations

from typing import Mapping

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.graph.pairs import pair_counts

MAX_VOCAB = 6000


def ppmi_svd(M: np.ndarray, dim: int) -> np.ndarray:
    """One vector per row of the symmetric co-occurrence matrix ``M``: the
    economy SVD of its positive PMI, ``min(dim, len(M))`` columns wide."""
    # PPMI with add-one smoothing on the marginals to avoid log(0).
    total = M.sum() or 1.0
    row = M.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        pmi = np.log((M * total) / (row @ row.T + 1e-12) + 1e-12)
    ppmi = np.maximum(pmi, 0.0)

    d = min(dim, len(M))
    u, s, _ = np.linalg.svd(ppmi, full_matrices=False)
    return u[:, :d] * np.sqrt(s[:d])


def word_vectors(papers: DataFrame, counts: Mapping[str, int], *, dim: int = 64) -> pd.DataFrame:
    """Dense word vectors for every keyword; columns ``keyword, vec``.

    ``papers`` holds each paper's keyword list ``kws``; ``counts`` maps
    every keyword to its number of papers (FB, counted with the keyword
    lists). Vocabulary is capped at the MAX_VOCAB most frequent keywords,
    ties by keyword; words outside the cap get no vector (γ₃ averages over
    covered words only).
    """
    vocab = sorted(counts, key=lambda w: (-counts[w], w))[:MAX_VOCAB]
    index = {w: i for i, w in enumerate(vocab)}
    V = len(vocab)
    if V == 0:
        return pd.DataFrame({"keyword": [], "vec": []})

    co = pair_counts(papers, "kws", "w1", "w2").collect()
    M = np.zeros((V, V))
    for r in co:
        i, j = index.get(r["w1"]), index.get(r["w2"])
        if i is not None and j is not None:
            M[i, j] += r["cnt"]
            M[j, i] += r["cnt"]
    vecs = ppmi_svd(M, dim)
    return pd.DataFrame({"keyword": vocab, "vec": [vecs[i].astype(np.float64) for i in range(V)]})
