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
matrix runs in numpy on the driver, in ``vocab_vectors``, which the
driver-side baselines share with their own vocabulary order and counts.
"""
from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np
from pyspark.sql import DataFrame

from repro.graph.pairs import pair_counts

MAX_VOCAB = 6000


def word_vectors(papers: DataFrame, counts: Mapping[str, int], *, dim: int = 64) -> dict:
    """keyword -> dense word vector.

    ``papers`` holds each paper's keyword list ``kws``; ``counts`` maps
    every keyword to its number of papers (FB, counted with the keyword
    lists). Vocabulary is capped at the MAX_VOCAB most frequent keywords,
    ties by keyword; words outside the cap get no vector (γ₃ averages over
    covered words only).
    """
    vocab = sorted(counts, key=lambda w: (-counts[w], w))[:MAX_VOCAB]
    co = pair_counts(papers, "kws", "w1", "w2").collect()
    return vocab_vectors(vocab, ((r["w1"], r["w2"], r["cnt"]) for r in co), dim)


def vocab_vectors(
    vocab: list[str], cooccurrences: Iterable[tuple[str, str, int]], dim: int
) -> dict[str, np.ndarray]:
    """word -> vector for each word of ``vocab``: the economy SVD, ``min(dim,
    len(vocab))`` columns wide, of the positive PMI of the symmetric matrix
    of (w1, w2, count) co-occurrences; a pair outside ``vocab`` is skipped."""
    index = {w: i for i, w in enumerate(vocab)}
    M = np.zeros((len(vocab), len(vocab)))
    for w1, w2, cnt in cooccurrences:
        i, j = index.get(w1), index.get(w2)
        if i is not None and j is not None:
            M[i, j] += cnt
            M[j, i] += cnt
    # PPMI with add-one smoothing on the marginals to avoid log(0).
    total = M.sum() or 1.0
    row = M.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        pmi = np.log((M * total) / (row @ row.T + 1e-12) + 1e-12)
    ppmi = np.maximum(pmi, 0.0)

    d = min(dim, len(M))
    u, s, _ = np.linalg.svd(ppmi, full_matrices=False)
    return dict(zip(vocab, u[:, :d] * np.sqrt(s[:d])))
