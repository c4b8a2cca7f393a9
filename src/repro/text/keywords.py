"""Title → keyword extraction as Spark dataflow.

The paper's γ₃/γ₄ use title *keywords*: tokens minus stop words and minus
the most frequent title words. Each paper's keyword list is computed
in-row from its title; ``FB(b)`` (eq. 7) and ``FH`` come from one corpus
count taken on the way.
"""
from __future__ import annotations

import dataclasses
from typing import Iterable

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.dblp.generator import STOPWORDS


@dataclasses.dataclass
class Keywords:
    """Per-paper keyword lists and the corpus counts taken with them.

    ``papers`` (paper_id, venue, year, kws): each paper's distinct keywords.
    ``fb``     keyword -> number of papers whose title holds it (FB).
    ``fh``     venue -> number of papers (FH).
    """

    papers: DataFrame
    fb: dict[str, int]
    fh: dict[str, int]


def title_keywords(title: Column, drop: Iterable[str]) -> Column:
    """The distinct lower-cased whitespace tokens of ``title``, without
    empty tokens and without the words in ``drop``; empty for a null title."""
    drop = sorted(set(drop))
    tokens = F.split(F.lower(F.coalesce(title, F.lit(""))), r"\s+")
    return F.array_distinct(F.filter(tokens, lambda t: (t != "") & ~t.isin(*drop)))


def keywords(papers: DataFrame, *, top_frequent_cut: float = 0.02) -> Keywords:
    """Keyword lists after stop-word and frequency filtering, with FB and FH.

    One ``groupBy(is_kw, key).count()`` over every paper's tokens and venue,
    collected once, gives each token's document frequency, FH and the
    number of papers N = Σ FH. Tokens in more than ``top_frequent_cut`` · N
    papers are dropped from the lists the way stop words are (the paper
    excludes "the frequent words in paper titles"; generic filler words
    carry no interest signal); at most (mean title length) /
    ``top_frequent_cut`` tokens can be that frequent, so the dropped-word
    literal stays small. FB is the document frequency of a kept keyword.
    """
    toks = papers.select("venue", title_keywords(F.col("title"), STOPWORDS).alias("kws"))
    entry = lambda is_kw, key: F.struct(F.lit(is_kw).alias("is_kw"), key.alias("key"))  # noqa: E731
    counts = (
        toks.select(
            F.explode(
                F.concat(
                    F.array(entry(False, F.col("venue"))),
                    F.transform("kws", lambda t: entry(True, t)),
                )
            ).alias("e")
        )
        .groupBy("e.is_kw", "e.key")
        .count()
        .collect()
    )
    fh = {r["key"]: r["count"] for r in counts if not r["is_kw"]}
    doc_freq = {r["key"]: r["count"] for r in counts if r["is_kw"]}
    cut = top_frequent_cut * sum(fh.values())
    fb = {w: n for w, n in doc_freq.items() if n <= cut}
    kws = title_keywords(F.col("title"), [*STOPWORDS, *(w for w in doc_freq if w not in fb)])
    return Keywords(
        papers=papers.select("paper_id", "venue", "year", kws.alias("kws")), fb=fb, fh=fh
    )
