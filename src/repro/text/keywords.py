"""Title → keyword extraction as Spark dataflow.

The paper's γ₃/γ₄ use title *keywords*: tokens minus stop words and minus
the most frequent title words. ``FB(b)`` (corpus frequency of keyword b,
eq. 7) comes from the same pass.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.dblp.generator import STOPWORDS


def title_tokens(papers: DataFrame) -> DataFrame:
    """(paper_id, token) rows: lower-cased whitespace tokens of the title."""
    return papers.select(
        "paper_id",
        F.explode(F.split(F.lower(F.col("title")), r"\s+")).alias("token"),
    ).where(F.col("token") != "")


def keywords(papers: DataFrame, *, top_frequent_cut: float = 0.02) -> DataFrame:
    """(paper_id, keyword) rows after stop-word and frequency filtering.

    ``top_frequent_cut``: tokens appearing in more than this fraction of
    papers are dropped (the paper excludes "the frequent words in paper
    titles"; generic filler words carry no interest signal). One shuffle:
    each token collects the set of papers it appears in, whose size is its
    document frequency.
    """
    toks = title_tokens(papers)
    toks = toks.where(~F.col("token").isin(*sorted(set(STOPWORDS))))
    n_papers = papers.count()
    return (
        toks.groupBy("token")
        .agg(F.collect_set("paper_id").alias("papers"))
        .where(F.size("papers") <= top_frequent_cut * n_papers)
        .select(F.explode("papers").alias("paper_id"), F.col("token").alias("keyword"))
    )


def keyword_frequencies(kw: DataFrame) -> DataFrame:
    """FB(b): number of papers whose title contains keyword b."""
    return kw.groupBy("keyword").agg(F.countDistinct("paper_id").alias("fb"))
