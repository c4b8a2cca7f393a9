"""Unordered pairs within an array column, generated in-row by a double
``explode``: the η-SCRs, keyword co-occurrence and the GCN edges all come
from lists held in one row, so a pair count is one aggregation and no
frame is joined with itself."""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def pairs_in_row(df: DataFrame, items: str, a: str, b: str, *keep: str) -> DataFrame:
    """(*keep, a, b): every unordered pair a < b of the array column
    ``items``, once per pair of slots holding it."""
    return (
        df.select(*keep, items, F.explode(items).alias(a))
        .select(*keep, a, F.explode(items).alias(b))
        .where(F.col(a) < F.col(b))
    )


def pair_counts(df: DataFrame, items: str, a: str, b: str) -> DataFrame:
    """(a, b, cnt): each pair of ``pairs_in_row`` and how often it is listed."""
    return pairs_in_row(df, items, a, b).groupBy(a, b).agg(F.count("*").alias("cnt"))
