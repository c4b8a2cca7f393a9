"""Unordered pairs within an array column, generated in-row by a double
``explode``: the η-SCRs, keyword co-occurrence and the GCN edges all come
from lists held in one row, so a pair count is one aggregation and no
frame is joined with itself."""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def pair_counts(df: DataFrame, items: str, a: str, b: str) -> DataFrame:
    """(a, b, cnt): every unordered pair a < b of the array column
    ``items`` and the number of slot pairs listing it."""
    return (
        df.select(items, F.explode(items).alias(a))
        .select(a, F.explode(items).alias(b))
        .where(F.col(a) < F.col(b))
        .groupBy(a, b)
        .agg(F.count("*").alias("cnt"))
    )
