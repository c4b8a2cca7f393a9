"""Triangle listing over an undirected edge DataFrame.

Used twice by IUAD: (i) the stable-triangle rule during SCN construction is
a *per-name* local check (handled in ``core.scn``); (ii) the co-author
clique coincidence ratio γ₂ needs, for every SCN vertex, the set of
triangles it participates in. This module lists triangles globally in
adjacency-list form: one shuffle by the smaller endpoint deduplicates the
edges and gives every vertex the list of its larger neighbours, then one
join on the neighbour closes each wedge by a list intersection — two
shuffles, pure Catalyst (broadcast is disabled session-wide).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def canonical_edges(edges: DataFrame) -> DataFrame:
    """Undirected edge list (u, v) with u < v, deduplicated, self-loops
    dropped, from the edge columns ``u`` and ``v``.

    Hash-partitioned by ``u``, so grouping the result by ``u`` needs no
    further shuffle.
    """
    a, b = F.col("u"), F.col("v")
    return (
        edges.select(F.least(a, b).alias("u"), F.greatest(a, b).alias("v"))
        .where(F.col("u") != F.col("v"))
        .repartition("u")
        .dropDuplicates(["u", "v"])
    )


def triangles(edges: DataFrame) -> DataFrame:
    """All triangles (a < b < c) in the undirected graph.

    Each wedge a → b (b a larger neighbour of a) is joined with b's row of
    larger neighbours; every c larger than both and adjacent to both
    closes a triangle, so each triangle is listed once, from its smallest
    corner.
    """
    fwd = canonical_edges(edges).groupBy("u").agg(F.collect_list("v").alias("out"))
    wedges = fwd.select(
        F.col("u").alias("a"), F.explode("out").alias("b"), F.col("out").alias("out_a")
    )
    return (
        wedges.join(fwd.select(F.col("u").alias("b"), F.col("out").alias("out_b")), "b")
        .select("a", "b", F.explode(F.array_intersect("out_a", "out_b")).alias("c"))
    )


def vertex_triangles(edges: DataFrame) -> DataFrame:
    """One row per (vertex, triangle): columns ``node, a, b, c``.

    γ₂ compares triangle *sets* of two vertices; this exploded form joins
    directly against vertex ids.
    """
    return triangles(edges).select(
        F.explode(F.array("a", "b", "c")).alias("node"), "a", "b", "c"
    )
