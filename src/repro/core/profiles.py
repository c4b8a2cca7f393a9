"""Per-vertex profiles: Spark aggregation of everything γ₁..γ₆ consume.

One row per SCN vertex holding counts only: papers, venue counts, keyword
counts with their year range, WL label counts and triangle literals.
What is derived from counts is derived where it is used, by the one rule
that defines it: ``row_to_profile`` sets h_v with ``gammas.modal_venue``,
and the γ₁ kernel takes each WL map's norm. The heavy lifting (joins,
groupBys, WL refinement, triangle closing) is Catalyst dataflow; the
result is compact enough to group by name for per-partition pair scoring,
or to collect per name for incremental judgement.

Dataflow: each paper's keyword list comes from one Python pass over the
titles, and FB, FH and the word-vector vocabulary (which is FB) come back
from one corpus count (``repro.text.keywords``). Each occurrence meets its
paper's venue, year and keyword list in one join on ``paper_id``; one
shuffle on ``vertex_id`` then feeds the venue and keyword aggregates. WL
and triangle features come from one neighbour exchange
(``repro.core.wl``), grouped by vertex too, so assembling a profile row
takes one join and no further aggregation. The same keyword lists feed
the word-vector co-occurrence count.
"""
from __future__ import annotations

import dataclasses

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.gammas import CorpusStats, Profile, modal_venue
from repro.core.scn import SCN
from repro.core.wl import wl_features
from repro.graph.triangles import vertex_triangles
from repro.text.embeddings import word_vectors
from repro.text.keywords import keywords


@dataclasses.dataclass
class ProfileSet:
    """Vertex profiles plus the corpus statistics they are scored against."""

    profiles: DataFrame
    stats: CorpusStats


def _empty(col, typ):
    return F.coalesce(col, F.array().cast(typ))


def build_profiles(papers: DataFrame, scn: SCN) -> ProfileSet:
    """Aggregate per-vertex profiles from the SCN and the paper database."""
    kw = keywords(papers)
    # One fact per (occurrence, venue) and per (occurrence, keyword), so
    # venues and keywords share one shuffle by vertex and one aggregation.
    fact = lambda key, is_kw: F.struct(  # noqa: E731
        key.alias("key"), F.lit(is_kw).alias("is_kw"), F.col("year").alias("year")
    )
    facts = (
        scn.assignments.select("paper_id", "name", "vertex_id")
        .join(kw.papers, "paper_id")
        .select(
            "name",
            "vertex_id",
            F.explode(
                F.concat(
                    F.array(fact(F.col("venue"), False)),
                    F.transform("kws", lambda k: fact(k, True)),
                )
            ).alias("f"),
        )
        .select("name", "vertex_id", "f.*")
        .repartition("vertex_id")
    )
    per_key = facts.groupBy("name", "vertex_id", "is_kw", "key").agg(
        F.count("*").alias("cnt"), F.min("year").alias("miny"), F.max("year").alias("maxy")
    )
    on_venue = lambda c: F.when(~F.col("is_kw"), c)  # noqa: E731
    on_kw = lambda c: F.when(F.col("is_kw"), c)  # noqa: E731
    vertex_rows = (
        per_key.groupBy("name", "vertex_id")
        .agg(
            # A vertex holds one occurrence per paper: one venue fact each.
            F.sum(on_venue(F.col("cnt"))).alias("n_papers"),
            F.sort_array(F.collect_list(on_venue(F.struct("key", "cnt")))).alias("vc"),
            F.sort_array(F.collect_list(on_kw(F.struct("key", "cnt", "miny", "maxy")))).alias("ks"),
        )
        .select(
            "name",
            "vertex_id",
            "n_papers",
            F.col("vc.key").alias("venue_names"),
            F.col("vc.cnt").alias("venue_counts"),
            F.col("ks.key").alias("kw"),
            F.col("ks.cnt").alias("kw_counts"),
            F.col("ks.miny").cast("array<int>").alias("kw_min_year"),
            F.col("ks.maxy").cast("array<int>").alias("kw_max_year"),
        )
    )

    # WL and triangles from one neighbour exchange, both keyed by vertex.
    graph = vertex_triangles(wl_features(scn.edges)).select(
        "vertex_id", "wl_labels", "wl_counts", "tri"
    )

    prof = (
        vertex_rows.join(graph, "vertex_id", "left")
        .select(
            "name",
            "vertex_id",
            "n_papers",
            "venue_names",
            "venue_counts",
            "kw",
            "kw_counts",
            "kw_min_year",
            "kw_max_year",
            _empty(F.col("wl_labels"), "array<string>").alias("wl_labels"),
            _empty(F.col("wl_counts"), "array<double>").alias("wl_counts"),
            _empty(F.col("tri"), "array<string>").alias("tri"),
        )
    ).localCheckpoint(eager=False)  # truncate the WL/triangle lineage

    stats = CorpusStats(fb=kw.fb, fh=kw.fh, word_vectors=word_vectors(kw.papers, kw.fb))
    return ProfileSet(profiles=prof, stats=stats)


def row_to_profile(row) -> Profile:
    """Convert a profile row (a Spark Row or a mapping with the columns of
    ``build_profiles``' rows) into a ``gammas.Profile``; h_v is
    ``gammas.modal_venue`` of the venue counts."""
    venues = {v: int(c) for v, c in zip(row["venue_names"], row["venue_counts"])}
    return Profile(
        vertex_id=row["vertex_id"],
        name=row["name"],
        n_papers=int(row["n_papers"]),
        venues=venues,
        modal_venue=modal_venue(venues),
        keywords={
            k: (int(c), int(lo), int(hi))
            for k, c, lo, hi in zip(
                row["kw"], row["kw_counts"], row["kw_min_year"], row["kw_max_year"]
            )
        },
        wl={k: float(c) for k, c in zip(row["wl_labels"], row["wl_counts"])},
        triangles=frozenset(row["tri"]),
    )
