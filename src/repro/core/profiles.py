"""Per-vertex profiles: Spark aggregation of everything γ₁..γ₆ consume.

One row per SCN vertex with venue/keyword/WL/triangle summaries. The heavy
lifting (joins, groupBys, WL refinement, triangle listing) is Catalyst
dataflow; the result is compact enough to group by name for per-partition
pair scoring, or to collect per name for incremental judgement.
"""
from __future__ import annotations

import dataclasses

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.gammas import ALPHA, CorpusStats, Profile
from repro.core.scn import SCN, VSEP
from repro.core.wl import wl_features
from repro.graph.triangles import vertex_triangles
from repro.text.embeddings import word_vectors
from repro.text.keywords import keyword_frequencies, keywords

PROFILE_SCHEMA = (
    "name string, vertex_id string, n_papers long, "
    "venue_names array<string>, venue_counts array<long>, modal_venue string, "
    "kw array<string>, kw_counts array<long>, kw_min_year array<int>, kw_max_year array<int>, "
    "wl_labels array<string>, wl_counts array<double>, wl_norm double, tri array<string>"
)


@dataclasses.dataclass
class ProfileSet:
    """Vertex profiles plus the corpus statistics they are scored against."""

    profiles: DataFrame
    stats: CorpusStats


def _empty(col, typ):
    return F.coalesce(col, F.array().cast(typ))


def build_profiles(spark: SparkSession, papers: DataFrame, scn: SCN) -> ProfileSet:
    """Aggregate per-vertex profiles from the SCN and the paper database."""
    kw = keywords(papers).cache()
    asg = scn.assignments.cache()
    meta = papers.select("paper_id", "venue", "year")
    base = asg.join(meta, "paper_id").cache()

    n_papers = base.groupBy("name", "vertex_id").agg(
        F.countDistinct("paper_id").alias("n_papers")
    )

    ven = (
        base.groupBy("vertex_id", "venue")
        .agg(F.count("*").alias("cnt"))
        .groupBy("vertex_id")
        .agg(
            F.sort_array(F.collect_list(F.struct("venue", "cnt"))).alias("vc"),
            F.max(F.struct("cnt", "venue")).alias("modal"),
        )
        .select(
            "vertex_id",
            F.col("vc.venue").alias("venue_names"),
            F.col("vc.cnt").alias("venue_counts"),
            F.col("modal.venue").alias("modal_venue"),
        )
    )

    kwa = (
        base.join(kw, "paper_id")
        .groupBy("vertex_id", "keyword")
        .agg(
            F.count("*").alias("cnt"),
            F.min("year").alias("miny"),
            F.max("year").alias("maxy"),
        )
        .groupBy("vertex_id")
        .agg(F.sort_array(F.collect_list(F.struct("keyword", "cnt", "miny", "maxy"))).alias("ks"))
        .select(
            "vertex_id",
            F.col("ks.keyword").alias("kw"),
            F.col("ks.cnt").alias("kw_counts"),
            F.col("ks.miny").cast("array<int>").alias("kw_min_year"),
            F.col("ks.maxy").cast("array<int>").alias("kw_max_year"),
        )
    )

    vertices = asg.select("vertex_id", "name").dropDuplicates(["vertex_id"])
    wl = wl_features(scn.edges, vertices)

    # Triangle sets, keyed by the *names* of the other two corners so that
    # two same-name vertices can share a triangle literal.
    vt = vertex_triangles(scn.edges)
    vname = lambda c: F.substring_index(F.col(c), VSEP, 1)  # noqa: E731
    tri = (
        vt.select(
            F.col("node").alias("vertex_id"),
            F.array_sort(
                F.filter(
                    F.array(vname("a"), vname("b"), vname("c")),
                    lambda x: x != F.substring_index(F.col("node"), VSEP, 1),
                )
            ).alias("others"),
        )
        .where(F.size("others") == 2)
        .select("vertex_id", F.concat_ws("|", "others").alias("t"))
        .groupBy("vertex_id")
        .agg(F.collect_set("t").alias("tri"))
    )

    prof = (
        n_papers.join(ven, "vertex_id", "left")
        .join(kwa, "vertex_id", "left")
        .join(wl, "vertex_id", "left")
        .join(tri, "vertex_id", "left")
        .select(
            "name",
            "vertex_id",
            "n_papers",
            _empty(F.col("venue_names"), "array<string>").alias("venue_names"),
            _empty(F.col("venue_counts"), "array<long>").alias("venue_counts"),
            "modal_venue",
            _empty(F.col("kw"), "array<string>").alias("kw"),
            _empty(F.col("kw_counts"), "array<long>").alias("kw_counts"),
            _empty(F.col("kw_min_year"), "array<int>").alias("kw_min_year"),
            _empty(F.col("kw_max_year"), "array<int>").alias("kw_max_year"),
            _empty(F.col("wl_labels"), "array<string>").alias("wl_labels"),
            _empty(F.col("wl_counts"), "array<double>").alias("wl_counts"),
            F.coalesce("wl_norm", F.lit(0.0)).alias("wl_norm"),
            _empty(F.col("tri"), "array<string>").alias("tri"),
        )
    ).localCheckpoint(eager=False)  # truncate the WL/triangle join lineage

    fb = {r["keyword"]: r["fb"] for r in keyword_frequencies(kw).collect()}
    fh = {
        r["venue"]: r["n"]
        for r in papers.groupBy("venue").agg(F.countDistinct("paper_id").alias("n")).collect()
    }
    wv = word_vectors(kw)
    vecs = {k: np.asarray(v) for k, v in zip(wv["keyword"], wv["vec"])}
    dim = len(next(iter(vecs.values()))) if vecs else 0
    stats = CorpusStats(fb=fb, fh=fh, word_vectors=vecs, dim=dim, alpha=ALPHA)
    return ProfileSet(profiles=prof, stats=stats)


def row_to_profile(row) -> Profile:
    """Convert a profile row (Spark Row / pandas namedtuple-like mapping with
    the PROFILE_SCHEMA fields) into a ``gammas.Profile``."""
    get = row.__getitem__ if hasattr(row, "__getitem__") else getattr
    return Profile(
        vertex_id=get("vertex_id"),
        name=get("name"),
        n_papers=int(get("n_papers")),
        venues={v: int(c) for v, c in zip(get("venue_names"), get("venue_counts"))},
        modal_venue=get("modal_venue"),
        keywords={
            k: (int(c), int(lo), int(hi))
            for k, c, lo, hi in zip(
                get("kw"), get("kw_counts"), get("kw_min_year"), get("kw_max_year")
            )
        },
        wl={k: float(c) for k, c in zip(get("wl_labels"), get("wl_counts"))},
        wl_norm=float(get("wl_norm")),
        triangles=frozenset(get("tri")),
    )
