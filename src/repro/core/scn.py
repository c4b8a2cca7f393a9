"""Stage I — Stable Collaboration Network (SCN) construction.

Bottom-up: initially every (paper, name) occurrence is a distinct author.
η-SCRs (name pairs co-occurring ≥ η times in co-author lists — frequent
2-itemsets) are mined first; the stable-triangle insertion rule from the
paper's running example then decides which SCR edges incident to the same
name belong to the same author vertex. Formally, for each name x the SCR
partners of x are grouped by connected components of the *partner graph*
(edges = SCRs among partners); each component is one SCN vertex named x.
Occurrences covered by no SCR in their paper stay singleton vertices.

Everything is DataFrame dataflow keyed by name / paper_id; the only local
computation is the per-name union–find inside ``applyInPandas``
(``repro.graph.components``).
"""
from __future__ import annotations

import dataclasses

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.components import components_per_group

#: separator between a name and its component label in an SCR vertex id.
VSEP = "#"
#: separator between a name and its paper id in a singleton vertex id.
SSEP = "@"


@dataclasses.dataclass
class SCN:
    """The stable collaboration network.

    ``scrs``        (a, b, cnt): η-SCRs with a < b and co-occurrence count.
    ``assignments`` (paper_id, name, vertex_id, stable): every co-author
                    occurrence mapped to its SCN vertex; ``stable`` marks
                    SCR-backed vertices vs singleton ones.
    ``edges``       (u, v, cnt): SCN edges between vertex ids — one per SCR,
                    linking the vertex of a that contains partner b with the
                    vertex of b that contains partner a.
    """

    scrs: DataFrame
    assignments: DataFrame
    edges: DataFrame


def occurrences(papers: DataFrame) -> DataFrame:
    """(paper_id, name) — one row per slot in a co-author list."""
    return papers.select("paper_id", F.explode("names").alias("name"))


def mine_scrs(papers: DataFrame, *, eta: int = 2) -> DataFrame:
    """η-SCRs by direct pair counting: (a, b, cnt) with a < b, cnt >= eta.

    Equivalent to FP-growth restricted to 2-itemsets (tested against
    ``mine_scrs_fpgrowth`` and a DuckDB oracle); a single shuffle join +
    aggregation is the efficient dataflow for the 2-itemset case.
    """
    occ = occurrences(papers)
    a = occ.select("paper_id", F.col("name").alias("a"))
    b = occ.select("paper_id", F.col("name").alias("b"))
    return (
        a.join(b, "paper_id")
        .where(F.col("a") < F.col("b"))
        .groupBy("a", "b")
        .agg(F.count("*").alias("cnt"))
        .where(F.col("cnt") >= eta)
    )


def mine_scrs_fpgrowth(papers: DataFrame, *, eta: int = 2) -> DataFrame:
    """η-SCRs via ``pyspark.ml.fpm.FPGrowth`` (the paper's Step I verbatim).

    Mines all frequent itemsets with support η/N and keeps the 2-itemsets.
    Co-author lists are already duplicate-free by construction.
    """
    from pyspark.ml.fpm import FPGrowth

    n = papers.count()
    model = FPGrowth(
        itemsCol="names", minSupport=max(eta / n, 1e-12), minConfidence=0.5
    ).fit(papers.select("paper_id", "names"))
    two = model.freqItemsets.where(F.size("items") == 2)
    return two.select(
        F.array_min("items").alias("a"),
        F.array_max("items").alias("b"),
        F.col("freq").alias("cnt"),
    ).where(F.col("cnt") >= eta)


def partner_components(scrs: DataFrame) -> DataFrame:
    """(name, partner, component): which author-vertex of ``name`` each SCR
    partner belongs to.

    Component = connected component of the partner graph of ``name``
    (edges = SCRs among partners). Partners in no partner edge are their own
    component. The component label is the smallest partner name in the
    component, giving stable vertex ids.
    """
    partners = scrs.select(
        F.col("a").alias("name"), F.col("b").alias("partner")
    ).unionByName(scrs.select(F.col("b").alias("name"), F.col("a").alias("partner")))

    p1 = partners.select("name", F.col("partner").alias("u"))
    p2 = partners.select("name", F.col("partner").alias("v"))
    partner_pairs = p1.join(p2, "name").where(F.col("u") < F.col("v"))
    scr_edges = scrs.select(F.col("a").alias("u"), F.col("b").alias("v"))
    partner_edges = partner_pairs.join(scr_edges, ["u", "v"])

    comp = components_per_group(partner_edges, key="name", u="u", v="v").select(
        "name", F.col("node").alias("partner"), "component"
    )
    return (
        partners.join(comp, ["name", "partner"], "left")
        .withColumn("component", F.coalesce("component", "partner"))
    )


def scr_vertex_id(name_col, comp_col):
    """Vertex id for an SCR-backed vertex: ``<name>#<component label>``."""
    return F.concat(name_col, F.lit(VSEP), comp_col)


def build_scn(papers: DataFrame, *, eta: int = 2) -> SCN:
    """Construct the SCN from a paper database (Algorithm 1, lines 2–5)."""
    scrs = mine_scrs(papers, eta=eta).cache()
    pc = partner_components(scrs).cache()
    occ = occurrences(papers)

    # Stable co-presence: occurrence (p, x) together with partner y in the
    # same co-author list where (x, y) is an SCR.
    o1 = occ.select("paper_id", F.col("name").alias("x"))
    o2 = occ.select("paper_id", F.col("name").alias("y"))
    copresent = o1.join(o2, "paper_id").where(F.col("x") != F.col("y"))
    scr_pairs = scrs.select(F.col("a").alias("x"), F.col("b").alias("y")).unionByName(
        scrs.select(F.col("b").alias("x"), F.col("a").alias("y"))
    )
    stable_co = copresent.join(scr_pairs, ["x", "y"])

    # Vote: an occurrence goes to the partner-component with the most stable
    # partners present in this paper; ties break to the smallest component
    # label (deterministic).
    voted = (
        stable_co.join(
            pc.select(F.col("name").alias("x"), F.col("partner").alias("y"), "component"),
            ["x", "y"],
        )
        .groupBy("paper_id", "x", "component")
        .agg(F.count("*").alias("votes"))
    )
    # Deterministic reduction: max over (votes, component) struct picks the
    # highest vote count, breaking ties to the largest component label.
    best = (
        voted.groupBy("paper_id", "x")
        .agg(F.max(F.struct(F.col("votes"), F.col("component"))).alias("top"))
        .select(
            "paper_id",
            "x",
            F.col("top.component").alias("component"),
        )
    )

    assigned = best.select(
        "paper_id",
        F.col("x").alias("name"),
        scr_vertex_id(F.col("x"), F.col("component")).alias("vertex_id"),
        F.lit(True).alias("stable"),
    )

    singles = (
        occ.join(assigned.select("paper_id", "name"), ["paper_id", "name"], "left_anti")
        .select(
            "paper_id",
            "name",
            F.concat(F.col("name"), F.lit(SSEP), F.col("paper_id").cast("string")).alias(
                "vertex_id"
            ),
            F.lit(False).alias("stable"),
        )
    )
    # localCheckpoint truncates the join-heavy lineage: downstream stages
    # (profiles, WL, pair scoring) otherwise accumulate a plan tree large
    # enough to OOM the driver when Spark renders it.
    assignments = assigned.unionByName(singles).localCheckpoint(eager=False)

    # SCN edges: SCR (a, b) links a's vertex containing b with b's vertex
    # containing a.
    pa = pc.select(
        F.col("name").alias("a"), F.col("partner").alias("b"),
        scr_vertex_id(F.col("name"), F.col("component")).alias("u"),
    )
    pb = pc.select(
        F.col("name").alias("b"), F.col("partner").alias("a"),
        scr_vertex_id(F.col("name"), F.col("component")).alias("v"),
    )
    edges = scrs.join(pa, ["a", "b"]).join(pb, ["a", "b"]).select("u", "v", "cnt")
    # The majority vote above can leave a vertex paperless (every paper that
    # backs its SCR voted for a larger component of the same name); edges to
    # such phantom vertices would distort WL/triangle features, so keep only
    # edges between vertices that actually received occurrences.
    live = assignments.select("vertex_id").distinct()
    edges = (
        edges.join(live.withColumnRenamed("vertex_id", "u"), "u")
        .join(live.withColumnRenamed("vertex_id", "v"), "v")
        .select("u", "v", "cnt")
        .localCheckpoint(eager=False)
    )

    return SCN(scrs=scrs, assignments=assignments, edges=edges)
