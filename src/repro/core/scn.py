"""Stage I — Stable Collaboration Network (SCN) construction.

Bottom-up: initially every (paper, name) occurrence is a distinct author.
η-SCRs (name pairs co-occurring ≥ η times in co-author lists — frequent
2-itemsets) are mined first; the stable-triangle insertion rule from the
paper's running example then decides which SCR edges incident to the same
name belong to the same author vertex. Formally, for each name x the SCR
partners of x are grouped by connected components of the *partner graph*
(edges = SCRs among partners); each component is one SCN vertex named x.
Occurrences covered by no SCR in their paper stay singleton vertices.

Dataflow, one shuffle per step:

* name pairs are generated in-row from each co-author list
  (``repro.graph.pairs``), so SCR mining is a single aggregation;
* partner pairs are generated in-row from each name's partner list and
  closed against the SCRs by one join; the per-name union–finds run in one
  ``mapInPandas`` call per partition (``repro.graph.components``);
* the vote joins every occurrence, co-author list in hand, with its name's
  partner → component map and picks the winning component in-row, so
  singletons fall out of the same pass.
"""
from __future__ import annotations

import dataclasses

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.components import components_per_group
from repro.graph.pairs import pair_counts, pairs_in_row

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
    ``edges``       (u, v): SCN edges between vertex ids — one per SCR,
                    linking the vertex of a that contains partner b with the
                    vertex of b that contains partner a.
    """

    scrs: DataFrame
    assignments: DataFrame
    edges: DataFrame


def mine_scrs(papers: DataFrame, *, eta: int) -> DataFrame:
    """η-SCRs by direct pair counting: (a, b, cnt) with a < b, cnt >= eta.

    Equivalent to FP-growth restricted to 2-itemsets (tested against
    ``pyspark.ml.fpm.FPGrowth`` and a DuckDB oracle): the pairs come from
    each co-author list in-row, so one aggregation shuffle does all the work.
    """
    return pair_counts(papers, "names", "a", "b").where(F.col("cnt") >= eta)


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

    # Candidate partner edges: pairs of one name's partners, closed by an SCR.
    lists = partners.groupBy("name").agg(F.collect_list("partner").alias("partners"))
    partner_edges = pairs_in_row(lists, "partners", "u", "v", "name").join(
        scrs.select(F.col("a").alias("u"), F.col("b").alias("v")), ["u", "v"]
    )
    # A self-loop per partner puts isolated partners into the union–find as
    # their own component.
    loops = partners.select("name", F.col("partner").alias("u"), F.col("partner").alias("v"))
    return components_per_group(partner_edges.unionByName(loops)).select(
        "name", F.col("node").alias("partner"), "component"
    )


def scr_vertex_id(name_col, comp_col):
    """Vertex id for an SCR-backed vertex: ``<name>#<component label>``."""
    return F.concat(name_col, F.lit(VSEP), comp_col)


def _vote(names, comp_of):
    """The winning component of one occurrence, or null if none of its
    co-authors is an SCR partner: the component with the most stable
    partners in ``names``; ties break to the largest component label."""
    votes = F.filter(F.transform(names, lambda y: comp_of[y]), lambda c: c.isNotNull())
    tally = F.transform(
        F.array_distinct(votes),
        lambda c: F.struct(
            F.size(F.filter(votes, lambda d: d == c)).alias("votes"), c.alias("component")
        ),
    )
    return F.array_max(tally)["component"]


def build_scn(papers: DataFrame, *, eta: int) -> SCN:
    """Construct the SCN from a paper database (Algorithm 1, lines 2–5)."""
    scrs = mine_scrs(papers, eta=eta)
    # Read by the vote and by the edges below: materialised once.
    pc = partner_components(scrs).localCheckpoint()

    # Vote: each occurrence (p, x) looks up, in x's partner → component map,
    # every co-author of p; the majority component is its vertex.
    comp_of = pc.groupBy("name").agg(
        F.map_from_entries(F.collect_list(F.struct("partner", "component"))).alias("comp_of")
    )
    top = (
        papers.select("paper_id", "names", F.explode("names").alias("name"))
        .join(comp_of, "name", "left")
        .select("paper_id", "name", _vote(F.col("names"), F.col("comp_of")).alias("top"))
    )
    # localCheckpoint truncates the lineage that profiles, WL and pair
    # scoring build on. Under AQE it runs every upstream shuffle stage now,
    # eager or not; only the final stage waits for the first reader.
    assignments = top.select(
        "paper_id",
        "name",
        F.coalesce(
            scr_vertex_id(F.col("name"), F.col("top")),
            F.concat(F.col("name"), F.lit(SSEP), F.col("paper_id").cast("string")),
        ).alias("vertex_id"),
        F.col("top").isNotNull().alias("stable"),
    ).localCheckpoint(eager=False)

    # SCN edges: SCR (a, b) links a's vertex containing b with b's vertex
    # containing a. The majority vote can leave a vertex paperless (every
    # paper that backs its SCR voted for a larger component of the same
    # name); edges to such phantom vertices would distort WL/triangle
    # features, so both ends must have received occurrences. Each SCR has
    # one half-edge per end: the vertex of that end's name holding the other.
    half = pc.select(
        F.least("name", "partner").alias("a"),
        F.greatest("name", "partner").alias("b"),
        "name",
        scr_vertex_id(F.col("name"), F.col("component")).alias("vertex_id"),
    ).join(assignments.select("vertex_id"), "vertex_id", "left_semi")
    end = lambda side: F.max(F.when(F.col("name") == F.col(side), F.col("vertex_id")))  # noqa: E731
    edges = (
        half.groupBy("a", "b")
        .agg(end("a").alias("u"), end("b").alias("v"))
        .where(F.col("u").isNotNull() & F.col("v").isNotNull())
        .select("u", "v")
        .localCheckpoint(eager=False)
    )
    return SCN(scrs=scrs, assignments=assignments, edges=edges)
