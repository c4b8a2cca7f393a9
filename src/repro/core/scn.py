"""Stage I — Stable Collaboration Network (SCN) construction.

Bottom-up: initially every (paper, name) occurrence is a distinct author.
η-SCRs (name pairs co-occurring ≥ η times in co-author lists — frequent
2-itemsets) are mined first; the stable-triangle insertion rule from the
paper's running example then decides which SCR edges incident to the same
name belong to the same author vertex. Formally, for each name x the SCR
partners of x are grouped by connected components of the *partner graph*
(edges = SCRs among partners); each component is one SCN vertex named x.
Occurrences covered by no SCR in their paper stay singleton vertices.

Dataflow:

* name pairs are generated in-row from each co-author list
  (``repro.graph.pairs``), so SCR mining is a single aggregation;
* one shuffle groups the SCRs into each name's partner list, and the
  per-name pass (``graph.components.per_name``) brings each name its
  partners' lists and its occurrences with their co-author lists;
  ``_stage_one`` then runs the name's partner union–find (two partners are
  linked when one's list holds the other) and votes every occurrence onto
  a component in Python, singletons included. It also lists the partners
  of every component that received an occurrence, which is all the SCN
  edges need.
"""
from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.components import UnionFind, per_name
from repro.graph.pairs import pair_counts

#: separator between a name and its component label in an SCR vertex id.
VSEP = "#"
#: separator between a name and its paper id in a singleton vertex id.
SSEP = "@"

#: Rows of the Stage I pass: an assignment (``pid`` set) or a partner of a
#: component that received an occurrence (``partner`` set).
_OUT = "name string, vertex_id string, pid string, stable boolean, partner string"


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


def vertex_name(vertex_id):
    """The name of an SCR-backed vertex, the part of its id before ``VSEP``."""
    return F.substring_index(vertex_id, VSEP, 1)


def _stage_one(name, rows):
    """One name's partner union–find and the vote of each of its occurrences.

    Each row holds one of: the partner list ``items`` of one of the name's
    SCR partners ``partner``, or an occurrence (``pid``, co-author list
    ``items``). Every name with partners has occurrences: its SCRs come
    from them.

    The partners of a name are the names that sent it their lists; two of
    them are linked when one's list holds the other (an SCR). Component =
    connected component of that partner graph, labelled by its smallest
    partner name. An occurrence goes to the component with the most of its
    co-authors among the partners (ties: the largest label), or to a
    singleton if none of its co-authors is a partner.
    """
    uf = UnionFind()
    sent = [(u, theirs) for u, pid, theirs in zip(rows["partner"], rows["pid"], rows["items"])
            if pid is None]
    partners = {u for u, _ in sent}
    for u, theirs in sent:
        uf.find(u)
        for w in theirs:
            if w in partners:
                uf.union(u, w)
    comp = uf.components()
    out, won = [], set()
    for pid, coauthors in zip(rows["pid"], rows["items"]):
        if pid is None:
            continue
        votes = Counter(comp[y] for y in coauthors if y in comp)
        if votes:
            top = max(votes.items(), key=lambda kv: (kv[1], kv[0]))[0]
            won.add(top)
            out.append((f"{name}{VSEP}{top}", pid, True, None))
        else:
            out.append((f"{name}{SSEP}{pid}", pid, False, None))
    # The vote can leave a component paperless (every paper backing its
    # SCRs voted for a larger one); only components with papers are
    # vertices, so only their partners can end an SCN edge.
    out += [(f"{name}{VSEP}{root}", None, True, p) for p, root in comp.items() if root in won]
    columns = (np.array(c, object) for c in zip(*out))
    return dict(zip(("vertex_id", "pid", "stable", "partner"), columns))


def build_scn(papers: DataFrame, *, eta: int) -> SCN:
    """Construct the SCN from a paper database (Algorithm 1, lines 2–5)."""
    scrs = mine_scrs(papers, eta=eta)
    partners = scrs.select(
        F.col("a").alias("name"), F.col("b").alias("partner")
    ).unionByName(scrs.select(F.col("b").alias("name"), F.col("a").alias("partner")))
    lists = partners.groupBy("name").agg(F.collect_list("partner").alias("items"))
    # Every name sends its partner list to each of its partners, which
    # closes the partner pairs against the SCRs without a join.
    sent = lists.select(
        F.explode("items").alias("name"), F.col("name").alias("partner"), "items"
    )
    # The paper id travels as a string: a long column with nulls reaches
    # pandas as float64.
    occurrences = papers.select(
        F.explode("names").alias("name"),
        F.col("paper_id").cast("string").alias("pid"),
        F.col("names").alias("items"),
    )
    rows = sent.unionByName(occurrences, allowMissingColumns=True)
    # Read by the assignments and by the edges below: materialised once.
    # Under AQE localCheckpoint runs every upstream shuffle stage now,
    # eager or not; only the final stage waits for the first reader.
    out = per_name(rows, _stage_one, _OUT).localCheckpoint(eager=False)
    assignments = out.where(F.col("pid").isNotNull()).select(
        F.col("pid").cast("long").alias("paper_id"), "name", "vertex_id", "stable"
    )

    # SCN edges: SCR (a, b) links a's vertex containing b with b's vertex
    # containing a, when both vertices received occurrences. Each SCR has
    # one half-edge per end: the vertex of that end's name holding the other.
    half = out.where(F.col("partner").isNotNull()).select(
        F.least("name", "partner").alias("a"),
        F.greatest("name", "partner").alias("b"),
        "name",
        "vertex_id",
    )
    end = lambda side: F.max(F.when(F.col("name") == F.col(side), F.col("vertex_id")))  # noqa: E731
    edges = (
        half.groupBy("a", "b")
        .agg(end("a").alias("u"), end("b").alias("v"))
        .where(F.col("u").isNotNull() & F.col("v").isNotNull())
        .select("u", "v")
        .localCheckpoint(eager=False)
    )
    return SCN(scrs=scrs, assignments=assignments, edges=edges)
