"""Stage II — Global Collaboration Network (GCN) construction.

Score every same-name vertex pair with the fitted generative model
(eq. 11), merge pairs whose score clears the decision threshold δ
(transitively, per name, via the grouped union–find), re-key every paper
occurrence to its merged vertex, and recover the collaborative relations
from the co-author lists (Algorithm 1, lines 11–16).
"""
from __future__ import annotations

import dataclasses

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import DoubleType, StructField, StructType

from repro.core.em import EMParams, score_array
from repro.core.gammas import GAMMA_NAMES
from repro.graph.components import components_per_group


@dataclasses.dataclass
class GCN:
    """``mapping``: vertex_id -> gcn_vertex (merged id). ``assignments``:
    every (paper_id, name) occurrence with its final vertex. ``edges``:
    collaborative relations recovered from co-author lists."""

    mapping: DataFrame
    assignments: DataFrame
    edges: DataFrame


def score_pairs(pairs: DataFrame, params: EMParams) -> DataFrame:
    """Append the matching score column: ``score_array`` over the γ columns
    of each Arrow batch (per-partition posterior odds)."""

    def score(batches):
        for pdf in batches:
            yield pdf.assign(score=score_array(pdf[list(GAMMA_NAMES)], params))

    # A new StructType: ``schema.add`` would mutate the input frame's schema.
    schema = StructType([*pairs.schema.fields, StructField("score", DoubleType())])
    return pairs.mapInPandas(score, schema)


def merge_mapping(pairs_scored: DataFrame, vertices: DataFrame, *, delta: float) -> DataFrame:
    """(name, vertex_id, gcn_vertex): union–find over score ≥ δ pairs.

    ``vertices``: (name, vertex_id) of all SCN vertices — unmerged vertices
    map to themselves.
    """
    hits = pairs_scored.where(F.col("score") >= delta).select(
        "name", F.col("vid_i").alias("u"), F.col("vid_j").alias("v")
    )
    comp = components_per_group(hits, key="name", u="u", v="v").select(
        "name", F.col("node").alias("vertex_id"), F.col("component").alias("gcn_vertex")
    )
    return (
        vertices.join(comp, ["name", "vertex_id"], "left")
        .withColumn("gcn_vertex", F.coalesce("gcn_vertex", "vertex_id"))
    )


def build_gcn(
    scn_assignments: DataFrame, pairs_scored: DataFrame, *, delta: float
) -> GCN:
    """Merge and re-key the SCN into the GCN."""
    vertices = scn_assignments.select("name", "vertex_id").dropDuplicates(
        ["name", "vertex_id"]
    )
    mapping = merge_mapping(pairs_scored, vertices, delta=delta).localCheckpoint(
        eager=False
    )
    assignments = (
        scn_assignments.join(mapping, ["name", "vertex_id"])
        .select("paper_id", "name", "vertex_id", "gcn_vertex")
        .localCheckpoint(eager=False)
    )
    # Line 16: recover the collaborative relations present in co-author
    # lists — an edge between every pair of final vertices sharing a paper.
    occ = assignments.select("paper_id", F.col("gcn_vertex").alias("u"))
    edges = (
        occ.join(occ.select("paper_id", F.col("u").alias("v")), "paper_id")
        .where(F.col("u") < F.col("v"))
        .groupBy("u", "v")
        .agg(F.count("*").alias("cnt"))
    )
    return GCN(mapping=mapping, assignments=assignments, edges=edges)
