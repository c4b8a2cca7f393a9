"""Stage II — Global Collaboration Network (GCN) construction.

Score every same-name vertex pair with the fitted generative model
(eq. 11), merge pairs whose score clears the decision threshold δ
(transitively, per name, via the grouped union–find), re-key every paper
occurrence to its merged vertex, and recover the collaborative relations
from the co-author lists (Algorithm 1, lines 11–16): each paper's list of
final vertices gives its edges in-row (``repro.graph.pairs``).
"""
from __future__ import annotations

import dataclasses

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import DoubleType, StructField, StructType

from repro.core.em import EMParams, score_array
from repro.core.gammas import GAMMA_NAMES
from repro.graph.components import components_per_group
from repro.graph.pairs import pair_counts


@dataclasses.dataclass
class GCN:
    """``mapping`` (name, vertex_id, gcn_vertex): the merged id of every
    SCN vertex in a score ≥ δ pair; a vertex not listed is its own GCN
    vertex. ``assignments``: every (paper_id, name) occurrence with its
    final vertex. ``edges``: collaborative relations recovered from
    co-author lists."""

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


def build_gcn(
    scn_assignments: DataFrame, pairs_scored: DataFrame, *, delta: float
) -> GCN:
    """Merge and re-key the SCN into the GCN: union–find per name over the
    score ≥ δ pairs, then every occurrence takes its vertex's merged id."""
    hits = pairs_scored.where(F.col("score") >= delta).select(
        "name", F.col("vid_i").alias("u"), F.col("vid_j").alias("v")
    )
    mapping = (
        components_per_group(hits)
        .select("name", F.col("node").alias("vertex_id"), F.col("component").alias("gcn_vertex"))
        .localCheckpoint(eager=False)
    )
    assignments = (
        scn_assignments.join(mapping, ["name", "vertex_id"], "left")
        .select(
            "paper_id",
            "name",
            "vertex_id",
            F.coalesce("gcn_vertex", "vertex_id").alias("gcn_vertex"),
        )
        .localCheckpoint(eager=False)
    )
    # Line 16: recover the collaborative relations present in co-author
    # lists — an edge between every pair of final vertices sharing a paper.
    lists = assignments.groupBy("paper_id").agg(F.collect_list("gcn_vertex").alias("vs"))
    edges = pair_counts(lists, "vs", "u", "v")
    return GCN(mapping=mapping, assignments=assignments, edges=edges)
