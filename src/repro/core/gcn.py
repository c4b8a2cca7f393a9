"""Stage II — Global Collaboration Network (GCN) construction.

Per name (``graph.components.per_name``), score the name's γ block with
the fitted generative model (eq. 11), merge the pairs whose score clears
the decision threshold δ (transitively: one union–find), re-key every
paper occurrence to its merged vertex, and recover the collaborative
relations from the co-author lists (Algorithm 1, lines 11–16): each
paper's list of final vertices gives its edges in-row (``repro.graph.pairs``).
"""
from __future__ import annotations

import dataclasses

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import DoubleType, StructField, StructType

from repro.core.em import EMParams, score_array
from repro.core.gammas import GAMMA_NAMES
from repro.graph.components import UnionFind, per_name
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
    """The pairs with the merge's matching score appended: ``score_array``
    over the γ columns of each Arrow batch; for readers outside the run."""

    def score(batches):
        for pdf in batches:
            yield pdf.assign(score=score_array(pdf[list(GAMMA_NAMES)], params))

    # A new StructType: ``schema.add`` would mutate the input frame's schema.
    schema = StructType([*pairs.schema.fields, StructField("score", DoubleType())])
    return pairs.mapInPandas(score, schema)


def build_gcn(
    scn_assignments: DataFrame, pairs: DataFrame, params: EMParams, *, delta: float
) -> GCN:
    """Merge and re-key the SCN into the GCN: per name, union–find over the
    γ pairs scoring ≥ δ under ``params``; each occurrence takes its merged id."""

    def merge(name, rows):
        """One name's merged vertices, each with its component's smallest id."""
        hit = score_array(np.column_stack([rows[g] for g in GAMMA_NAMES]), params) >= delta
        if not hit.any():
            return None
        uf = UnionFind()
        for u, v in zip(rows["vid_i"][hit], rows["vid_j"][hit]):
            uf.union(u, v)
        comp = uf.components()
        return {"vertex_id": np.array(list(comp), object),
                "gcn_vertex": np.array(list(comp.values()), object)}

    schema = "name string, vertex_id string, gcn_vertex string"
    mapping = per_name(pairs, merge, schema).localCheckpoint(eager=False)
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

