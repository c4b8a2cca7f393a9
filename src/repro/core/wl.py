"""Weisfeiler–Lehman sub-graph kernel features (γ₁).

Per the paper, γ₁ compares two same-name SCN vertices by the WL sub-graph
kernel: inner product of label-count feature maps over h WL refinement
iterations, normalized by the self-kernels (eq. 3–4). This module builds
the label-count maps; the normalization is the γ₁ kernel's own
(``gammas.gamma_block`` and ``gammas.g1_wl_kernel`` take each map's norm).

Implementation: global WL label refinement on the SCN graph in the
adjacency-list form of Shervashidze et al. (*Weisfeiler–Lehman Graph
Kernels*, JMLR 2011). Initial labels are vertex *names* (so shared
co-author names count); a refined label hashes the vertex's own label with
its sorted neighbour labels. A vertex's feature map collects its
**neighbours'** labels at every iteration — its own label is excluded so
that two singleton vertices of the same name have empty feature maps
(kernel 0) rather than trivially kernel 1.

Dataflow: one ``groupBy`` builds every vertex's row (label, neighbour list,
features so far). Each iteration then sends every vertex's label to its
neighbours and regroups by vertex — one shuffle, no join — after which the
received labels are that iteration's features and the refined label is a
function of the vertex's own row.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

#: fields of the per-vertex rows the iterations pass around: a vertex's own
#: row carries its state (label, neighbour ids, features so far); every
#: other row carries one value the vertex received (``got``).
_FIELDS = {"label": "string", "nbrs": "array<string>", "feats": "array<string>", "got": "string"}


def _row(vertex_id, **given):
    """One (vertex_id, label, nbrs, feats, got) struct; fields not given are null."""
    return F.struct(
        vertex_id.alias("vertex_id"),
        *(given.get(c, F.lit(None)).cast(t).alias(c) for c, t in _FIELDS.items()),
    )


def _regroup(rows: DataFrame) -> DataFrame:
    """Explode the structs of the array column ``r`` and group them back by
    vertex: its state plus every received value, as the list ``got``.
    Vertices without a state row drop out."""
    return (
        rows.select(F.explode("r").alias("r"))
        .select("r.*")
        .groupBy("vertex_id")
        .agg(
            *(F.first(c, ignorenulls=True).alias(c) for c in ("label", "nbrs", "feats")),
            F.collect_list("got").alias("got"),
        )
        .where(F.col("label").isNotNull())
    )


def wl_features(edges: DataFrame, vertices: DataFrame, *, h: int = 2) -> DataFrame:
    """WL feature maps for every vertex.

    ``edges``: (u, v) SCN vertex-id pairs. ``vertices``: (vertex_id, name),
    one or more rows per vertex. Returns one row per vertex: (vertex_id,
    wl_labels array<string>, wl_counts array<double>). Vertices with no SCN
    edges get empty maps.
    """
    u, v = F.col("u"), F.col("v")
    state = _regroup(
        vertices.select(F.array(_row(F.col("vertex_id"), label=F.col("name"))).alias("r"))
        .unionByName(edges.select(F.array(_row(u, got=v), _row(v, got=u)).alias("r")))
    ).select(
        "vertex_id",
        "label",
        F.array_distinct("got").alias("nbrs"),
        F.array().cast("array<string>").alias("feats"),
    )

    for it in range(h):
        # Every vertex keeps its own row and sends its label to each neighbour.
        own = _row(
            F.col("vertex_id"), label=F.col("label"), nbrs=F.col("nbrs"), feats=F.col("feats")
        )
        sent = F.transform("nbrs", lambda n: _row(n, got=F.col("label")))
        state = _regroup(state.select(F.concat(F.array(own), sent).alias("r"))).select(
            "vertex_id",
            "nbrs",
            # Feature rows: neighbour labels, iteration-prefixed so label
            # spaces of different refinement depths do not collide.
            F.concat("feats", F.transform("got", lambda x: F.concat(F.lit(f"{it}:"), x))).alias(
                "feats"
            ),
            # Refinement: new label = hash(own label, sorted neighbour labels).
            F.sha2(
                F.concat_ws("|", F.col("label"), F.concat_ws(",", F.array_sort("got"))), 256
            ).substr(1, 16).alias("label"),
        )

    feats = F.array_sort(F.array_distinct("feats"))
    counts = F.transform(
        feats, lambda f: F.size(F.filter("feats", lambda g: g == f)).cast("double")
    )
    return state.select("vertex_id", feats.alias("wl_labels"), counts.alias("wl_counts"))
