"""Weisfeiler–Lehman sub-graph kernel features (γ₁).

Per the paper, γ₁ compares two same-name SCN vertices by the WL sub-graph
kernel: inner product of label-count feature maps over h = 2 WL refinement
iterations, normalized by the self-kernels (eq. 3–4). This module builds
the label-count maps; the normalization is the γ₁ kernel's own
(``gammas.gamma_block`` and ``gammas.g1_wl_kernel`` take each map's norm).

Implementation: global WL label refinement on the SCN graph in the
adjacency-list form of Shervashidze et al. (*Weisfeiler–Lehman Graph
Kernels*, JMLR 2011). Initial labels are vertex *names* (so shared
co-author names count); the refined label hashes the vertex's own label
with its sorted neighbour labels. A vertex's feature map collects its
**neighbours'** labels at both iterations — its own label is excluded so
that two singleton vertices of the same name have empty feature maps
(kernel 0) rather than trivially kernel 1.

Dataflow: one ``groupBy`` gives every vertex its neighbour list, from
which (the names being part of the vertex ids) it computes its refined
label. One exchange then sends each vertex's id, refined label and
neighbour list to every neighbour. What a vertex receives holds both
iterations' features — the senders' names and refined labels — and,
with the neighbour lists, every triangle through the vertex
(``repro.graph.triangles.vertex_triangles``).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.scn import vertex_name


def wl_features(edges: DataFrame) -> DataFrame:
    """WL (h = 2) feature maps of every vertex with an SCN edge.

    ``edges``: (u, v) pairs of SCR-backed vertex ids. Returns one row per
    vertex with an edge: (vertex_id, name, got, wl_labels array<string>,
    wl_counts array<double>), where ``got`` holds what each neighbour
    sent: a struct of its id, name, refined label and neighbour list.
    Vertices without edges have no row: their maps are empty.
    """
    u, v = F.col("u"), F.col("v")
    half = lambda a, b: F.struct(a.alias("vertex_id"), b.alias("nbr"))  # noqa: E731
    adjacency = (
        edges.select(F.explode(F.array(half(u, v), half(v, u))).alias("e"))
        .groupBy("e.vertex_id")
        .agg(F.array_distinct(F.collect_list("e.nbr")).alias("nbrs"))
    )
    # Refinement: label = hash(own name, sorted neighbour names).
    refined = F.sha2(
        F.concat_ws(
            "|",
            vertex_name(F.col("vertex_id")),
            F.concat_ws(",", F.array_sort(F.transform("nbrs", vertex_name))),
        ),
        256,
    ).substr(1, 16)
    sent = F.struct(
        F.col("vertex_id").alias("id"),
        vertex_name(F.col("vertex_id")).alias("name"),
        refined.alias("label"),
        F.col("nbrs").alias("nbrs"),
    )
    got = (
        # The struct is built before the explode: a generator in the same
        # select drops the struct's field names.
        adjacency.select("nbrs", sent.alias("m"))
        .select(F.explode("nbrs").alias("vertex_id"), "m")
        .groupBy("vertex_id")
        .agg(F.collect_list("m").alias("got"))
    )
    # Feature rows: neighbour labels, iteration-prefixed so label spaces of
    # different refinement depths do not collide.
    feats = F.concat(
        F.transform("got", lambda m: F.concat(F.lit("0:"), m["name"])),
        F.transform("got", lambda m: F.concat(F.lit("1:"), m["label"])),
    )
    labels = F.array_sort(F.array_distinct(feats))
    counts = F.transform(labels, lambda f: F.size(F.filter(feats, lambda g: g == f)).cast("double"))
    return got.select(
        "vertex_id",
        vertex_name(F.col("vertex_id")).alias("name"),
        "got",
        labels.alias("wl_labels"),
        counts.alias("wl_counts"),
    )
