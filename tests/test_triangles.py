"""Triangle literals closed in-row from the WL neighbour exchange vs brute force."""
from itertools import combinations

import numpy as np
import pandas as pd
import pytest

from repro.core.wl import wl_features
from repro.graph.triangles import vertex_triangles


def brute_triangles(edges: set[tuple[str, str]]) -> set[tuple[str, str, str]]:
    nodes = sorted({x for e in edges for x in e})
    has = lambda a, b: (min(a, b), max(a, b)) in edges  # noqa: E731
    return {
        (a, b, c)
        for a, b, c in combinations(nodes, 3)
        if has(a, b) and has(b, c) and has(a, c)
    }


def brute_literals(edges: set[tuple[str, str]]) -> set[tuple[str, str]]:
    """(vertex, literal) of every triangle corner: the sorted names of the
    two other corners, unless one of them has the corner's own name."""
    name = lambda x: x.split("#")[0]  # noqa: E731
    out = set()
    for tri in brute_triangles(edges):
        for x in tri:
            others = sorted(name(y) for y in tri if y != x)
            if name(x) not in others:
                out.add((x, "|".join(others)))
    return out


def literals(spark, edges) -> set[tuple[str, str]]:
    df = spark.createDataFrame(pd.DataFrame(sorted(edges), columns=["u", "v"]))
    rows = vertex_triangles(wl_features(df)).collect()
    return {(r.vertex_id, t) for r in rows for t in r.tri}


@pytest.mark.spark
class TestTriangles:
    def test_single_triangle(self, spark):
        got = literals(spark, [("a#1", "b#1"), ("b#1", "c#1"), ("c#1", "a#1")])
        assert got == {("a#1", "b|c"), ("b#1", "a|c"), ("c#1", "a|b")}

    def test_square_has_none(self, spark):
        edges = [("a#1", "b#1"), ("b#1", "c#1"), ("c#1", "d#1"), ("d#1", "a#1")]
        assert literals(spark, edges) == set()

    def test_canonical_dedup(self, spark):
        """A repeated or reversed edge is one neighbour: one message, one
        WL count, one literal per triangle."""
        edges = [("b#1", "a#1"), ("a#1", "b#1"), ("a#1", "b#1"), ("b#1", "c#1"), ("a#1", "c#1")]
        df = spark.createDataFrame(pd.DataFrame(edges, columns=["u", "v"]))
        rows = {r.vertex_id: r for r in vertex_triangles(wl_features(df)).collect()}
        assert sorted(m.id for m in rows["a#1"].got) == ["b#1", "c#1"]
        assert dict(zip(rows["a#1"].wl_labels, rows["a#1"].wl_counts))["0:b"] == 1.0
        assert rows["a#1"].tri == ["b|c"]

    def test_random_graph_vs_brute(self, spark):
        """Random graphs, several vertices per name and some edges between
        two vertices of one name, as sets of (vertex, literal)."""
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            verts = [f"v{i}#{k}" for i in range(8) for k in range(rng.integers(1, 3))]
            edges = {
                tuple(sorted((verts[a], verts[b])))
                for a, b in rng.choice(len(verts), size=(45, 2))
                if a != b
            }
            assert brute_literals(edges)
            assert literals(spark, edges) == brute_literals(edges), seed

    def test_vertex_triangles_cover_all_corners(self, spark):
        edges = [("a#1", "b#1"), ("b#1", "c#1"), ("c#1", "a#1"), ("c#1", "d#1")]
        df = spark.createDataFrame(pd.DataFrame(edges, columns=["u", "v"]))
        tri = {r.vertex_id: r.tri for r in vertex_triangles(wl_features(df)).collect()}
        assert {v for v, t in tri.items() if t} == {"a#1", "b#1", "c#1"}
        assert tri["d#1"] == []
