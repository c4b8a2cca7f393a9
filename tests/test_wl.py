"""WL sub-graph kernel features over the SCN graph."""
import pandas as pd
import pytest

from repro.core.gammas import Profile, g1_wl_kernel
from repro.core.wl import wl_features


def feats_df(spark, edges, vertices):
    e = spark.createDataFrame(pd.DataFrame(edges, columns=["u", "v"]))
    v = spark.createDataFrame(pd.DataFrame(vertices, columns=["vertex_id", "name"]))
    return {
        r.vertex_id: dict(zip(r.wl_labels, r.wl_counts))
        for r in wl_features(e, v, h=2).collect()
    }


@pytest.mark.spark
class TestWLFeatures:
    def test_isolated_vertex_empty(self, spark):
        out = feats_df(spark, [("a#1", "b#1")], [("a#1", "a"), ("b#1", "b"), ("z@5", "z")])
        assert out["z@5"] == {}

    def test_iteration_zero_counts_neighbor_names(self, spark):
        out = feats_df(
            spark,
            [("a#1", "b#1"), ("a#1", "c#1")],
            [("a#1", "a"), ("b#1", "b"), ("c#1", "c")],
        )
        m = out["a#1"]
        assert m["0:b"] == 1.0 and m["0:c"] == 1.0

    def test_symmetric_vertices_identical_features(self, spark):
        """Two disjoint copies of the same labelled structure must produce
        identical WL maps for corresponding vertices."""
        out = feats_df(
            spark,
            [("a#1", "b#1"), ("a#2", "b#2")],
            [("a#1", "a"), ("a#2", "a"), ("b#1", "b"), ("b#2", "b")],
        )
        assert out["a#1"] == out["a#2"]
        assert out["b#1"] == out["b#2"]

    def test_h1_excludes_refined_labels(self, spark):
        e = [("a#1", "b#1")]
        v = [("a#1", "a"), ("b#1", "b")]
        edf = spark.createDataFrame(pd.DataFrame(e, columns=["u", "v"]))
        vdf = spark.createDataFrame(pd.DataFrame(v, columns=["vertex_id", "name"]))
        rows = wl_features(edf, vdf, h=1).collect()
        for r in rows:
            assert all(l.startswith("0:") for l in r.wl_labels)

    def test_norm_is_l2_of_counts(self, spark):
        out = feats_df(
            spark,
            [("a#1", "b#1"), ("a#1", "b#2")],
            [("a#1", "a"), ("b#1", "b"), ("b#2", "b")],
        )
        m = out["a#1"]
        # two neighbors both named b at iteration 0 -> count 2 for "0:b";
        # iteration-1 labels of the two b vertices are identical -> count 2.
        assert m["0:b"] == 2.0
        # γ₁ normalises by the L2 norm of these counts (the self-kernel).
        p = Profile("a#1", "a", 1, {}, None, {}, wl=m)
        q = Profile("a#9", "a", 1, {}, None, {}, wl={"0:b": 1.0})
        assert g1_wl_kernel(p, q) == pytest.approx(2.0 / sum(c * c for c in m.values()) ** 0.5)

    def test_structural_difference_shows_at_h2(self, spark):
        """Two vertices with same-name neighbors but different 2-hop
        structure must differ in refined labels."""
        edges = [
            ("t#1", "m#1"), ("m#1", "p#1"),   # t1 - m(with p)
            ("t#2", "m#2"),                    # t2 - m(alone)
        ]
        verts = [("t#1", "t"), ("t#2", "t"), ("m#1", "m"), ("m#2", "m"), ("p#1", "p")]
        out = feats_df(spark, edges, verts)
        m1, m2 = out["t#1"], out["t#2"]
        assert {k for k in m1 if k.startswith("0:")} == {"0:m"}
        assert {k for k in m2 if k.startswith("0:")} == {"0:m"}
        assert {k for k in m1 if k.startswith("1:")} != {k for k in m2 if k.startswith("1:")}
