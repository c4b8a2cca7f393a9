"""WL sub-graph kernel features over the SCN graph."""
import hashlib
from collections import Counter, defaultdict

import numpy as np
import pandas as pd
import pytest

from repro.core.gammas import Profile, g1_wl_kernel
from repro.core.wl import wl_features


def wl_rows(spark, edges):
    e = spark.createDataFrame(pd.DataFrame(edges, columns=["u", "v"]))
    return {
        r.vertex_id: dict(zip(r.wl_labels, r.wl_counts)) for r in wl_features(e).collect()
    }


def feats_df(spark, edges, vertex_ids):
    """Every given vertex's WL map; a vertex without edges has no row,
    so its map is empty (as in its profile)."""
    rows = wl_rows(spark, edges)
    return {vid: rows.get(vid, {}) for vid in vertex_ids}


def reference_wl(edges) -> dict[str, Counter]:
    """Pure-Python WL with h = 2: a vertex's features are its neighbours'
    names ("0:") and their refined labels ("1:"), the refined label being
    the first 16 hex digits of sha256("<name>|<sorted neighbour names>")."""
    nbrs = defaultdict(set)
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    name = lambda x: x.split("#")[0]  # noqa: E731
    refined = {
        x: hashlib.sha256(
            f"{name(x)}|{','.join(sorted(name(n) for n in ns))}".encode()
        ).hexdigest()[:16]
        for x, ns in nbrs.items()
    }
    return {
        x: Counter([f"0:{name(n)}" for n in ns] + [f"1:{refined[n]}" for n in ns])
        for x, ns in nbrs.items()
    }


def scn_shaped_edges(rng, n_names: int, n_edges: int) -> set[tuple[str, str]]:
    """Random edges between vertices ``name#k``, several per name, never
    between two vertices of one name."""
    verts = [f"n{i}#{k}" for i in range(n_names) for k in range(rng.integers(1, 4))]
    edges = set()
    for a, b in rng.choice(len(verts), size=(n_edges, 2)):
        u, v = sorted((verts[a], verts[b]))
        if u.split("#")[0] != v.split("#")[0]:
            edges.add((u, v))
    return edges


@pytest.mark.spark
class TestWLFeatures:
    def test_isolated_vertex_empty(self, spark):
        out = feats_df(spark, [("a#1", "b#1")], ["a#1", "b#1", "z@5"])
        assert "z@5" not in wl_rows(spark, [("a#1", "b#1")])
        assert out["z@5"] == {}

    def test_iteration_zero_counts_neighbor_names(self, spark):
        out = feats_df(spark, [("a#1", "b#1"), ("a#1", "c#1")], ["a#1", "b#1", "c#1"])
        m = out["a#1"]
        assert m["0:b"] == 1.0 and m["0:c"] == 1.0

    def test_symmetric_vertices_identical_features(self, spark):
        """Two disjoint copies of the same labelled structure must produce
        identical WL maps for corresponding vertices."""
        out = feats_df(spark, [("a#1", "b#1"), ("a#2", "b#2")], ["a#1", "a#2", "b#1", "b#2"])
        assert out["a#1"] == out["a#2"]
        assert out["b#1"] == out["b#2"]

    def test_norm_is_l2_of_counts(self, spark):
        out = feats_df(spark, [("a#1", "b#1"), ("a#1", "b#2")], ["a#1", "b#1", "b#2"])
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
        out = feats_df(spark, edges, ["t#1", "t#2", "m#1", "m#2", "p#1"])
        m1, m2 = out["t#1"], out["t#2"]
        assert {k for k in m1 if k.startswith("0:")} == {"0:m"}
        assert {k for k in m2 if k.startswith("0:")} == {"0:m"}
        assert {k for k in m1 if k.startswith("1:")} != {k for k in m2 if k.startswith("1:")}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_on_random_graphs(self, spark, seed):
        edges = scn_shaped_edges(np.random.default_rng(seed), n_names=8, n_edges=30)
        got = wl_rows(spark, sorted(edges))
        assert got == {x: dict(c) for x, c in reference_wl(edges).items()}
