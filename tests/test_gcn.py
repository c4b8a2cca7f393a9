"""Stage II scoring and merging: thresholding, transitive closure, GCN assembly."""
import numpy as np
import pandas as pd
import pytest

from repro.core.em import EMParams, FeatureParams, fit_em, score_array
from repro.core.gcn import build_gcn, score_pairs
from repro.core.gammas import GAMMA_NAMES

from .oracle import assert_equivalent
from .test_components import local_components


def pairs_pdf(rows):
    cols = ["name", "vid_i", "vid_j", "score"]
    return pd.DataFrame(rows, columns=cols)


def merge(spark, pairs, vertices, delta):
    """``build_gcn`` over one occurrence of each (name, vertex_id) in
    ``vertices``: (mapping, {vertex_id: gcn_vertex}) as pandas."""
    asg = pd.DataFrame(vertices, columns=["name", "vertex_id"])
    asg.insert(0, "paper_id", range(len(asg)))
    asg["stable"] = True
    gcn = build_gcn(
        spark.createDataFrame(asg), spark.createDataFrame(pairs_pdf(pairs)), delta=delta
    )
    got = gcn.assignments.toPandas()
    return gcn.mapping.toPandas(), dict(zip(got.vertex_id, got.gcn_vertex))


@pytest.mark.spark
class TestMergeMapping:
    def test_threshold_respected(self, spark):
        m, got = merge(
            spark,
            [("n", "n#a", "n#b", 5.0), ("n", "n#b", "n#c", -1.0)],
            [("n", "n#a"), ("n", "n#b"), ("n", "n#c")],
            0.0,
        )
        assert got["n#a"] == got["n#b"]
        assert got["n#c"] == "n#c"
        # The mapping lists merged vertices only.
        assert set(m.vertex_id) == {"n#a", "n#b"}

    def test_transitive_closure(self, spark):
        m, got = merge(
            spark,
            [("n", "n#a", "n#b", 9.0), ("n", "n#b", "n#c", 9.0)],
            [("n", "n#a"), ("n", "n#b"), ("n", "n#c")],
            0.0,
        )
        assert set(got.values()) == {"n#a"}

    def test_names_never_cross(self, spark):
        m, got = merge(
            spark,
            [("n", "n#a", "n#b", 9.0), ("m", "m#a", "m#b", 9.0)],
            [("n", "n#a"), ("n", "n#b"), ("m", "m#a"), ("m", "m#b")],
            0.0,
        )
        for r in m.itertuples(index=False):
            assert r.gcn_vertex.startswith(r.name)
        assert got == {"n#a": "n#a", "n#b": "n#a", "m#a": "m#a", "m#b": "m#a"}

    def test_infinite_delta_identity(self, spark):
        m, got = merge(
            spark, [("n", "n#a", "n#b", 100.0)], [("n", "n#a"), ("n", "n#b")], 1e9
        )
        assert m.empty
        assert got == {"n#a": "n#a", "n#b": "n#b"}

    def test_two_groups_independent(self, spark):
        got = merged_components(spark, [("n1", "a", "b"), ("n1", "b", "c"), ("n2", "a", "z")])
        assert got == {
            ("n1", "a"): "a", ("n1", "b"): "a", ("n1", "c"): "a",
            ("n2", "a"): "a", ("n2", "z"): "a",
        }

    def test_matches_local_on_random_graphs(self, spark):
        rng = np.random.default_rng(0)
        edges = [
            (gname, f"v{rng.integers(12)}", f"v{rng.integers(12)}")
            for gname in ["g1", "g2", "g3"]
            for _ in range(40)
        ]
        assert merged_components(spark, edges) == local_components_per_name(edges)

    @pytest.mark.parametrize("n", [1, 64])
    def test_partition_count(self, spark, shuffle_partitions, n):
        """All names in one partition, or more partitions than names (most
        of them empty): each name's components are its local union–find's.
        The names share vertex labels, some with an apostrophe or non-ASCII
        letters, whose order decides the component labels."""
        rng = np.random.default_rng(1)
        labels = ["a", "b", "o'brien", "o'neil", "b'", "ñandú", "Åsa", "zoë", "Zoe", "c"]
        edges = [
            (gname, *map(str, rng.choice(labels, 2)))
            for gname in ["n1", "n2", "o'hara", "Łukasz", "名前"]
            for _ in range(12)
        ]
        shuffle_partitions(n)
        assert merged_components(spark, edges) == local_components_per_name(edges)

    def test_names_span_arrow_batches(self, spark, model, arrow_batch_rows):
        """At 3 rows per Arrow batch the merge maps every vertex as at the
        default batch size."""
        key = ["name", "vertex_id"]
        want = model.gcn.mapping.toPandas().sort_values(key, ignore_index=True)
        arrow_batch_rows(3)
        gcn = build_gcn(model.scn.assignments, model.pairs, delta=model.delta)
        got = gcn.mapping.toPandas().sort_values(key, ignore_index=True)
        assert len(want) > 100
        pd.testing.assert_frame_equal(got, want)


def merged_components(spark, edges):
    """``build_gcn``'s mapping of (name, u, v) pairs that all clear δ, as
    {(name, vertex_id): gcn_vertex}; one row per merged vertex."""
    vertices = sorted({(name, x) for name, u, v in edges for x in (u, v)})
    m, _ = merge(spark, [(*e, 1.0) for e in edges], vertices, 0.0)
    assert len(m) == len(m[["name", "vertex_id"]].drop_duplicates())
    return {(r.name, r.vertex_id): r.gcn_vertex for r in m.itertuples(index=False)}


def local_components_per_name(edges):
    """The same, from one local union–find per name."""
    return {
        (name, node): root
        for name in {e[0] for e in edges}
        for node, root in local_components([(u, v) for n, u, v in edges if n == name]).items()
    }


@pytest.mark.spark
class TestScorePairs:
    def test_adds_score_column(self, spark):
        params = EMParams(
            p=0.5,
            features={
                g: FeatureParams("gaussian", {"mu": 1.0, "var": 1.0}, {"mu": 0.0, "var": 1.0})
                for g in GAMMA_NAMES
            },
        )
        pdf = pd.DataFrame(
            [["n", "n#a", "n#b"] + [1.0] * 6, ["n", "n#a", "n#c"] + [0.0] * 6],
            columns=["name", "vid_i", "vid_j", *GAMMA_NAMES],
        )
        out = score_pairs(spark.createDataFrame(pdf), params).toPandas()
        assert out.loc[0, "score"] > out.loc[1, "score"]

    def test_matches_score_array_exactly(self, spark):
        """Batch and incremental scores come from one function: the Spark
        path equals ``score_array`` bit for bit, and leaves its input's
        schema alone."""
        rng = np.random.default_rng(0)
        X = np.abs(rng.normal(0.5, 0.5, size=(200, len(GAMMA_NAMES))))
        params = fit_em(X, seed=0)
        pdf = pd.DataFrame(X, columns=list(GAMMA_NAMES))
        pdf.insert(0, "vid_i", [f"n#{i}" for i in range(len(pdf))])
        pairs = spark.createDataFrame(pdf).repartition(3)
        fields = list(pairs.schema.fields)
        out = score_pairs(pairs, params).toPandas().set_index("vid_i").loc[pdf.vid_i]
        assert list(pairs.schema.fields) == fields
        assert np.array_equal(out.score.to_numpy(), score_array(X, params))


@pytest.mark.spark
class TestBuildGcn:
    def _scn_assignments(self, spark):
        return spark.createDataFrame(
            pd.DataFrame(
                {
                    "paper_id": [1, 2, 3, 4],
                    "name": ["n", "n", "n", "m"],
                    "vertex_id": ["n#a", "n#b", "n#c", "m#z"],
                    "stable": [True, True, False, True],
                }
            )
        )

    def test_rekeys_assignments(self, spark):
        scored = spark.createDataFrame(
            pairs_pdf([("n", "n#a", "n#b", 5.0), ("n", "n#a", "n#c", -5.0)])
        )
        gcn = build_gcn(self._scn_assignments(spark), scored, delta=0.0)
        asg = gcn.assignments.toPandas().set_index("paper_id")
        assert asg.loc[1, "gcn_vertex"] == asg.loc[2, "gcn_vertex"]
        assert asg.loc[3, "gcn_vertex"] == "n#c"
        assert asg.loc[4, "gcn_vertex"] == "m#z"

    def test_recovered_edges_from_coauthor_lists(self, spark):
        """Line 16: vertices sharing a paper get a collaboration edge."""
        asg = spark.createDataFrame(
            pd.DataFrame(
                {
                    "paper_id": [1, 1, 2],
                    "name": ["n", "m", "n"],
                    "vertex_id": ["n#a", "m#z", "n#a"],
                    "stable": [True, True, True],
                }
            )
        )
        scored = spark.createDataFrame(pairs_pdf([("n", "n#a", "n#a2", -99.0)]))
        gcn = build_gcn(asg, scored, delta=0.0)
        edges = {(r.u, r.v): r.cnt for r in gcn.edges.collect()}
        assert edges == {("m#z", "n#a"): 1}

    def test_edges_equal_self_join_count(self, spark, model):
        """On the session model, the in-row edges are the self-join count of
        final-vertex pairs sharing a paper."""
        assert_equivalent(
            model.gcn.edges,
            """
            SELECT x.gcn_vertex AS u, y.gcn_vertex AS v, COUNT(*) AS cnt
            FROM asg x JOIN asg y ON x.paper_id = y.paper_id
            WHERE x.gcn_vertex < y.gcn_vertex
            GROUP BY x.gcn_vertex, y.gcn_vertex
            """,
            asg=model.gcn.assignments,
        )
