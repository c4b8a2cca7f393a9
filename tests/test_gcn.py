"""Stage II scoring and merging: thresholding, transitive closure, GCN assembly."""
import numpy as np
import pandas as pd
import pytest

from repro.core.em import EMParams, FeatureParams, fit_em, score_array
from repro.core.gcn import build_gcn, score_pairs
from repro.core.gammas import GAMMA_NAMES

from .oracle import assert_equivalent


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
