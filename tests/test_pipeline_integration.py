"""End-to-end IUAD on the session corpus: stage shapes and invariants.

These are the integration tests behind Tables III/IV: Stage I must deliver
precision, Stage II must deliver the recall jump at a small precision cost
— the paper's central claim.
"""
import numpy as np
import pytest
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.em import score_array
from repro.core.gammas import GAMMA_NAMES
from repro.core.pipeline import gcn_assignments, run_iuad, scn_only_assignments
from repro.dblp.generator import PAPER_SCHEMA
from repro.eval.metrics import confusion
from repro.obs import spark_jobs
from tests.test_incremental import bad_papers


@pytest.fixture(scope="module")
def stage_metrics(spark, model, corpus, truth_occ):
    truth = spark.createDataFrame(truth_occ)
    scn_m = confusion(scn_only_assignments(model).join(truth, ["paper_id", "name"]))
    gcn_m = confusion(gcn_assignments(model).join(truth, ["paper_id", "name"]))
    return scn_m, gcn_m


@pytest.mark.spark
@pytest.mark.slow
class TestStageShapes:
    def test_scn_high_precision(self, stage_metrics):
        scn_m, _ = stage_metrics
        assert scn_m.micro_p > 0.7

    def test_gcn_improves_recall_substantially(self, stage_metrics):
        scn_m, gcn_m = stage_metrics
        assert gcn_m.micro_r > scn_m.micro_r + 0.1

    def test_gcn_precision_does_not_collapse(self, stage_metrics):
        scn_m, gcn_m = stage_metrics
        assert gcn_m.micro_p > scn_m.micro_p - 0.1

    def test_gcn_improves_f1(self, stage_metrics):
        scn_m, gcn_m = stage_metrics
        assert gcn_m.micro_f > scn_m.micro_f

    def test_absolute_quality(self, stage_metrics):
        """Sanity floor: the reproduction should be in the paper's league
        (paper: A=.82 P=.86 R=.81 F=.84)."""
        _, gcn_m = stage_metrics
        assert gcn_m.micro_a > 0.75
        assert gcn_m.micro_f > 0.7


@pytest.mark.spark
@pytest.mark.slow
class TestModelInvariants:
    def test_em_mixture_nondegenerate(self, model):
        assert 0.01 < model.params.p < 0.99

    def test_matched_component_dominates_on_means(self, model):
        """Orientation: matched marginals sit at higher similarity."""
        f = model.params.features["g3_interest"]
        assert f.matched["mu"] > f.unmatched["mu"]

    def test_every_occurrence_in_gcn(self, model, papers_df):
        n_occ = papers_df.select(F.explode("names")).count()
        assert model.gcn.assignments.count() == n_occ

    def test_merges_respect_names(self, model):
        bad = model.gcn.mapping.where(
            ~F.col("gcn_vertex").startswith(F.col("name"))
        ).count()
        assert bad == 0

    def test_gcn_vertices_fewer_than_scn(self, model):
        n_scn = model.scn.assignments.select("vertex_id").distinct().count()
        n_gcn = model.gcn.assignments.select("gcn_vertex").distinct().count()
        assert n_gcn < n_scn

    def test_scores_finite(self, model):
        pdf = model.pairs.select("score").toPandas()
        assert np.isfinite(pdf.score).all()

    def test_scores_are_score_array(self, model):
        """Batch pairs and streamed papers share one score: every pair's
        score is ``score_array`` of its γ columns, bit for bit."""
        pdf = model.pairs.toPandas()
        assert np.array_equal(
            pdf.score.to_numpy(), score_array(pdf[list(GAMMA_NAMES)], model.params)
        )

    def test_recovered_edges_symmetric_canonical(self, model):
        assert model.gcn.edges.where(F.col("u") >= F.col("v")).count() == 0


@pytest.mark.spark
class TestBadPaper:
    """One malformed paper fails the run when its co-author list is first
    read."""

    @staticmethod
    def _papers(spark, pdf, change):
        pdf = pdf.astype(object)
        bad = len(pdf) // 2
        for col, value in change.items():
            pdf.at[bad, col] = value
        nullable = T.StructType([T.StructField(f.name, f.dataType) for f in PAPER_SCHEMA])
        return spark.createDataFrame(pdf, schema=nullable)

    @bad_papers
    def test_raises(self, spark, tiny_papers_pdf, change, message):
        papers = self._papers(spark, tiny_papers_pdf, change)
        with pytest.raises(Exception, match=message):
            run_iuad(spark, papers, eta=2, delta=0.0, seed=0)

    def test_no_same_name_pair(self, spark, tiny_papers_pdf):
        """Five papers by [a, b] at η = 5: one vertex per name, so EM has no
        pair to train on and says so."""
        pdf = tiny_papers_pdf.iloc[:5].assign(names=[["a", "b"]] * 5)
        papers = spark.createDataFrame(pdf, schema=PAPER_SCHEMA)
        with pytest.raises(ValueError, match="no two vertices share a name"):
            run_iuad(spark, papers, eta=5, delta=0.0, seed=0)

    def test_raises_from_a_task(self, spark, tiny_papers_pdf):
        """A frame made from pandas rows with Arrow on is a local relation:
        the optimizer evaluates the check over its rows, so the cases above
        raise while planning, before any job starts (a repartition on top
        does not change that). A checkpointed frame is read by tasks, so
        the check raises inside the first job that reads the names."""
        papers = self._papers(spark, tiny_papers_pdf, {"names": []}).localCheckpoint()
        with spark_jobs(spark.sparkContext) as jc:
            with pytest.raises(Exception, match="empty co-author list"):
                run_iuad(spark, papers, eta=2, delta=0.0, seed=0)
        assert jc.jobs >= 1
