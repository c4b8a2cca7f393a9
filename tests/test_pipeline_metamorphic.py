"""The fitted model and the GCN are functions of the input papers and the
config alone, and a run stays within its Spark job budget.

Each test runs the full pipeline on the session corpus once more, so these
are the slowest tests in the suite.
"""
import pytest

from repro.core.pipeline import run_iuad
from repro.dblp.generator import PAPER_SCHEMA
from repro.obs import spark_jobs

from .conftest import ETA

#: Spark jobs one ``run_iuad`` may fire on the session corpus, including
#: materialising the GCN assignments.
JOB_BUDGET = 26


def partition(model) -> frozenset:
    """The GCN clustering with vertex labels erased: a set of clusters,
    each the set of its (paper_id, name) occurrences."""
    asg = model.gcn.assignments.select("paper_id", "name", "gcn_vertex").toPandas()
    return frozenset(
        frozenset(zip(g.paper_id.tolist(), g.name.tolist()))
        for _, g in asg.groupby("gcn_vertex")
    )


def run(spark, papers):
    return run_iuad(spark, papers, eta=ETA, delta=0.0, seed=0)


@pytest.mark.spark
@pytest.mark.slow
class TestMetamorphic:
    """Each run must fit the session model's parameters exactly (prior,
    every feature's marginals and the log-likelihood trace) and give its
    GCN partition."""

    @pytest.fixture(scope="class")
    def reference(self, model):
        return partition(model)

    @pytest.mark.parametrize("n", [1, 4, 32, 64])
    def test_shuffle_partitions(self, spark, papers_df, model, reference, shuffle_partitions, n):
        """With AQE coalescing off, every shuffle has exactly n partitions:
        one holding every name, or more partitions than some stages have
        keys."""
        shuffle_partitions(n)
        got = run(spark, papers_df)
        assert got.params == model.params
        assert partition(got) == reference

    def test_input_rows_permuted(self, spark, corpus, model, reference):
        shuffled = corpus.papers.sample(frac=1.0, random_state=1).reset_index(drop=True)
        assert not shuffled.paper_id.equals(corpus.papers.paper_id)
        papers = spark.createDataFrame(shuffled, schema=PAPER_SCHEMA)
        got = run(spark, papers)
        assert got.params == model.params
        assert partition(got) == reference


@pytest.mark.spark
@pytest.mark.slow
def test_run_iuad_job_budget(spark, papers_df):
    """Under AQE each shuffle stage is one Spark job, and at this scale a
    run's wall time follows its job count. A run fires 24 here: Stage I's
    vote in the per-name union–find pass, WL and triangles from one
    neighbour exchange, keyword lists from one corpus count, the SCRs
    mined once, the δ-merge scoring each name's γ block itself and a GCN
    map of merged vertices only. With a separate scoring stage before
    the merge it fired 25; with a separate vote join and WL/triangle
    regroups, 38; with the keyword lists
    regrouped by paper and identity rows in the GCN map, 47; with
    self-joins on paper_id, join chains for WL and triangles and one
    collect per corpus statistic, 111."""
    with spark_jobs(spark.sparkContext) as jc:
        run(spark, papers_df).gcn.assignments.count()
    assert jc.jobs <= JOB_BUDGET
