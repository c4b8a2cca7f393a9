"""Pairwise micro metrics — Spark dataflow, pandas twin, DuckDB oracle."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.eval.metrics import (
    Confusion,
    confusion,
    confusion_df,
    confusion_pandas,
    labelled_pairs,
)

from .oracle import assert_equivalent


class TestConfusionMath:
    def test_metric_formulas(self):
        m = Confusion(tp=6, fp=2, fn=3, tn=9)
        assert m.micro_a == pytest.approx(15 / 20)
        assert m.micro_p == pytest.approx(6 / 8)
        assert m.micro_r == pytest.approx(6 / 9)
        f = 2 * (6 / 8) * (6 / 9) / ((6 / 8) + (6 / 9))
        assert m.micro_f == pytest.approx(f)

    def test_zero_divisions(self):
        z = Confusion(0, 0, 0, 0)
        assert z.micro_a == z.micro_p == z.micro_r == z.micro_f == 0.0

    def test_as_row_keys(self):
        assert list(Confusion(1, 1, 1, 1).as_row()) == [
            "MicroA", "MicroP", "MicroR", "MicroF",
        ]


def tiny_labelled() -> pd.DataFrame:
    # name X: papers 1,2 by author A (clustered together), paper 3 by B
    # (wrongly clustered with 1,2), paper 4 by B alone.
    # name Y: papers 5,6 by C, split into two clusters.
    return pd.DataFrame(
        {
            "paper_id": [1, 2, 3, 4, 5, 6],
            "name": ["X", "X", "X", "X", "Y", "Y"],
            "cluster": ["c1", "c1", "c1", "c2", "d1", "d2"],
            "author_id": [10, 10, 11, 11, 12, 12],
        }
    )


EXPECTED = Confusion(tp=1, fp=2, fn=2, tn=2)
# X pairs: (1,2) TP; (1,3) FP; (2,3) FP; (1,4) TN; (2,4) TN; (3,4) FN
# Y pairs: (5,6) FN


class TestPandasConfusion:
    def test_hand_counted_example(self):
        got = confusion_pandas(tiny_labelled())
        assert (got.tp, got.fp, got.fn, got.tn) == (1, 2, 2, 2)

    def test_single_occurrence_name_contributes_nothing(self):
        df = pd.DataFrame(
            {"paper_id": [1], "name": ["X"], "cluster": ["c"], "author_id": [1]}
        )
        got = confusion_pandas(df)
        assert (got.tp, got.fp, got.fn, got.tn) == (0, 0, 0, 0)


@pytest.mark.spark
class TestSparkConfusion:
    def test_matches_pandas(self, spark):
        df = spark.createDataFrame(tiny_labelled())
        got = confusion(df)
        assert (got.tp, got.fp, got.fn, got.tn) == (1, 2, 2, 2)

    def test_oracle_pair_counts(self, spark):
        """The per-name self-join equals the identical DuckDB SQL."""
        lab = tiny_labelled()
        got = confusion_df(spark.createDataFrame(lab)).select(
            *[F.col(c).cast("long").alias(c) for c in ("tp", "fp", "fn", "tn")]
        )
        assert_equivalent(
            got,
            """
            WITH pairs AS (
              SELECT a.name,
                     (a.cluster = b.cluster) AS pred_same,
                     (a.author_id = b.author_id) AS true_same
              FROM lab a JOIN lab b
                ON a.name = b.name AND a.paper_id < b.paper_id
            )
            SELECT
              SUM(CASE WHEN pred_same AND true_same THEN 1 ELSE 0 END)::BIGINT  AS tp,
              SUM(CASE WHEN pred_same AND NOT true_same THEN 1 ELSE 0 END)::BIGINT AS fp,
              SUM(CASE WHEN NOT pred_same AND true_same THEN 1 ELSE 0 END)::BIGINT AS fn,
              SUM(CASE WHEN NOT pred_same AND NOT true_same THEN 1 ELSE 0 END)::BIGINT AS tn
            FROM pairs
            """,
            lab=lab,
        )

    def test_labelled_pairs_count(self, spark):
        lab = spark.createDataFrame(tiny_labelled())
        # C(4,2) + C(2,2) = 6 + 1
        assert labelled_pairs(lab).count() == 7

    def test_spark_vs_pandas_on_random_data(self, spark):
        import numpy as np

        rng = np.random.default_rng(0)
        n = 300
        lab = pd.DataFrame(
            {
                "paper_id": np.arange(n),
                "name": rng.choice(["A", "B", "C", "D"], n),
                "cluster": rng.choice([f"c{i}" for i in range(6)], n),
                "author_id": rng.integers(0, 5, n),
            }
        )
        sp = confusion(spark.createDataFrame(lab))
        pdm = confusion_pandas(lab)
        assert (sp.tp, sp.fp, sp.fn, sp.tn) == (pdm.tp, pdm.fp, pdm.fn, pdm.tn)
