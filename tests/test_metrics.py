"""Pairwise micro metrics — Spark cell counts, pandas pair loop, DuckDB
self-join oracle."""
import dataclasses

import numpy as np
import pandas as pd
import pytest

from repro.eval.metrics import Confusion, confusion, confusion_pandas

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


#: The paper's definition as a per-name self-join: the oracle of ``confusion``.
ORACLE_SQL = """
WITH pairs AS (
  SELECT (a.cluster = b.cluster) AS pred_same,
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
"""


def assert_oracle(spark, lab: pd.DataFrame) -> None:
    """Spark ``confusion`` on ``lab`` equals the DuckDB self-join."""
    got = dataclasses.asdict(confusion(spark.createDataFrame(lab)))
    assert_equivalent(spark.createDataFrame(pd.DataFrame([got])), ORACLE_SQL, lab=lab)


def random_labelled(seed: int, n: int = 300) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "paper_id": np.arange(n),
            "name": rng.choice(["A", "B", "C", "D"], n),
            "cluster": rng.choice([f"c{i}" for i in range(6)], n),
            "author_id": rng.integers(0, 5, n),
        }
    )


@pytest.mark.spark
class TestSparkConfusion:
    def test_matches_pandas(self, spark):
        df = spark.createDataFrame(tiny_labelled())
        got = confusion(df)
        assert (got.tp, got.fp, got.fn, got.tn) == (1, 2, 2, 2)

    def test_oracle_pair_counts(self, spark):
        """The cell counts equal the identical DuckDB self-join SQL."""
        assert_oracle(spark, tiny_labelled())

    def test_oracle_null_labels(self, spark):
        """A row with a null cluster or author id pairs with no row, as
        under the self-join's ``=``."""
        lab = tiny_labelled()
        lab["cluster"] = lab.cluster.astype(object)
        lab.loc[1, "cluster"] = None
        lab["author_id"] = lab.author_id.astype("Int64")
        lab.loc[4, "author_id"] = pd.NA
        got = confusion(spark.createDataFrame(lab))
        # X pairs without paper 2: (1,3) FP, (1,4) TN, (3,4) FN; Y: none.
        assert (got.tp, got.fp, got.fn, got.tn) == (0, 1, 1, 1)
        assert_oracle(spark, lab)

    def test_spark_vs_pandas_on_random_data(self, spark):
        for seed, n in enumerate((300, 40, 7)):
            lab = random_labelled(seed, n)
            assert confusion(spark.createDataFrame(lab)) == confusion_pandas(lab)
            assert_oracle(spark, lab)
