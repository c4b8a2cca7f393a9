"""Batch pair similarities (per-partition dataflow) vs the pure pair math."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.gammas import GAMMA_NAMES, gamma_vector
from repro.core.profiles import row_to_profile
from repro.core.similarity import pair_similarities


@pytest.fixture(scope="module")
def pairs_df(profile_set):
    df = pair_similarities(profile_set.profiles, profile_set.stats).cache()
    df.count()
    return df


@pytest.mark.spark
class TestPairSimilarities:
    def test_only_same_name_pairs(self, spark, pairs_df):
        bad = pairs_df.where(
            ~F.col("vid_i").startswith(F.col("name"))
            | ~F.col("vid_j").startswith(F.col("name"))
        ).count()
        assert bad == 0

    def test_ordered_unique_pairs(self, spark, pairs_df):
        assert pairs_df.where(F.col("vid_i") >= F.col("vid_j")).count() == 0
        n = pairs_df.count()
        assert pairs_df.select("vid_i", "vid_j").distinct().count() == n

    def test_pair_count_formula(self, spark, profile_set, pairs_df):
        sizes = (
            profile_set.profiles.groupBy("name").count().toPandas().set_index("name")["count"]
        )
        expect = int((sizes * (sizes - 1) // 2).sum())
        assert pairs_df.count() == expect

    def test_gamma_columns_finite(self, spark, pairs_df):
        pdf = pairs_df.select(*GAMMA_NAMES).toPandas()
        assert np.isfinite(pdf.to_numpy()).all()

    def test_matches_local_gamma_vector(self, spark, profile_set, pairs_df):
        """Per-partition batch output equals the pure pair function — the
        consistency guarantee the incremental path relies on."""
        sample = pairs_df.orderBy("name", "vid_i", "vid_j").limit(60).toPandas()
        wanted = set(sample.vid_i) | set(sample.vid_j)
        profs = {
            r.vertex_id: row_to_profile(r)
            for r in profile_set.profiles.where(
                F.col("vertex_id").isin(list(wanted))
            ).collect()
        }
        for rec in sample.itertuples(index=False):
            g = gamma_vector(profs[rec.vid_i], profs[rec.vid_j], profile_set.stats)
            got = np.array([getattr(rec, c) for c in GAMMA_NAMES])
            np.testing.assert_allclose(got, g, rtol=1e-9, atol=1e-12)
