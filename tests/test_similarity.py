"""Batch pair similarities (per-partition dataflow) vs the pure pair math."""
import itertools

import numpy as np
import pandas as pd
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


def reference_pairs(rows, stats) -> pd.DataFrame:
    """Per name, ascending: every pair of the name's vertices in the
    combination order of their sorted ids, γ by ``gamma_vector``."""
    by_name: dict[str, list] = {}
    for p in sorted(map(row_to_profile, rows), key=lambda p: (p.name, p.vertex_id)):
        by_name.setdefault(p.name, []).append(p)
    out = [
        (name, pi.vertex_id, pj.vertex_id, *gamma_vector(pi, pj, stats))
        for name in sorted(by_name)
        for pi, pj in itertools.combinations(by_name[name], 2)
    ]
    return pd.DataFrame(out, columns=["name", "vid_i", "vid_j", *GAMMA_NAMES])


def assert_same_pairs_per_name(got: pd.DataFrame, ref: pd.DataFrame) -> None:
    """Each name's pairs form one contiguous run of ``got``, in the
    reference's order, with γ within 1e-12."""
    assert len(got) == len(ref)
    for name, want in ref.groupby("name", sort=False):
        at = np.flatnonzero(got.name.to_numpy() == name)
        assert (np.diff(at) == 1).all(), name
        run = got.iloc[at]
        assert run.vid_i.tolist() == want.vid_i.tolist(), name
        assert run.vid_j.tolist() == want.vid_j.tolist(), name
        g = list(GAMMA_NAMES)
        np.testing.assert_allclose(run[g].to_numpy(), want[g].to_numpy(), rtol=0, atol=1e-12)


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

    def test_matches_local_gamma_vector(self, spark, model):
        """Every pair of the session model equals the pure pair function —
        the consistency guarantee the incremental path relies on."""
        pairs = model.pairs.select("vid_i", "vid_j", *GAMMA_NAMES).toPandas()
        stats = model.profiles.stats
        profs = {r.vertex_id: row_to_profile(r) for r in model.profiles.profiles.collect()}
        assert len(pairs) > 1000
        ref = np.stack(
            [gamma_vector(profs[i], profs[j], stats) for i, j in zip(pairs.vid_i, pairs.vid_j)]
        )
        np.testing.assert_allclose(pairs[list(GAMMA_NAMES)].to_numpy(), ref, rtol=0, atol=1e-12)

    def test_pair_order(self, spark, profile_set, pairs_df):
        """Within each name the pairs are one contiguous run in the
        combination order of the name's sorted vertex ids."""
        got = pairs_df.toPandas()
        ref = reference_pairs(profile_set.profiles.collect(), profile_set.stats)
        assert_same_pairs_per_name(got, ref)

    @pytest.mark.parametrize("n", [1, 64])
    def test_partition_count(self, spark, profile_set, shuffle_partitions, n):
        """All names in one partition, or more partitions than names (most
        of them empty): each name's pairs are the per-name reference. Half
        of the names get an apostrophe and a non-ASCII letter, in the name
        and in its vertex ids."""
        prof = profile_set.profiles
        sizes = prof.groupBy("name").count().toPandas().sort_values(["count", "name"])
        names = [*sizes.name.iloc[-3:], *sizes[sizes["count"] == 2].name.iloc[:3],
                 *sizes[sizes["count"] == 1].name.iloc[:1]]
        odd = F.col("name").isin(names[::2])
        mark = lambda c: F.when(odd, F.concat(F.lit("Ö'"), c)).otherwise(F.col(c))  # noqa: E731
        sub = prof.where(F.col("name").isin(names)).withColumns(
            {"name": mark("name"), "vertex_id": mark("vertex_id")}
        )
        ref = reference_pairs(sub.collect(), profile_set.stats)
        assert ref.name.nunique() == 6 and ref.name.str.startswith("Ö'").sum() > 0
        shuffle_partitions(n)
        got = pair_similarities(sub, profile_set.stats).toPandas()
        assert_same_pairs_per_name(got, ref)
        if n == 1:
            assert got.name.tolist() == ref.name.tolist()
