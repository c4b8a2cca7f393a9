"""The EM training sample (§ V-F): the hashed 10 % pair sample and vertex
splitting for class balance."""
import numpy as np
import pandas as pd
import pytest

from repro.core.gammas import GAMMA_NAMES, CorpusStats, gamma_vector
from repro.core.sampling import (
    MIN_PAPERS,
    SPLIT_BLOCK,
    sample_pairs,
    split_profile,
    synthetic_matched_gammas,
)
from tests.test_gammas import mk_profile, random_profiles


@pytest.fixture
def stats():
    return CorpusStats(
        fb={"kw1": 10, "kw2": 30},
        fh={"V1": 10, "V2": 40},
        word_vectors={"kw1": np.array([1.0, 0.0]), "kw2": np.array([0.0, 1.0])},
    )


def big_profile():
    return mk_profile(
        vid="n#big",
        n_papers=20,
        venues={"V1": 12, "V2": 8},
        keywords={"kw1": (10, 1995, 2005), "kw2": (6, 1999, 2008)},
        wl={"0:a": 3.0},
        triangles={"a|b"},
    )


class TestSplitProfile:
    def test_counts_conserved(self):
        rng = np.random.default_rng(0)
        p = big_profile()
        a, b = split_profile(p, rng)
        for v in set(p.venues):
            assert a.venues.get(v, 0) + b.venues.get(v, 0) == p.venues[v]
        for k, (c, _, _) in p.keywords.items():
            ca = a.keywords.get(k, (0,))[0]
            cb = b.keywords.get(k, (0,))[0]
            assert ca + cb == c

    def test_paper_counts_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = split_profile(big_profile(), rng)
            assert a.n_papers >= 1 and b.n_papers >= 1

    def test_structure_dropped(self):
        """Halves must look like genuine cross-phase pairs: no shared WL
        map or triangles (see sampling.py rationale)."""
        a, b = split_profile(big_profile(), np.random.default_rng(0))
        assert a.wl == {} and b.wl == {}
        assert a.triangles == frozenset() and b.triangles == frozenset()

    def test_same_name_distinct_ids(self):
        a, b = split_profile(big_profile(), np.random.default_rng(0))
        assert a.name == b.name == "n"
        assert a.vertex_id != b.vertex_id

    def test_year_ranges_preserved(self):
        a, b = split_profile(big_profile(), np.random.default_rng(0))
        for half in (a, b):
            for k, (_, lo, hi) in half.keywords.items():
                assert (lo, hi) == big_profile().keywords[k][1:]


class TestSyntheticMatchedGammas:
    def test_shape(self, stats):
        X = synthetic_matched_gammas([big_profile()], stats, n=15, seed=0)
        assert X.shape == (15, 6)

    def test_high_similarity_rows(self, stats):
        """Split halves of one author must look similar on venue features."""
        X = synthetic_matched_gammas([big_profile()], stats, n=40, seed=0)
        assert X[:, 4].mean() > 0.8  # γ5: shared modal venues
        assert X[:, 5].mean() > 0.04  # γ6: common venues

    def test_empty_without_prolific(self, stats):
        small = mk_profile(n_papers=2)
        assert synthetic_matched_gammas([small], stats, n=10).shape == (0, 6)

    def test_deterministic_in_seed(self, stats):
        a = synthetic_matched_gammas([big_profile()], stats, n=8, seed=5)
        b = synthetic_matched_gammas([big_profile()], stats, n=8, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_matches_gamma_vector_of_the_same_splits(self, stats):
        """The kernel's γ of each split pair equals ``gamma_vector`` of the
        halves the same seeded draws produce, over several kernel calls."""
        profs = [big_profile(), *random_profiles(np.random.default_rng(2), 20)]
        n = 2 * SPLIT_BLOCK + 6
        X = synthetic_matched_gammas(profs, stats, n=n, seed=4)
        rng = np.random.default_rng(4)
        pool = [p for p in profs if p.n_papers >= MIN_PAPERS]
        ref = []
        for _ in range(n):
            a, b = split_profile(pool[int(rng.integers(len(pool)))], rng)
            ref.append(gamma_vector(a, b, stats))
        np.testing.assert_allclose(X, np.stack(ref), rtol=0, atol=1e-12)


@pytest.mark.spark
class TestSamplePairs:
    """The sample is a function of the pair rows and the seed."""

    N = 20_000

    @pytest.fixture(scope="class")
    def pairs_pdf(self):
        rng = np.random.default_rng(3)
        pdf = pd.DataFrame(rng.random((self.N, len(GAMMA_NAMES))), columns=list(GAMMA_NAMES))
        pdf.insert(0, "vid_i", [f"n#{k}" for k in range(self.N)])
        pdf.insert(1, "vid_j", [f"n@{k % 97}" for k in range(self.N)])
        return pdf

    def test_same_rows_whatever_the_layout(self, spark, pairs_pdf):
        df = spark.createDataFrame(pairs_pdf)
        permuted = spark.createDataFrame(pairs_pdf.sample(frac=1.0, random_state=1))
        want = sample_pairs(df.coalesce(1), 0.1, 5)
        for other in (df.repartition(7, "vid_j"), permuted):
            np.testing.assert_array_equal(sample_pairs(other, 0.1, 5), want)

    @pytest.mark.parametrize("frac", [0.1, 0.5])
    def test_share_within_binomial_bounds(self, spark, pairs_pdf, frac):
        X = sample_pairs(spark.createDataFrame(pairs_pdf), frac, 0)
        assert abs(len(X) - frac * self.N) < 4 * np.sqrt(self.N * frac * (1 - frac))

    def test_rows_ordered_by_pair_ids(self, spark, pairs_pdf):
        X = sample_pairs(spark.createDataFrame(pairs_pdf), 0.1, 5)
        want = pairs_pdf.sort_values(["vid_i", "vid_j"])[list(GAMMA_NAMES)].to_numpy()
        rows = {tuple(r) for r in X}
        np.testing.assert_array_equal(X, [r for r in want if tuple(r) in rows])

    def test_seed_draws_another_sample(self, spark, pairs_pdf):
        df = spark.createDataFrame(pairs_pdf)
        assert not np.array_equal(sample_pairs(df, 0.1, 5), sample_pairs(df, 0.1, 6))

    def test_whole_fraction_keeps_every_pair(self, spark, pairs_pdf):
        assert len(sample_pairs(spark.createDataFrame(pairs_pdf), 1.0, 0)) == self.N
