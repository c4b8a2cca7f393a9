"""Per-vertex profile aggregation."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.gammas import modal_venue
from repro.core.profiles import build_profiles, row_to_profile
from repro.core.scn import build_scn
from repro.dblp.generator import PAPER_SCHEMA

from .oracle import assert_equivalent


@pytest.mark.spark
class TestProfiles:
    def test_one_row_per_vertex(self, spark, scn, profile_set):
        n_vertices = scn.assignments.select("vertex_id").distinct().count()
        assert profile_set.profiles.count() == n_vertices

    def test_n_papers_oracle(self, spark, scn, profile_set):
        got = profile_set.profiles.select("vertex_id", "n_papers")
        asg = scn.assignments
        assert_equivalent(
            got,
            """
            SELECT vertex_id, COUNT(DISTINCT paper_id)::BIGINT AS n_papers
            FROM asg GROUP BY vertex_id
            """,
            asg=asg,
        )

    def test_venue_counts_sum_to_papers(self, spark, profile_set):
        bad = (
            profile_set.profiles.select(
                "vertex_id",
                "n_papers",
                F.aggregate("venue_counts", F.lit(0).cast("long"), lambda a, x: a + x).alias("vsum"),
            )
            .where(F.col("vsum") != F.col("n_papers"))
            .count()
        )
        assert bad == 0

    def test_row_is_counts_only(self, spark, profile_set):
        """A profile row holds counts; h_v and the WL norm are derived from
        them where they are used."""
        assert profile_set.profiles.columns == [
            "name", "vertex_id", "n_papers", "venue_names", "venue_counts", "kw",
            "kw_counts", "kw_min_year", "kw_max_year", "wl_labels", "wl_counts", "tri",
        ]

    def test_modal_venue_is_argmax(self, spark, profile_set):
        for r in profile_set.profiles.limit(100).collect():
            p = row_to_profile(r)
            venues = dict(zip(r.venue_names, r.venue_counts))
            assert venues[p.modal_venue] == max(venues.values())
            assert p.modal_venue == modal_venue(venues)

    def test_modal_venue_tie_goes_to_larger_name(self, spark):
        """One vertex, one paper at each of two venues: ``row_to_profile``
        sets h_v with ``gammas.modal_venue``, which picks the larger name,
        whatever the order of the venues."""
        rows = [
            (0, [0, 1], ["n", "m"], "graph kernels", "VB", 2000),
            (1, [0, 1], ["n", "m"], "graph kernels", "VA", 2001),
        ]
        pdf = pd.DataFrame(rows, columns=["paper_id", "authors", "names", "title", "venue", "year"])
        papers = spark.createDataFrame(pdf, schema=PAPER_SCHEMA)
        profiles = build_profiles(papers, build_scn(papers, eta=2)).profiles.collect()
        assert sorted(r.vertex_id for r in profiles) == ["m#n", "n#m"]
        for r in profiles:
            assert dict(zip(r.venue_names, r.venue_counts)) == {"VA": 1, "VB": 1}
            assert row_to_profile(r).modal_venue == "VB"
        assert modal_venue({"VA": 1, "VB": 1}) == modal_venue({"VB": 1, "VA": 1}) == "VB"
        assert modal_venue({}) is None

    def test_singletons_have_no_structure(self, spark, profile_set):
        sing = profile_set.profiles.where(F.col("vertex_id").contains("@"))
        assert sing.where(F.size("wl_labels") > 0).count() == 0
        assert sing.where(F.size("tri") > 0).count() == 0
        assert sing.where(F.col("n_papers") != 1).count() == 0

    def test_keyword_years_ordered(self, spark, profile_set):
        bad = profile_set.profiles.select(
            F.exists(
                F.zip_with("kw_min_year", "kw_max_year", lambda lo, hi: lo > hi),
                lambda x: x,
            ).alias("bad")
        ).where("bad").count()
        assert bad == 0

    def test_stats_cover_corpus(self, spark, profile_set, corpus):
        venues = set(corpus.papers.venue)
        assert set(profile_set.stats.fh) == venues
        assert sum(profile_set.stats.fh.values()) == len(corpus.papers)

    def test_row_to_profile_roundtrip(self, spark, profile_set):
        r = profile_set.profiles.where(F.size("kw") > 0).first()
        p = row_to_profile(r)
        assert p.vertex_id == r.vertex_id
        assert p.n_papers == r.n_papers
        assert len(p.keywords) == len(r.kw)
        assert set(p.venues) == set(r.venue_names)
