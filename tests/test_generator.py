"""Unit tests for the synthetic DBLP corpus generator."""
import numpy as np
import pandas as pd
import pytest

from repro.dblp.generator import PAPER_SCHEMA, author_paper_pairs, generate
from repro.text.keywords import STOPWORDS
# Aliased imports: pytest would collect names starting with `test` from this
# namespace as test items.
from repro.dblp.testing import testing_occurrences as make_testing_occurrences
from repro.dblp.testing import testing_set as make_testing_set


@pytest.fixture(scope="module")
def tiny():
    return generate(sf=0.004, seed=11)


class TestShape:
    def test_paper_count_scales(self, tiny):
        assert len(tiny.papers) == int(200_000 * 0.004)

    def test_columns(self, tiny):
        assert list(tiny.papers.columns) == [
            "paper_id", "authors", "names", "title", "venue", "year",
        ]
        assert list(tiny.authors.columns) == ["author_id", "name", "topic"]

    def test_paper_ids_dense(self, tiny):
        assert tiny.papers.paper_id.tolist() == list(range(len(tiny.papers)))

    def test_author_ids_dense(self, tiny):
        assert tiny.authors.author_id.tolist() == list(range(len(tiny.authors)))

    def test_schema_matches_spark_schema(self):
        assert [f.name for f in PAPER_SCHEMA.fields] == [
            "paper_id", "authors", "names", "title", "venue", "year",
        ]


class TestDeterminism:
    def test_same_seed_identical(self):
        a = generate(sf=0.004, seed=3)
        b = generate(sf=0.004, seed=3)
        pd.testing.assert_frame_equal(a.papers, b.papers)
        pd.testing.assert_frame_equal(a.authors, b.authors)

    def test_different_seed_differs(self):
        a = generate(sf=0.004, seed=3)
        b = generate(sf=0.004, seed=4)
        assert not a.papers.title.equals(b.papers.title)


class TestCoauthorLists:
    def test_names_match_authors(self, tiny):
        name_of = dict(zip(tiny.authors.author_id, tiny.authors.name))
        for auths, nms in zip(tiny.papers.authors, tiny.papers.names):
            assert [name_of[a] for a in auths] == nms

    def test_no_duplicate_names_within_paper(self, tiny):
        for nms in tiny.papers.names:
            assert len(nms) == len(set(nms))

    def test_no_duplicate_authors_within_paper(self, tiny):
        for auths in tiny.papers.authors:
            assert len(auths) == len(set(auths))

    def test_avg_coauthors_plausible(self, tiny):
        occ = author_paper_pairs(tiny.papers)
        avg = len(occ) / len(tiny.papers)
        assert 2.0 < avg < 6.0  # DBLP averages ~3.7

    def test_pair_frequencies_heavy_tailed(self, tiny):
        """The paper's key observation (Fig. 3b): repeated collaborations
        are far more common than independence predicts."""
        from collections import Counter
        from itertools import combinations

        cnt = Counter()
        for nms in tiny.papers.names:
            for p in combinations(sorted(nms), 2):
                cnt[p] += 1
        vals = np.array(list(cnt.values()))
        assert (vals >= 3).sum() > 0.05 * len(vals)
        assert vals.max() >= 10


class TestAmbiguity:
    def test_some_names_shared(self, tiny):
        mult = tiny.authors.groupby("name").size()
        assert (mult >= 2).sum() >= 3

    def test_shared_names_have_distinct_topics(self, tiny):
        for _, grp in tiny.authors.groupby("name"):
            assert grp.topic.nunique() == len(grp)

    def test_multiplicity_capped(self, tiny):
        assert tiny.authors.groupby("name").size().max() <= 15


class TestContent:
    def test_titles_nonempty_and_include_stopwords(self, tiny):
        assert (tiny.papers.title.str.len() > 0).all()
        joined = " ".join(tiny.papers.title.head(200))
        assert any(s in joined.split() for s in STOPWORDS)

    def test_years_in_plausible_range(self, tiny):
        assert tiny.papers.year.between(1985, 2045).all()

    def test_venues_nonempty(self, tiny):
        assert tiny.papers.venue.str.startswith("venue_").all()

    def test_authors_reuse_personal_venues(self, tiny):
        """Same author's papers should concentrate on few venues (the γ₅/γ₆
        signal): modal venue share above what random assignment gives."""
        occ = author_paper_pairs(tiny.papers)
        merged = occ.merge(tiny.papers[["paper_id", "venue"]], on="paper_id")
        shares = []
        for _, g in merged.groupby("author_id"):
            if len(g) >= 5:
                shares.append(g.venue.value_counts().iloc[0] / len(g))
        assert np.mean(shares) > 0.3


class TestTestingSet:
    def test_selects_ambiguous_names(self, tiny):
        ts = make_testing_set(tiny.papers, n_names=10)
        assert (ts.n_authors_td >= 2).all()

    def test_columns_match_table2(self, tiny):
        ts = make_testing_set(tiny.papers, n_names=5)
        assert list(ts.columns) == ["name", "n_authors_td", "n_papers_td", "n_papers_dblp"]

    def test_occurrences_restricted(self, tiny):
        ts = make_testing_set(tiny.papers, n_names=5)
        occ = make_testing_occurrences(tiny.papers, ts.name)
        assert set(occ.name) <= set(ts.name)

    def test_counts_consistent(self, tiny):
        ts = make_testing_set(tiny.papers, n_names=5)
        occ = author_paper_pairs(tiny.papers)
        for rec in ts.itertuples(index=False):
            sub = occ[occ.name == rec.name]
            assert sub.author_id.nunique() == rec.n_authors_td
            assert sub.paper_id.nunique() == rec.n_papers_dblp
