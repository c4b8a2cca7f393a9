"""Keyword extraction dataflow + DuckDB oracle for the corpus counts."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.gammas import CorpusStats
from repro.core.incremental import profile_for_paper
from repro.dblp.generator import PAPER_SCHEMA
from repro.text.keywords import STOPWORDS, keywords, title_tokens

from .oracle import assert_equivalent

#: Titles the generator never writes: the split is on ASCII whitespace
#: only, so NBSP and em space stay inside a token.
ODD_TITLES = [
    "graph\tkernels", "deep  graph", " leading space", "graph\xa0kernels",
    "x\u2003y", "UPPER Case Graph", "the of a", None,
]


@pytest.fixture(scope="module")
def kw_papers(spark):
    rows = [
        (0, [0], ["n0"], "the deep graph model", "V", 2000),
        (1, [1], ["n1"], "a deep network study", "V", 2001),
        (2, [2], ["n2"], "Deep  graph network", "W", 2002),
        (3, [3], ["n3"], "common common common", "V", 2003),
    ]
    pdf = pd.DataFrame(
        rows, columns=["paper_id", "authors", "names", "title", "venue", "year"]
    )
    return spark.createDataFrame(pdf, schema=PAPER_SCHEMA).cache()


def keyword_rows(kw) -> pd.DataFrame:
    """(paper_id, keyword) rows of the per-paper keyword lists."""
    return kw.papers.select("paper_id", F.explode("kws").alias("keyword")).toPandas()


@pytest.mark.spark
class TestKeywords:
    def test_tokens_lowercased_split(self, spark, kw_papers):
        kws = keyword_rows(keywords(kw_papers, top_frequent_cut=1.0))
        assert sorted(kws[kws.paper_id == 2].keyword) == ["deep", "graph", "network"]

    def test_stopwords_removed(self, spark, kw_papers):
        kws = keyword_rows(keywords(kw_papers, top_frequent_cut=1.0))
        assert "the" not in set(kws.keyword)
        assert "a" not in set(kws.keyword)

    def test_frequent_words_cut(self, spark, kw_papers):
        # 'deep' appears in 3/4 papers = 75 % > 60 % cut; 'graph' in 2/4.
        kw = keywords(kw_papers, top_frequent_cut=0.6)
        kws = keyword_rows(kw)
        assert "deep" not in set(kws.keyword) and "deep" not in kw.fb
        assert "graph" in set(kws.keyword) and kw.fb["graph"] == 2

    def test_deduplicated_within_paper(self, spark, kw_papers):
        kws = keyword_rows(keywords(kw_papers, top_frequent_cut=1.0))
        sub = kws[kws.paper_id == 3]
        assert list(sub.keyword) == ["common"]

    def test_fb_counts_oracle(self, spark, kw_papers):
        """FB is the document frequency of each token that is no stop word
        and in at most a ``cut`` share of the papers; FH counts papers per
        venue."""
        toks = kw_papers.select(
            "paper_id", F.explode(F.split(F.lower("title"), r"\s+")).alias("token")
        ).toPandas()
        stop = pd.DataFrame({"word": sorted(set(STOPWORDS))})
        for cut in (1.0, 0.6, 0.3):
            kw = keywords(kw_papers, top_frequent_cut=cut)
            counts = pd.DataFrame(
                [(True, k, n) for k, n in kw.fb.items()]
                + [(False, k, n) for k, n in kw.fh.items()],
                columns=["is_kw", "key", "n"],
            )
            assert_equivalent(
                spark.createDataFrame(counts),
                f"""
                WITH df AS (
                    SELECT token, COUNT(DISTINCT paper_id) AS n FROM toks
                    WHERE token <> '' AND token NOT IN (SELECT word FROM stop)
                    GROUP BY token
                )
                SELECT TRUE AS is_kw, token AS key, n FROM df
                WHERE n <= {cut} * (SELECT COUNT(*) FROM papers)
                UNION ALL
                SELECT FALSE AS is_kw, venue AS key, COUNT(*) AS n FROM papers GROUP BY venue
                """,
                toks=toks,
                stop=stop,
                papers=kw_papers.select("paper_id", "venue"),
            )

    def test_corpus_keywords_exclude_generator_stopwords(self, spark, papers_df):
        kw = keywords(papers_df)
        kws = keyword_rows(kw)
        assert not (set(kws.keyword) & set(STOPWORDS))
        assert set(kws.keyword) == set(kw.fb)


@pytest.mark.spark
def test_batch_and_stream_read_titles_alike(spark, corpus):
    """Every corpus title and each odd title gives the same keywords in
    the batch (``keywords``: its distinct ``title_tokens`` without the
    frequent words, in order of first use) and in the incremental judge's
    new-paper profile, which keeps the tokens FB holds."""
    titles = [*corpus.papers.title, *ODD_TITLES]
    df = spark.createDataFrame(
        [(i, "V", 2000, t) for i, t in enumerate(titles)],
        "paper_id long, venue string, year int, title string",
    )
    kw = keywords(df)
    batch = {r.paper_id: r.kws for r in kw.papers.collect()}
    assert len(batch) == len(titles)
    stats = CorpusStats(fb=kw.fb, fh=kw.fh, word_vectors={})
    for i, title in enumerate(titles):
        want = [t for t in dict.fromkeys(title_tokens(title)) if t in kw.fb]
        assert batch[i] == want, repr(title)
        paper = {"paper_id": i, "names": ["n"], "title": title, "venue": "V", "year": 2000}
        assert list(profile_for_paper(paper, "n", stats).keywords) == sorted(want), repr(title)
