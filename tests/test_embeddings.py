"""PPMI+SVD word vectors (the Word2Vec substitute) — Spark and local."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.embed import local_keywords, local_word_vectors
from repro.dblp.generator import PAPER_SCHEMA
from repro.graph.pairs import pair_counts
from repro.text.embeddings import word_vectors
from repro.text.keywords import keywords


@pytest.fixture(scope="module")
def topic_papers(spark):
    """Two clear topics: {cat, dog} co-occur; {vector, matrix} co-occur."""
    rows = []
    pid = 0
    for _ in range(10):
        rows.append((pid, [0], ["n0"], "cat dog animal", "V", 2000)); pid += 1
        rows.append((pid, [1], ["n1"], "vector matrix algebra", "V", 2000)); pid += 1
    rows.append((pid, [2], ["n2"], "cat algebra", "V", 2000)); pid += 1
    pdf = pd.DataFrame(rows, columns=["paper_id", "authors", "names", "title", "venue", "year"])
    return spark.createDataFrame(pdf, schema=PAPER_SCHEMA).cache()


@pytest.mark.spark
class TestSparkEmbeddings:
    def test_cooccurrence_counts(self, spark, topic_papers):
        kw = keywords(topic_papers, top_frequent_cut=1.0)
        co = {(r.w1, r.w2): r.cnt for r in pair_counts(kw.papers, "kws", "w1", "w2").collect()}
        assert co[("cat", "dog")] == 10
        assert co[("algebra", "matrix")] == 10
        assert co[("algebra", "cat")] == 1

    def test_topical_words_closer_than_cross_topic(self, spark, topic_papers):
        kw = keywords(topic_papers, top_frequent_cut=1.0)
        vecs = word_vectors(kw.papers, kw.fb, dim=8)
        cos = lambda a, b: float(  # noqa: E731
            np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12)
        )
        within = cos(vecs["cat"], vecs["dog"])
        across = cos(vecs["cat"], vecs["matrix"])
        assert within > across

    def test_all_keywords_covered(self, spark, topic_papers):
        kw = keywords(topic_papers, top_frequent_cut=1.0)
        got = set(word_vectors(kw.papers, kw.fb, dim=8))
        assert got == set(kw.fb) == {"cat", "dog", "animal", "vector", "matrix", "algebra"}

    def test_empty_corpus(self, spark):
        empty = spark.createDataFrame(
            pd.DataFrame([(0, [0], ["n"], "the of and", "V", 2000)],
                         columns=["paper_id", "authors", "names", "title", "venue", "year"]),
            schema=PAPER_SCHEMA,
        )
        kw = keywords(empty, top_frequent_cut=1.0)
        assert word_vectors(kw.papers, kw.fb) == {}


    def test_local_vectors_equal_spark_vectors(self, spark):
        """With one vocabulary order (every keyword count distinct) the
        baselines' local vectors are the batch's, bit for bit."""
        titles = ["alpha beta gamma"] * 3 + ["alpha beta delta"] * 2 + ["alpha"]
        pdf = pd.DataFrame(
            [(i, [0], ["n0"], t, "V", 2000) for i, t in enumerate(titles)],
            columns=["paper_id", "authors", "names", "title", "venue", "year"],
        )
        kw = keywords(spark.createDataFrame(pdf, schema=PAPER_SCHEMA), top_frequent_cut=1.0)
        batch = word_vectors(kw.papers, kw.fb, dim=4)
        local = local_word_vectors(local_keywords(pdf, top_frequent_cut=1.0), dim=4)
        assert list(batch) == list(local) == ["alpha", "beta", "gamma", "delta"]
        assert all(np.array_equal(batch[w], local[w]) for w in batch)


class TestLocalEmbeddings:
    def test_local_matches_structure(self):
        papers = pd.DataFrame(
            {
                "paper_id": [0, 1, 2],
                "title": ["cat dog", "cat dog", "vector matrix"],
            }
        )
        kw = local_keywords(papers, top_frequent_cut=1.0)
        assert kw[0] == ["cat", "dog"]
        vecs = local_word_vectors(kw, dim=4)
        assert set(vecs) == {"cat", "dog", "vector", "matrix"}

    def test_local_stopword_and_cut(self):
        papers = pd.DataFrame(
            {"paper_id": [0, 1], "title": ["the cat sat", "the dog sat"]}
        )
        kw = local_keywords(papers, top_frequent_cut=0.6)
        # 'the' is a stopword; 'sat' is in 100 % of papers > 60 % cut
        assert kw[0] == ["cat"] and kw[1] == ["dog"]
