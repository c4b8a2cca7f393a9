"""Treeratpituk-style pairwise features for supervised baselines."""
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from repro.baselines.features import FeatureExtractor

# The columns of FeatureExtractor.pair, in order.
FEATURE_NAMES = (
    "n_shared_coauthors",
    "jaccard_coauthors",
    "rarest_shared_coauthor",
    "title_jaccard",
    "title_tfidf_cosine",
    "venue_equal",
    "venue_rarity",
    "year_gap",
    "n_coauthors_min",
    "n_coauthors_max",
)


@pytest.fixture(scope="module")
def papers():
    return pd.DataFrame(
        {
            "paper_id": [0, 1, 2, 3],
            "authors": [[1, 2, 3], [1, 2, 4], [5, 6], [7]],
            "names": [
                ["T", "alice", "bob"],
                ["T", "alice", "carol"],
                ["T", "dave"],
                ["T"],
            ],
            "title": [
                "the graph kernel research",
                "a graph kernel evaluation",
                "biology of cells",
                "unrelated things entirely",
            ],
            "venue": ["V1", "V1", "V2", "V3"],
            "year": [2000, 2003, 2010, 2020],
        }
    )


@pytest.fixture(scope="module")
def fx(papers):
    return FeatureExtractor(papers)


class TestFeatureExtractor:
    def test_feature_vector_length(self, fx):
        assert len(fx.pair(0, 1, "T")) == len(FEATURE_NAMES)

    def test_shared_coauthors_excludes_target(self, fx):
        v = dict(zip(FEATURE_NAMES, fx.pair(0, 1, "T")))
        assert v["n_shared_coauthors"] == 1.0  # alice
        assert v["jaccard_coauthors"] == pytest.approx(1 / 3)

    def test_rarest_shared_coauthor_weight(self, fx):
        v = dict(zip(FEATURE_NAMES, fx.pair(0, 1, "T")))
        # alice appears twice in the corpus -> 1/log(2)
        assert v["rarest_shared_coauthor"] == pytest.approx(1 / math.log(2))

    def test_title_overlap(self, fx):
        v = dict(zip(FEATURE_NAMES, fx.pair(0, 1, "T")))
        # after stopwords: {graph, kernel, research} vs {graph, kernel, evaluation}
        assert v["title_jaccard"] == pytest.approx(2 / 4)
        assert 0.1 < v["title_tfidf_cosine"] < 1.0

    def test_disjoint_titles_zero(self, fx):
        v = dict(zip(FEATURE_NAMES, fx.pair(2, 3, "T")))
        assert v["title_jaccard"] == 0.0
        assert v["title_tfidf_cosine"] == 0.0

    def test_venue_features(self, fx):
        same = dict(zip(FEATURE_NAMES, fx.pair(0, 1, "T")))
        diff = dict(zip(FEATURE_NAMES, fx.pair(0, 2, "T")))
        assert same["venue_equal"] == 1.0
        assert same["venue_rarity"] == pytest.approx(1 / math.log(2))
        assert diff["venue_equal"] == 0.0 and diff["venue_rarity"] == 0.0

    def test_year_gap(self, fx):
        v = dict(zip(FEATURE_NAMES, fx.pair(0, 3, "T")))
        assert v["year_gap"] == 20.0

    def test_symmetry(self, fx):
        np.testing.assert_allclose(fx.pair(0, 1, "T"), fx.pair(1, 0, "T"))

    def test_pairs_matrix(self, fx):
        rows = pd.DataFrame({"p1": [0, 2], "p2": [1, 3], "name": ["T", "T"]})
        M = fx.pairs_matrix(rows)
        assert M.shape == (2, len(FEATURE_NAMES))
        np.testing.assert_allclose(M[0], fx.pair(0, 1, "T"))


#: Prints a digest of the feature matrix of every fifth within-name pair of
#: the 60 most frequent names of the SF 0.01 corpus (15 550 pairs).
_MATRIX_DIGEST = textwrap.dedent("""
    import hashlib
    from repro.baselines.features import FeatureExtractor
    from repro.baselines.supervised import labelled_name_pairs
    from repro.dblp.generator import author_paper_pairs, generate

    papers = generate(sf=0.01, seed=7).papers
    occ = author_paper_pairs(papers)
    pairs = labelled_name_pairs(occ, occ.name.value_counts().index[:60].tolist()).iloc[::5]
    X = FeatureExtractor(papers).pairs_matrix(pairs)
    print(len(X), hashlib.sha256(X.tobytes()).hexdigest())
""")


def test_pairs_matrix_independent_of_hash_seed():
    """Two processes with different string hash seeds build bit-identical
    feature matrices: no sum may follow a set's iteration order."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        res = subprocess.run([sys.executable, "-c", _MATRIX_DIGEST], env=env, capture_output=True,
                             text=True, timeout=300, check=True)
        out.append(res.stdout.split())
    assert int(out[0][0]) > 10_000
    assert out[0] == out[1]
