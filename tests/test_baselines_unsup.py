"""Unsupervised baselines (ANON, NetE, Aminer, GHOST) on the test corpus."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.embed import COAUTHOR_DIM, VENUE_DIM, PaperEmbedder, cosine_distance_matrix
from repro.baselines.ghost import NameGraph
from repro.eval.metrics import confusion_pandas
from repro.exp.tables import UNSUPERVISED as RUNNERS


@pytest.fixture(scope="module")
def embedder(corpus):
    return PaperEmbedder(corpus.papers)


@pytest.fixture(scope="module")
def few_names(test_names):
    return test_names[:8]


class TestEmbedder:
    def test_embed_dimensions(self, embedder):
        v = embedder.embed(0, "nobody", (1.0, 1.0, 1.0))
        assert v.shape == (COAUTHOR_DIM + embedder.title_dim + VENUE_DIM,)

    def test_target_name_excluded_from_coauthor_view(self, corpus, embedder):
        row = corpus.papers.iloc[0]
        full = embedder.coauthor_vec(row.paper_id, target_name="__none__")
        excl = embedder.coauthor_vec(row.paper_id, target_name=row.names[0])
        assert not np.allclose(full, excl)

    def test_same_venue_same_vector(self, corpus, embedder):
        byv = corpus.papers.groupby("venue").paper_id.apply(list)
        vs = next(v for v in byv if len(v) >= 2)
        np.testing.assert_allclose(
            embedder.venue_vec(vs[0]), embedder.venue_vec(vs[1])
        )

    def test_cosine_distance_range(self, embedder, corpus):
        X = np.stack(
            [embedder.embed(p, "x", (1, 1, 1)) for p in corpus.papers.paper_id[:20]]
        )
        D = cosine_distance_matrix(X)
        assert D.shape == (20, 20)
        assert (D >= -1e-9).all() and (D <= 2 + 1e-9).all()
        np.testing.assert_allclose(np.diag(D), 0.0, atol=1e-9)


@pytest.mark.parametrize("name", list(RUNNERS))
class TestBaselineRunners:
    def test_covers_all_papers_of_each_name(self, name, corpus, few_names, embedder):
        out = RUNNERS[name](corpus.papers, few_names, embedder)
        expect = {
            (n, pid)
            for pid, nms in zip(corpus.papers.paper_id, corpus.papers.names)
            for n in nms
            if n in set(few_names)
        }
        assert {(r.name, r.paper_id) for r in out.itertuples(index=False)} == expect

    def test_clusters_scoped_to_name(self, name, corpus, few_names, embedder):
        out = RUNNERS[name](corpus.papers, few_names, embedder)
        assert out.cluster.str.startswith(out.name.iloc[0]).any()
        for r in out.itertuples(index=False):
            assert r.cluster.startswith(r.name + ":")

    def test_beats_trivial_lower_bound(self, name, corpus, few_names, embedder, occurrences_truth):
        """Every baseline must beat the all-singletons clustering on
        MicroF (else it learned nothing)."""
        out = RUNNERS[name](corpus.papers, few_names, embedder)
        occ = occurrences_truth[occurrences_truth.name.isin(set(few_names))]
        m = confusion_pandas(out.merge(occ, on=["paper_id", "name"]))
        singletons = out.copy()
        singletons["cluster"] = np.arange(len(singletons)).astype(str)
        m0 = confusion_pandas(singletons.merge(occ, on=["paper_id", "name"]))
        assert m.micro_f > m0.micro_f


class TestGhostGraph:
    def test_distances_exclude_target(self, corpus):
        g = NameGraph(corpus.papers)
        src = corpus.papers.names.iloc[0][0]
        excl = corpus.papers.names.iloc[0][1] if len(corpus.papers.names.iloc[0]) > 1 else "none"
        d = g.distances_from(src, exclude=excl, max_depth=2)
        assert excl not in d
        assert d[src] == 0

    def test_depth_cap(self, corpus):
        g = NameGraph(corpus.papers)
        src = corpus.papers.names.iloc[0][0]
        d = g.distances_from(src, exclude="__none__", max_depth=1)
        assert max(d.values()) <= 1
