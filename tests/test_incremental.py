"""Incremental single-paper disambiguation (§ V-E)."""
import numpy as np
import pytest

from repro.core import incremental
from repro.core.em import EMParams, FeatureParams, score_array
from repro.core.gammas import GAMMA_NAMES, CorpusStats, gamma_vector
from repro.core.incremental import IncrementalJudge, _combine, profile_for_paper
from tests.test_gammas import mk_profile, random_profiles


@pytest.fixture
def stats():
    return CorpusStats(
        fb={"graph": 10, "kernel": 5, "matrix": 8},
        fh={"V1": 10, "V2": 8, "V3": 50},
        word_vectors={
            "graph": np.array([1.0, 0.0]),
            "kernel": np.array([0.9, 0.1]),
            "matrix": np.array([0.0, 1.0]),
        },
    )


@pytest.fixture
def params():
    """Hand-built parameters: high γ5/γ6/γ3 means 'matched'."""
    mk = lambda lm, lu: FeatureParams("exponential", {"lam": lm}, {"lam": lu})  # noqa: E731
    return EMParams(
        p=0.3,
        features={
            "g1_wl": FeatureParams("gaussian", {"mu": 0.0, "var": 0.1}, {"mu": 0.0, "var": 0.1}),
            "g2_clique": mk(10.0, 10.0),
            "g3_interest": FeatureParams("gaussian", {"mu": 0.9, "var": 0.05}, {"mu": 0.1, "var": 0.05}),
            "g4_time": mk(2.0, 15.0),
            "g5_repr_comm": mk(0.5, 15.0),
            "g6_comm": mk(2.0, 15.0),
        },
    )


def v1_profile():
    return mk_profile(
        vid="n#v1", n_papers=5, venues={"V1": 4, "V3": 1},
        keywords={"graph": (4, 2000, 2006), "kernel": (2, 2001, 2005)},
    )


def v2_profile():
    return mk_profile(
        vid="n#v2", n_papers=5, venues={"V2": 5},
        keywords={"matrix": (5, 2000, 2006)},
    )


def graph_paper(pid=99, venue="V1"):
    return {
        "paper_id": pid, "names": ["n", "x"], "title": "a graph kernel study",
        "venue": venue, "year": 2006,
    }


class TestPaperProfile:
    def test_keywords_filtered_to_vocab(self, stats):
        """A new paper's keywords are its title tokens (``title_tokens``)
        that FB holds, de-duplicated and sorted."""
        paper = {**graph_paper(), "title": "the Kernel\tgraph of  nowhere graph"}
        assert list(profile_for_paper(paper, "n", stats).keywords) == ["graph", "kernel"]

    def test_profile_shape(self, stats):
        p = profile_for_paper(graph_paper(), "n", stats)
        assert p.n_papers == 1
        assert p.venues == {"V1": 1}
        assert p.modal_venue == "V1"
        assert set(p.keywords) == {"graph", "kernel"}
        assert p.wl == {} and p.triangles == frozenset()


#: One case per malformed paper: the fields that break a valid paper and
#: the error's message. The judge and the batch run
#: (``test_pipeline_integration``) reject each.
bad_papers = pytest.mark.parametrize(
    "change, message",
    [
        ({"names": []}, "empty co-author list"),
        ({"names": ["n", "x", "n"]}, "name twice"),
        ({"year": None}, "no year"),
        ({"venue": None}, "no venue"),
        ({"names": ["n", "x#y"]}, "name holding # or @"),
        ({"names": ["n", None]}, "null name"),
    ],
    ids=["empty_names", "repeated_name", "no_year", "no_venue", "vertex_id_separator",
         "null_name"],
)


class TestBadPaper:
    @bad_papers
    def test_raises(self, stats, change, message):
        with pytest.raises(ValueError, match=message):
            profile_for_paper({**graph_paper(), **change}, "n", stats)


class TestJudge:
    def test_assigns_to_similar_vertex(self, stats, params):
        j = IncrementalJudge([v1_profile(), v2_profile()], stats, params, delta=0.0)
        vid, score = j.judge(graph_paper(), "n")
        assert vid == "n#v1"
        assert score >= 0.0

    def test_rejects_below_delta(self, stats, params):
        j = IncrementalJudge([v2_profile()], stats, params, delta=0.0)
        vid, score = j.judge(graph_paper(), "n")
        assert vid is None

    def test_unknown_name_isolated(self, stats, params):
        j = IncrementalJudge([], stats, params, delta=0.0)
        vid, score = j.judge(graph_paper(), "zz")
        assert vid is None and score == float("-inf")

    def test_argmax_condition(self, stats, params):
        """v^a goes to the *best* vertex, not just any above δ (cond. 1)."""
        near = v1_profile()
        far = mk_profile(
            vid="n#v3", n_papers=5, venues={"V1": 1, "V2": 4},
            keywords={"graph": (1, 2000, 2000)},
        )
        j = IncrementalJudge([far, near], stats, params, delta=-1e9)
        vid, _ = j.judge(graph_paper(), "n")
        assert vid == "n#v1"


class TestJudgeKernel:
    def test_matches_gamma_vector_scores(self, stats, params):
        """The judge's 1×k kernel call picks the vertex and score that
        scoring ``gamma_vector`` rows pick."""
        rng = np.random.default_rng(3)
        for trial in range(5):
            cands = random_profiles(rng, 12)
            paper = graph_paper(pid=200 + trial, venue=f"V{trial}")
            q = profile_for_paper(paper, "n", stats)
            ref = score_array(np.stack([gamma_vector(q, c, stats) for c in cands]), params)
            vid, score = IncrementalJudge(cands, stats, params, delta=-1e9).judge(paper, "n")
            assert vid == cands[int(np.argmax(ref))].vertex_id
            assert score == pytest.approx(ref.max(), rel=0, abs=1e-9)


class TestQueryProfileReuse:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts title tokenisations, one per query profile built."""
        seen = []

        def counting(title):
            seen.append(title)
            return title_tokens(title)

        title_tokens = incremental.title_tokens
        monkeypatch.setattr(incremental, "title_tokens", counting)
        return seen

    def test_judge_then_assimilate_tokenises_once(self, stats, params, calls):
        j = IncrementalJudge([v1_profile(), v2_profile()], stats, params, delta=0.0)
        paper = graph_paper()
        vid, _ = j.judge(paper, "n")
        assert j.assimilate(paper, "n", vid) == "n#v1"
        assert len(calls) == 1
        assert next(p for p in j.by_name["n"] if p.vertex_id == "n#v1").n_papers == 6

    def test_assimilate_without_judge(self, stats, params, calls):
        j = IncrementalJudge([v1_profile()], stats, params, delta=0.0)
        assert j.assimilate(graph_paper(), "n", "n#v1") == "n#v1"
        assert len(calls) == 1
        assert j.by_name["n"][0].venues == {"V1": 5, "V3": 1}

    def test_assimilate_after_judging_another_occurrence(self, stats, params, calls):
        j = IncrementalJudge([v1_profile(), v2_profile()], stats, params, delta=0.0)
        judged, other = graph_paper(pid=1, venue="V1"), graph_paper(pid=2, venue="V2")
        j.judge(judged, "n")
        assert j.assimilate(other, "n", None) == "n@new2"
        assert j.by_name["n"][-1].venues == {"V2": 1}
        # The same paper under another name is another occurrence too.
        j.judge(judged, "n")
        assert j.assimilate(judged, "x", None) == "x@new1"
        assert len(calls) == 4


class TestAssimilate:
    def test_assigned_paper_updates_profile(self, stats, params):
        j = IncrementalJudge([v1_profile()], stats, params, delta=0.0)
        out = j.assimilate(graph_paper(), "n", "n#v1")
        assert out == "n#v1"
        p = j.by_name["n"][0]
        assert p.n_papers == 6
        assert p.venues["V1"] == 5

    def test_unassigned_creates_new_vertex(self, stats, params):
        j = IncrementalJudge([v2_profile()], stats, params, delta=0.0)
        out = j.assimilate(graph_paper(), "n", None)
        assert out.startswith("n@new")
        assert len(j.by_name["n"]) == 2

    def test_name_not_on_paper_raises(self, stats, params):
        """A name missing from the paper's author list is bad input: neither
        judging nor assimilating may build a vertex for it."""
        j = IncrementalJudge([v1_profile()], stats, params, delta=0.0)
        paper = graph_paper()
        paper["names"] = ["x"]
        with pytest.raises(ValueError):
            j.judge(paper, "n")
        with pytest.raises(ValueError):
            j.assimilate(paper, "n", None)
        assert [p.vertex_id for p in j.by_name["n"]] == ["n#v1"]

    def test_unknown_vertex_raises(self, stats, params):
        j = IncrementalJudge([v1_profile()], stats, params, delta=0.0)
        with pytest.raises(KeyError):
            j.assimilate(graph_paper(), "n", "n#nope")

    def test_streaming_consistency(self, stats, params):
        """Two graph papers in a row both land on v1 and accumulate."""
        j = IncrementalJudge([v1_profile(), v2_profile()], stats, params, delta=0.0)
        for pid in (101, 102):
            vid, _ = j.judge(graph_paper(pid), "n")
            j.assimilate(graph_paper(pid), "n", vid)
        v1 = next(p for p in j.by_name["n"] if p.vertex_id == "n#v1")
        assert v1.n_papers == 7


class TestCombine:
    def test_counts_merge(self):
        a = mk_profile(venues={"V1": 2}, keywords={"k": (2, 2000, 2002)}, n_papers=2)
        b = mk_profile(venues={"V1": 1, "V2": 1}, keywords={"k": (1, 1999, 2005)}, n_papers=2)
        c = _combine(a, b)
        assert c.n_papers == 4
        assert c.venues == {"V1": 3, "V2": 1}
        assert c.keywords["k"] == (3, 1999, 2005)

    def test_modal_recomputed(self):
        a = mk_profile(venues={"V1": 2})
        b = mk_profile(venues={"V2": 5})
        assert _combine(a, b).modal_venue == "V2"

    def test_wl_union(self):
        a = mk_profile(wl={"0:x": 1.0})
        b = mk_profile(wl={"0:x": 2.0, "0:y": 1.0})
        c = _combine(a, b)
        assert c.wl == {"0:x": 3.0, "0:y": 1.0}


@pytest.mark.spark
@pytest.mark.slow
class TestFromModel:
    def test_profiles_merged_per_gcn_vertex(self, spark, model):
        j = IncrementalJudge.from_model(model)
        n_gcn = model.gcn.assignments.select("gcn_vertex").distinct().count()
        assert sum(len(v) for v in j.by_name.values()) == n_gcn

    def test_judge_runs_on_real_name(self, spark, model, corpus, test_names):
        j = IncrementalJudge.from_model(model)
        name = test_names[0]
        row = next(
            r for r in corpus.papers.itertuples(index=False) if name in r.names
        )
        paper = {
            "paper_id": 10_000_000, "names": row.names, "title": row.title,
            "venue": row.venue, "year": row.year,
        }
        vid, score = j.judge(paper, name)
        assert vid is None or vid in {p.vertex_id for p in j.by_name[name]}
        assert np.isfinite(score)
