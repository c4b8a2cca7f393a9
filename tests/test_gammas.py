"""The six similarity functions as pure pair math."""
import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core.gammas import (
    ALPHA,
    GAMMA_NAMES,
    CorpusStats,
    Profile,
    g1_wl_kernel,
    g2_clique,
    g3_interest,
    g4_time,
    g5_repr_community,
    g6_community,
    gamma_block,
    gamma_vector,
    modal_venue,
)


def mk_profile(
    vid="n#x",
    name="n",
    n_papers=4,
    venues=None,
    keywords=None,
    wl=None,
    triangles=(),
):
    venues = venues if venues is not None else {}
    wl = wl or {}
    return Profile(
        vertex_id=vid,
        name=name,
        n_papers=n_papers,
        venues=venues,
        modal_venue=modal_venue(venues),
        keywords=keywords or {},
        wl=wl,
        triangles=frozenset(triangles),
    )


@pytest.fixture
def stats():
    return CorpusStats(
        fb={"kw1": 10, "kw2": 100, "rare": 2},
        fh={"V1": 20, "V2": 5, "Vbig": 1000},
        word_vectors={
            "kw1": np.array([1.0, 0.0]),
            "kw2": np.array([0.0, 1.0]),
            "rare": np.array([1.0, 1.0]),
        },
    )


class TestG1WL:
    def test_identical_maps_give_one(self):
        p = mk_profile(wl={"0:a": 2.0, "0:b": 1.0})
        assert g1_wl_kernel(p, p) == pytest.approx(1.0)

    def test_disjoint_maps_give_zero(self):
        p1 = mk_profile(wl={"0:a": 1.0})
        p2 = mk_profile(wl={"0:b": 1.0})
        assert g1_wl_kernel(p1, p2) == 0.0

    def test_empty_map_gives_zero(self):
        p1 = mk_profile(wl={})
        p2 = mk_profile(wl={"0:a": 1.0})
        assert g1_wl_kernel(p1, p2) == 0.0

    def test_known_value(self):
        p1 = mk_profile(wl={"0:a": 1.0, "0:b": 1.0})
        p2 = mk_profile(wl={"0:a": 1.0, "0:c": 1.0})
        assert g1_wl_kernel(p1, p2) == pytest.approx(0.5)

    def test_symmetric(self):
        p1 = mk_profile(wl={"0:a": 2.0, "0:b": 1.0})
        p2 = mk_profile(wl={"0:a": 1.0, "0:c": 3.0})
        assert g1_wl_kernel(p1, p2) == g1_wl_kernel(p2, p1)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w1 = {f"0:{i}": float(rng.integers(1, 5)) for i in rng.integers(0, 10, 5)}
            w2 = {f"0:{i}": float(rng.integers(1, 5)) for i in rng.integers(0, 10, 5)}
            v = g1_wl_kernel(mk_profile(wl=w1), mk_profile(wl=w2))
            assert 0.0 <= v <= 1.0 + 1e-12


class TestG2Clique:
    def test_counts_common_triangles(self):
        p1 = mk_profile(triangles={"x|y", "x|z"})
        p2 = mk_profile(triangles={"x|y", "q|r"})
        assert g2_clique(p1, p2, tau=2) == pytest.approx(0.5)

    def test_no_common(self):
        assert g2_clique(mk_profile(triangles={"a|b"}), mk_profile(), tau=1) == 0.0


class TestG3Interest:
    def test_same_keywords_cosine_one(self, stats):
        kw = {"kw1": (2, 2000, 2001)}
        assert g3_interest(mk_profile(keywords=kw), mk_profile(keywords=kw), stats) == pytest.approx(1.0)

    def test_orthogonal_keywords_cosine_zero(self, stats):
        p1 = mk_profile(keywords={"kw1": (1, 2000, 2000)})
        p2 = mk_profile(keywords={"kw2": (1, 2000, 2000)})
        assert g3_interest(p1, p2, stats) == pytest.approx(0.0)

    def test_empty_keywords_zero(self, stats):
        assert g3_interest(mk_profile(), mk_profile(keywords={"kw1": (1, 2000, 2000)}), stats) == 0.0

    def test_count_weighted_mean(self, stats):
        p1 = mk_profile(keywords={"kw1": (3, 2000, 2000), "kw2": (1, 2000, 2000)})
        p2 = mk_profile(keywords={"kw1": (1, 2000, 2000)})
        expect = (3 / math.sqrt(10)) / 1.0  # cos between (3,1)/√10 and (1,0)
        assert g3_interest(p1, p2, stats) == pytest.approx(expect)

    def test_unknown_words_ignored(self, stats):
        p1 = mk_profile(keywords={"nope": (5, 2000, 2000), "kw1": (1, 2000, 2000)})
        p2 = mk_profile(keywords={"kw1": (2, 2001, 2001)})
        assert g3_interest(p1, p2, stats) == pytest.approx(1.0)


class TestG4Time:
    def test_overlapping_years_no_decay(self, stats):
        p1 = mk_profile(keywords={"kw1": (1, 2000, 2005)}, n_papers=2)
        p2 = mk_profile(keywords={"kw1": (1, 2003, 2007)}, n_papers=3)
        expect = 1.0 / math.log(10) / 2  # tau = 2
        assert g4_time(p1, p2, 2, stats) == pytest.approx(expect)

    def test_year_gap_decays(self, stats):
        p1 = mk_profile(keywords={"kw1": (1, 2000, 2000)})
        p2 = mk_profile(keywords={"kw1": (1, 2010, 2010)})
        expect = math.exp(-ALPHA * 10) / math.log(10)
        assert g4_time(p1, p2, 1, stats) == pytest.approx(expect)

    def test_rare_words_weigh_more(self, stats):
        rare = mk_profile(keywords={"rare": (1, 2000, 2000)})
        rare2 = mk_profile(keywords={"rare": (1, 2000, 2000)})
        freq = mk_profile(keywords={"kw2": (1, 2000, 2000)})
        freq2 = mk_profile(keywords={"kw2": (1, 2000, 2000)})
        assert g4_time(rare, rare2, 1, stats) > g4_time(freq, freq2, 1, stats)

    def test_fb_floor_two(self, stats):
        """FB=1 would make 1/log(FB) blow up; the floor keeps it finite."""
        s = CorpusStats(fb={"w": 1}, fh={}, word_vectors={})
        p1 = mk_profile(keywords={"w": (1, 2000, 2000)})
        v = g4_time(p1, p1, 1, s)
        assert v == pytest.approx(1.0 / math.log(2))


class TestG5ReprCommunity:
    def test_paper_formula(self, stats):
        p1 = mk_profile(venues={"V1": 3, "V2": 1})  # modal V1
        p2 = mk_profile(venues={"V1": 2, "V2": 4})  # modal V2
        # cnt(H2, V1) + cnt(H1, V2) = 2 + 1 = 3; tau = 2
        assert g5_repr_community(p1, p2, 2) == pytest.approx(1.5)

    def test_no_shared_modal_zero(self, stats):
        p1 = mk_profile(venues={"V1": 2})
        p2 = mk_profile(venues={"V2": 2})
        assert g5_repr_community(p1, p2, 2) == 0.0

    def test_empty_venues(self, stats):
        assert g5_repr_community(mk_profile(), mk_profile(venues={"V1": 1}), 1) == 0.0


class TestG6Community:
    def test_adamic_adar_weighting(self, stats):
        p1 = mk_profile(venues={"V2": 1, "Vbig": 1})
        p2 = mk_profile(venues={"V2": 2, "Vbig": 3})
        expect = 1 / math.log(5) + 1 / math.log(1000)
        assert g6_community(p1, p2, 1, stats) == pytest.approx(expect)

    def test_niche_beats_popular(self, stats):
        niche = g6_community(
            mk_profile(venues={"V2": 1}), mk_profile(venues={"V2": 1}), 1, stats
        )
        popular = g6_community(
            mk_profile(venues={"Vbig": 1}), mk_profile(venues={"Vbig": 1}), 1, stats
        )
        assert niche > popular


class TestGammaVector:
    def test_shape_and_symmetry(self, stats):
        p1 = mk_profile(
            venues={"V1": 2}, keywords={"kw1": (1, 2000, 2001)}, wl={"0:a": 1.0},
            triangles={"a|b"}, n_papers=3,
        )
        p2 = mk_profile(
            venues={"V1": 1, "V2": 1}, keywords={"kw1": (2, 2002, 2003)},
            wl={"0:a": 2.0}, triangles={"a|b"}, n_papers=5,
        )
        g12 = gamma_vector(p1, p2, stats)
        g21 = gamma_vector(p2, p1, stats)
        assert g12.shape == (6,)
        np.testing.assert_allclose(g12, g21)

    def test_identical_profiles_maximal_signals(self, stats):
        p = mk_profile(
            venues={"V1": 2}, keywords={"kw1": (1, 2000, 2001)}, wl={"0:a": 1.0},
            triangles={"a|b"}, n_papers=2,
        )
        g = gamma_vector(p, p, stats)
        assert g[0] == pytest.approx(1.0)  # WL
        assert g[2] == pytest.approx(1.0)  # cosine

    def test_tau_uses_min_papers(self, stats):
        p1 = mk_profile(venues={"V1": 4}, n_papers=4)
        p2 = mk_profile(venues={"V1": 8}, n_papers=8)
        # g5 = (cnt(H2,V1) + cnt(H1,V1)) / min(4,8) = (8+4)/4
        assert gamma_vector(p1, p2, stats)[4] == pytest.approx(3.0)


def assert_block_matches(a, b, stats):
    """``gamma_block`` equals ``gamma_vector`` on every pair, to 1e-12."""
    block = gamma_block(a, b, stats)
    assert block.shape == (len(a), len(b), len(GAMMA_NAMES))
    for i, pi in enumerate(a):
        for j, pj in enumerate(b):
            np.testing.assert_allclose(block[i, j], gamma_vector(pi, pj, stats), rtol=0, atol=1e-12)


def random_profiles(rng, n, name="n"):
    """Profiles drawing on small shared vocabularies, so that pairs share
    some keywords, venues, WL labels and triangles; some keywords have no
    vector or no FB count, some venues no FH count."""
    words = [f"w{i}" for i in range(12)] + ["kw1", "kw2", "rare"]
    out = []
    for i in range(n):
        pick = lambda k, most: rng.choice(k, rng.integers(0, most), replace=False)  # noqa: E731
        venues = {f"V{j}": int(rng.integers(1, 4)) for j in pick(5, 4)}
        keywords = {}
        for w in pick(words, 7):
            lo = int(rng.integers(1990, 2010))
            keywords[str(w)] = (int(rng.integers(1, 5)), lo, lo + int(rng.integers(0, 6)))
        wl = {f"1:{j}": float(rng.integers(1, 4)) for j in pick(8, 4)}
        tri = {t for t in ("a|b", "b|c", "c|d") if rng.random() < 0.4}
        n_papers = int(rng.integers(1, 9))
        out.append(mk_profile(f"{name}#{i}", name, n_papers, venues, keywords, wl, tri))
    return out


class TestGammaBlock:
    """The numpy kernel against the pair-by-pair reference."""

    def test_random_square_and_rectangular(self, stats):
        ps = random_profiles(np.random.default_rng(0), 30)
        assert_block_matches(ps, ps, stats)
        assert_block_matches(ps[:1], ps, stats)
        assert_block_matches(ps[:7], ps[5:], stats)

    def test_empty_sides(self, stats):
        p = mk_profile()
        assert gamma_block([], [p], stats).shape == (0, 1, 6)
        assert gamma_block([p], [], stats).shape == (1, 0, 6)

    def test_no_keywords(self, stats):
        a = mk_profile(venues={"V1": 2}, n_papers=2)
        b = mk_profile(venues={"V1": 1}, keywords={"kw1": (1, 2000, 2000)}, n_papers=1)
        assert_block_matches([a, b], [a, b], stats)
        assert gamma_block([a], [b], stats)[0, 0, 2:4].tolist() == [0.0, 0.0]

    def test_keywords_without_vectors(self, stats):
        a = mk_profile(keywords={"novec": (2, 2000, 2001), "other": (1, 1999, 1999)})
        b = mk_profile(keywords={"novec": (1, 2003, 2004), "kw1": (1, 2000, 2000)})
        assert_block_matches([a, b], [a, b], stats)
        g = gamma_block([a], [b], stats)[0, 0]
        assert g[2] == 0.0 and g[3] > 0.0

    def test_modal_venue_none(self, stats):
        a = mk_profile(venues={}, n_papers=2)
        b = mk_profile(venues={"V1": 2}, n_papers=2)
        c = dataclasses.replace(b, modal_venue="Vnowhere")
        assert a.modal_venue is None
        assert_block_matches([a, b, c], [a, b, c], stats)

    def test_wl_norm_zero(self, stats):
        """A WL map whose counts are all 0 has norm 0, and γ₁ is then 0."""
        a = mk_profile(wl={"0:a": 0.0})
        b = mk_profile(wl={"0:a": 2.0})
        assert_block_matches([a, b], [a, b], stats)
        assert gamma_block([a], [b], stats)[0, 0, 0] == g1_wl_kernel(a, b) == 0.0

    def test_no_triangles(self, stats):
        a = mk_profile(triangles=())
        b = mk_profile(triangles={"a|b"})
        assert_block_matches([a, b], [a, b], stats)
        assert gamma_block([a], [b], stats)[0, 0, 1] == 0.0

    def test_one_vertex(self, stats):
        (p,) = random_profiles(np.random.default_rng(1), 1)
        assert_block_matches([p], [p], stats)

    def test_two_identical_vertices(self, stats):
        p = mk_profile(
            venues={"V1": 2, "V2": 1}, keywords={"kw1": (2, 2000, 2004), "kw2": (1, 2001, 2001)},
            wl={"0:a": 1.0, "1:b": 2.0}, triangles={"a|b"}, n_papers=3,
        )
        q = dataclasses.replace(p, vertex_id="n#y")
        assert_block_matches([p, q], [p, q], stats)
        g = gamma_block([p, q], [p, q], stats)
        np.testing.assert_array_equal(g[0, 1], g[1, 0])
        assert g[0, 1, 0] == pytest.approx(1.0) and g[0, 1, 2] == pytest.approx(1.0)

    def test_many_shared_keywords_one_pair(self, stats):
        """A 1×1 block whose shared keywords outnumber its cells runs γ₄ in
        several chunks; the sum is the same."""
        kws = {f"w{i}": (1, 2000 + i, 2001 + i) for i in range(40)}
        a = mk_profile(keywords=kws)
        b = mk_profile(keywords={k: (2, lo + 3, hi + 3) for k, (_, lo, hi) in kws.items()})
        assert_block_matches([a], [b], stats)


def test_gamma_vector_is_only_the_reference():
    """The pipeline runs ``gamma_block`` alone: no module under ``src/``
    besides ``core/gammas.py`` refers to ``gamma_vector``."""
    src = Path(__file__).resolve().parents[1] / "src"
    users = []
    for path in src.rglob("*.py"):
        if path.name == "gammas.py" and path.parent.name == "core":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = (
                [a.name for a in node.names] if isinstance(node, (ast.Import, ast.ImportFrom))
                else [getattr(node, "id", None), getattr(node, "attr", None)]
            )
            if "gamma_vector" in names:
                users.append(str(path.relative_to(src)))
    assert not users, users
