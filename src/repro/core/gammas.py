"""The six similarity functions γ₁..γ₆ as pure pair math.

A vertex is summarised by a *profile* (built in ``core.profiles`` by Spark
aggregation); the γ vector of a vertex pair is a pure function of the two
profiles plus corpus statistics. This single implementation backs both the
batch path (``core.similarity`` calls it per name group inside
``applyInPandas`` — the per-partition posterior dataflow) and the
incremental path (``core.incremental`` calls it for one new paper against
existing vertices).
"""
from __future__ import annotations

import dataclasses
import math
from typing import Mapping

import numpy as np

#: decay factor of eq. (7); the paper sets it to 0.62. The printed formula
#: ``e^{α·min(b)}`` grows with the year gap, contradicting "decay" and its
#: FutureRank source (e^{-ρt}); we implement the decay exp(-α·gap).
ALPHA = 0.62

GAMMA_NAMES = ("g1_wl", "g2_clique", "g3_interest", "g4_time", "g5_repr_comm", "g6_comm")


@dataclasses.dataclass
class Profile:
    """Per-vertex summary consumed by the similarity functions."""

    vertex_id: str
    name: str
    n_papers: int
    venues: dict[str, int]            # venue -> #papers (multiset H(v))
    modal_venue: str | None           # most frequent venue (h_v)
    keywords: dict[str, tuple[int, int, int]]  # kw -> (count, min_year, max_year)
    wl: dict[str, float]              # WL feature map (label -> count)
    wl_norm: float
    triangles: frozenset[str]         # "n1|n2" name pairs closing a triangle


@dataclasses.dataclass
class CorpusStats:
    """Corpus-level statistics shared by all pairs."""

    fb: Mapping[str, int]             # keyword -> #papers in whole corpus
    fh: Mapping[str, int]             # venue -> #papers in whole corpus
    word_vectors: Mapping[str, np.ndarray]
    dim: int
    alpha: float = ALPHA


def modal_venue(venues: Mapping[str, int]) -> str | None:
    """h_v: the venue with the most papers, ties to the larger name; None
    without venues. ``profiles.build_profiles`` is its Catalyst form."""
    return max(venues.items(), key=lambda kv: (kv[1], kv[0]))[0] if venues else None


def _mean_vec(p: Profile, stats: CorpusStats) -> np.ndarray:
    acc = np.zeros(stats.dim)
    n = 0
    for w, (cnt, _, _) in p.keywords.items():
        v = stats.word_vectors.get(w)
        if v is not None:
            acc += cnt * v
            n += cnt
    return acc / n if n else acc


def g1_wl_kernel(pi: Profile, pj: Profile) -> float:
    """Normalized WL sub-graph kernel (eq. 4); 0 if either map is empty."""
    if pi.wl_norm == 0.0 or pj.wl_norm == 0.0:
        return 0.0
    small, big = (pi.wl, pj.wl) if len(pi.wl) <= len(pj.wl) else (pj.wl, pi.wl)
    dot = sum(c * big.get(k, 0.0) for k, c in small.items())
    return float(dot / (pi.wl_norm * pj.wl_norm))


def g2_clique(pi: Profile, pj: Profile, tau: int) -> float:
    """Co-author clique (triangle) coincidence ratio (eq. 5)."""
    return len(pi.triangles & pj.triangles) / tau


def g3_interest(pi: Profile, pj: Profile, stats: CorpusStats) -> float:
    """Cosine similarity of mean keyword vectors (eq. 6); 0 if either empty."""
    wi, wj = _mean_vec(pi, stats), _mean_vec(pj, stats)
    ni, nj = np.linalg.norm(wi), np.linalg.norm(wj)
    if ni == 0.0 or nj == 0.0:
        return 0.0
    return float(wi @ wj / (ni * nj))


def g4_time(pi: Profile, pj: Profile, tau: int, stats: CorpusStats) -> float:
    """Time consistency of research interests (eq. 7).

    The per-word minimum year difference is approximated by the gap between
    the two vertices' usage-year *intervals* (0 when they overlap) — the
    profiles keep min/max year per keyword, not every year.
    """
    small, big = (pi, pj) if len(pi.keywords) <= len(pj.keywords) else (pj, pi)
    s = 0.0
    for w, (_, lo1, hi1) in small.keywords.items():
        other = big.keywords.get(w)
        if other is None:
            continue
        _, lo2, hi2 = other
        gap = max(0, max(lo1, lo2) - min(hi1, hi2))
        fb = max(stats.fb.get(w, 2), 2)
        s += math.exp(-stats.alpha * gap) / math.log(fb)
    return s / tau


def g5_repr_community(pi: Profile, pj: Profile, tau: int) -> float:
    """Representative-community similarity (eq. 8)."""
    c1 = pj.venues.get(pi.modal_venue, 0) if pi.modal_venue else 0
    c2 = pi.venues.get(pj.modal_venue, 0) if pj.modal_venue else 0
    return (c1 + c2) / tau


def g6_community(pi: Profile, pj: Profile, tau: int, stats: CorpusStats) -> float:
    """Adamic/Adar-weighted common-venue similarity (eq. 9)."""
    small, big = (pi, pj) if len(pi.venues) <= len(pj.venues) else (pj, pi)
    s = 0.0
    for h in small.venues:
        if h in big.venues:
            s += 1.0 / math.log(max(stats.fh.get(h, 2), 2))
    return s / tau


def gamma_vector(pi: Profile, pj: Profile, stats: CorpusStats) -> np.ndarray:
    """γ = (γ₁..γ₆) for a candidate vertex pair."""
    tau = max(1, min(pi.n_papers, pj.n_papers))
    return np.array(
        [
            g1_wl_kernel(pi, pj),
            g2_clique(pi, pj, tau),
            g3_interest(pi, pj, stats),
            g4_time(pi, pj, tau, stats),
            g5_repr_community(pi, pj, tau),
            g6_community(pi, pj, tau, stats),
        ]
    )
