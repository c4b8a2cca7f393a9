"""The six similarity functions γ₁..γ₆ as pure pair math.

A vertex is summarised by a *profile* (built in ``core.profiles`` by Spark
aggregation); the γ vector of a vertex pair is a pure function of the two
profiles plus corpus statistics. Profiles hold counts; the rest is derived
here: h_v by ``modal_venue``, which every path that makes a profile calls,
and each WL map's norm inside the γ₁ kernel.

``gamma_block`` is the one kernel the pipeline runs: the γ of every pair of
two profile sequences as one numpy block. It backs the batch path
(``core.similarity``, one block per name inside each partition), the
incremental judge (one new paper against its name's vertices) and the
split-pair sampling. ``gamma_vector`` and the ``g*`` functions spell the
equations out pair by pair; they are the reference the kernel is tested
against and are not called by the pipeline.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Mapping, NamedTuple, Sequence

import numpy as np

#: decay factor of eq. (7); the paper sets it to 0.62. The printed formula
#: ``e^{α·min(b)}`` grows with the year gap, contradicting "decay" and its
#: FutureRank source (e^{-ρt}); we implement the decay exp(-α·gap).
ALPHA = 0.62

GAMMA_NAMES = ("g1_wl", "g2_clique", "g3_interest", "g4_time", "g5_repr_comm", "g6_comm")
#: Most (keyword entry, vertex) cells ``gamma_block`` forms γ₄ terms for at
#: once, which bounds its memory whatever the block's size.
TERM_CHUNK = 1 << 20


@dataclasses.dataclass
class Profile:
    """Per-vertex summary consumed by the similarity functions."""

    vertex_id: str
    name: str
    n_papers: int
    venues: dict[str, int]            # venue -> #papers (multiset H(v))
    modal_venue: str | None           # most frequent venue (h_v)
    keywords: dict[str, tuple[int, int, int]]  # kw -> (count, min_year, max_year)
    # WL feature map (label -> count); empty without SCN edges.
    wl: dict[str, float] = dataclasses.field(default_factory=dict)
    triangles: frozenset[str] = frozenset()  # "n1|n2" name pairs closing a triangle


@dataclasses.dataclass
class CorpusStats:
    """Corpus-level statistics shared by all pairs."""

    fb: Mapping[str, int]             # keyword -> #papers in whole corpus
    fh: Mapping[str, int]             # venue -> #papers in whole corpus
    word_vectors: Mapping[str, np.ndarray]

    @property
    def dim(self) -> int:
        """Width of the word vectors; 0 without any."""
        return len(next(iter(self.word_vectors.values()), ()))


def modal_venue(venues: Mapping[str, int]) -> str | None:
    """h_v (eq. 8): the venue with the most papers, ties to the larger name;
    None without venues."""
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
    """Normalized WL sub-graph kernel (eq. 4): the inner product of the two
    maps over the square root of their self-kernels; 0 if either is 0."""
    ni, nj = (math.sqrt(sum(c * c for c in p.wl.values())) for p in (pi, pj))
    if ni == 0.0 or nj == 0.0:
        return 0.0
    small, big = (pi.wl, pj.wl) if len(pi.wl) <= len(pj.wl) else (pj.wl, pi.wl)
    dot = sum(c * big.get(k, 0.0) for k, c in small.items())
    return float(dot / (ni * nj))


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
        s += math.exp(-ALPHA * gap) / math.log(fb)
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


def gamma_block(a: Sequence[Profile], b: Sequence[Profile], stats: CorpusStats) -> np.ndarray:
    """γ of every pair (a[i], b[j]) as an (m, n, 6) array.

    Equal to ``gamma_vector(a[i], b[j], stats)`` up to the order of the
    floating-point sums. Each feature of the two sides becomes dense
    matrices over the sides' joint local vocabulary, and γ₁, γ₂, γ₃, γ₅ and
    γ₆ are products of those. γ₄ sums one term per keyword a pair shares,
    formed in chunks of at most TERM_CHUNK cells, so memory stays
    O(m·n + (m + n)·V) and never O(m·n·V).
    """
    m, n = len(a), len(b)
    out = np.zeros((m, n, len(GAMMA_NAMES)))
    if not m or not n:
        return out
    na, nb = (np.array([p.n_papers for p in ps], dtype=float) for ps in (a, b))
    tau = np.maximum(1.0, np.minimum.outer(na, nb))

    # γ₁: inner products of the WL count maps over the product of norms.
    if wl := _Feature.shared(a, b, "wl", width=1):
        wa, wb = wl.dense_pair(field=0)
        norms = np.outer(np.sqrt((wa * wa).sum(1)), np.sqrt((wb * wb).sum(1)))
        out[..., 0] = _ratio(wa @ wb.T, norms)

    # γ₂: shared triangle literals.
    if tri := _Feature.shared(a, b, "triangles", width=0):
        ta, tb = tri.dense_pair()
        out[..., 1] = ta @ tb.T / tau

    # γ₃: cosine of the count-weighted keyword vector sums (the cosine of
    # the means); γ₄: decayed terms of the shared keywords.
    if kw := _Feature.shared(a, b, "keywords", width=3):  # count, min year, max year
        zero = np.zeros(stats.dim)
        vec = np.array([stats.word_vectors.get(w, zero) for w in kw.vocab])
        ca, cb = kw.dense_pair(field=0)
        sa, sb = ca @ vec, cb @ vec
        norms = np.outer(np.sqrt((sa * sa).sum(1)), np.sqrt((sb * sb).sum(1)))
        out[..., 2] = _ratio(sa @ sb.T, norms)
        out[..., 3] = _time_terms(kw, stats) / tau

    # γ₅: each side's count of the other's modal venue; γ₆: shared venues
    # weighted by 1/log FH. Column len(vocab) stays zero: it is the modal
    # column of a vertex without one.
    ven = _Feature(a, b, "venues", width=1)
    ha, hb = ven.dense_pair(field=0, extra=1)
    none = len(ven.vocab)
    ma, mb = ([ven.vocab.get(p.modal_venue, none) if p.modal_venue else none for p in ps]
              for ps in (a, b))
    out[..., 4] = (hb[:, ma].T + ha[:, mb]) / tau
    if len(ven.a.cols) and len(ven.b.cols):
        inv_log_fh = [1.0 / math.log(max(stats.fh.get(h, 2), 2)) for h in ven.vocab]
        pa, pb = ven.dense_pair()
        out[..., 5] = (pa * inv_log_fh) @ pb.T / tau
    return out


class _Side(NamedTuple):
    """One side's entries of a feature: one per key of each profile."""

    n: int                # profiles
    rows: np.ndarray      # profile of each entry
    cols: np.ndarray      # vocabulary column of each entry
    vals: np.ndarray      # (entries × width) values; width 0 for a set


class _Feature:
    """One feature of two sides over their joint local vocabulary
    (key -> column): ``attr`` is a set of ``Profile`` (``width`` 0) or a
    mapping whose values are numbers (``width`` 1) or tuples of ``width``
    numbers."""

    def __init__(self, a: Sequence[Profile], b: Sequence[Profile], attr: str, width: int) -> None:
        self.vocab: dict = {}
        self.a = self._side(a, attr, width)
        # Side a's keys come first: its entries read columns < a_keys.
        self.a_keys = len(self.vocab)
        self.b = self.a if b is a else self._side(b, attr, width)

    @classmethod
    def shared(cls, a: Sequence[Profile], b: Sequence[Profile], attr: str, width: int):
        """The feature, or None when a side has no entries: every product
        of the two sides is then 0 (side b is not built when a has none)."""
        if not any(getattr(p, attr) for p in a):
            return None
        f = cls(a, b, attr, width)
        return f if len(f.b.cols) else None

    def _side(self, profiles: Sequence[Profile], attr: str, width: int) -> _Side:
        maps = [getattr(p, attr) for p in profiles]
        keys = (k for mp in maps for k in mp)
        cols = np.array([self.vocab.setdefault(k, len(self.vocab)) for k in keys], dtype=np.intp)
        rows = np.repeat(np.arange(len(maps)), [len(mp) for mp in maps])
        flat = itertools.chain.from_iterable(mp.values() for mp in maps) if width else ()
        if width > 1:
            flat = itertools.chain.from_iterable(flat)
        vals = np.fromiter(flat, float, width * len(cols)).reshape(len(cols), width)
        return _Side(len(maps), rows, cols, vals)

    def dense(self, side: _Side, field: int | None = None, extra: int = 0) -> np.ndarray:
        """(profiles × vocabulary + ``extra``) matrix of one value column,
        or of 1 per key with ``field`` None."""
        out = np.zeros((side.n, len(self.vocab) + extra))
        out[side.rows, side.cols] = 1.0 if field is None else side.vals[:, field]
        return out

    def dense_pair(self, field: int | None = None, extra: int = 0):
        """``dense`` of both sides; one matrix when they are the same."""
        da = self.dense(self.a, field, extra)
        return da, (da if self.b is self.a else self.dense(self.b, field, extra))


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, and 0 where den is 0."""
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den != 0)
    return out


def _time_terms(kw: _Feature, stats: CorpusStats) -> np.ndarray:
    """γ₄ numerators (m × n): over the keywords a pair shares, the sum of
    exp(-α·gap) / log FB, where gap is the distance between the two
    usage-year intervals (0 when they overlap).

    Each a entry meets every b row that uses its keyword; the terms are
    formed for runs of a entries with at most TERM_CHUNK (entry, b row)
    cells at a time."""
    a, b = kw.a, kw.b
    has_b, lo_b, hi_b = kw.dense(b), kw.dense(b, field=1), kw.dense(b, field=2)
    fb = (max(stats.fb.get(w, 2), 2) for w in itertools.islice(kw.vocab, kw.a_keys))
    inv_log_fb = np.array([1.0 / math.log(c) for c in fb])
    acc = np.zeros(a.n * b.n)
    step = max(1, TERM_CHUNK // b.n)
    for start in range(0, len(a.cols), step):
        e, j = np.nonzero(has_b.T[a.cols[start:start + step]])
        e += start
        w, va = a.cols[e], a.vals[e]
        gap = np.maximum(0.0, np.maximum(va[:, 1], lo_b[j, w]) - np.minimum(va[:, 2], hi_b[j, w]))
        terms = np.exp(-ALPHA * gap) * inv_log_fb[w]
        acc += np.bincount(a.rows[e] * b.n + j, terms, acc.size)
    return acc.reshape(a.n, b.n)
