"""Training-sample construction for the generative model.

Two mechanisms from Section V-F:

* **10 % pair sampling** — the model is trained on a random sample of the
  candidate pairs, not all of them (speed), drawn by a hash of each pair.
* **Imbalance mitigation** — matched pairs are rare among candidates, so the
  paper "partitions a vertex with many published papers into two vertices at
  random"; the two halves form a guaranteed-matched pair. We implement the
  split at profile level: venue and keyword multisets are divided
  binomially and paper counts halved; the structural features (WL,
  triangles) are dropped from both halves, because a genuine matched pair
  spans two collaboration phases and shares no collaboration structure.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.gammas import GAMMA_NAMES, CorpusStats, Profile, gamma_block, modal_venue

#: Papers a vertex needs before it is split into a matched pair.
MIN_PAPERS = 6
#: Split pairs per ``gamma_block`` call.
SPLIT_BLOCK = 32


def sample_pairs(pairs: DataFrame, frac: float, seed: int) -> np.ndarray:
    """γ rows of the pairs whose draw, the low 53 bits of
    xxhash64(vid_i, vid_j, seed) over 2^53, is below ``frac``; sorted by
    (vid_i, vid_j), as EM's initial responsibilities add per-row noise."""
    draw = F.xxhash64("vid_i", "vid_j", F.lit(seed)).bitwiseAND(2**53 - 1) / 2.0**53
    drawn = pairs.where(draw < frac).select("vid_i", "vid_j", *GAMMA_NAMES).toPandas()
    return drawn.sort_values(["vid_i", "vid_j"])[list(GAMMA_NAMES)].to_numpy(dtype=float)


def split_profile(p: Profile, rng: np.random.Generator) -> tuple[Profile, Profile]:
    """Randomly partition a vertex's papers into two pseudo-vertices."""
    n1 = max(1, int(rng.binomial(p.n_papers, 0.5)))
    n2 = max(1, p.n_papers - n1)

    def halve_counts(counts: dict[str, int]) -> tuple[dict, dict]:
        a: dict[str, int] = {}
        b: dict[str, int] = {}
        for k, c in counts.items():
            ca = int(rng.binomial(c, 0.5))
            if ca:
                a[k] = ca
            if c - ca:
                b[k] = c - ca
        return a, b

    va, vb = halve_counts(p.venues)
    ka, kb = halve_counts({k: c for k, (c, _, _) in p.keywords.items()})

    def rebuild_kw(half: dict[str, int]) -> dict[str, tuple[int, int, int]]:
        return {k: (c, p.keywords[k][1], p.keywords[k][2]) for k, c in half.items()}

    # Structural features (WL map, triangles) stay at their empty defaults:
    # a genuine cross-phase matched pair has disjoint collaboration
    # structure, so keeping the parent's identical WL/triangles would teach
    # the matched component γ₁ = γ₂ = 1 — the opposite of what real matched
    # pairs look like.
    mk = lambda n, v, kws, tag: Profile(  # noqa: E731
        vertex_id=f"{p.vertex_id}%{tag}",
        name=p.name,
        n_papers=n,
        venues=v,
        modal_venue=modal_venue(v) if v else p.modal_venue,
        keywords=rebuild_kw(kws),
    )
    return mk(n1, va, ka, "a"), mk(n2, vb, kb, "b")


def synthetic_matched_gammas(
    profiles: list[Profile],
    stats: CorpusStats,
    *,
    n: int,
    seed: int = 0,
) -> np.ndarray:
    """γ vectors of ``n`` split-pair (guaranteed matched) samples drawn from
    the vertices with at least MIN_PAPERS papers; an empty array with one
    column per γ if there is none."""
    rng = np.random.default_rng(seed)
    pool = [p for p in profiles if p.n_papers >= MIN_PAPERS]
    if not pool or n <= 0:
        return np.zeros((0, len(GAMMA_NAMES)))
    a, b = zip(*(split_profile(pool[int(rng.integers(len(pool)))], rng) for _ in range(n)))
    # One kernel call per run of SPLIT_BLOCK split pairs: the block's
    # diagonal holds the pairs, and the call's fixed cost is shared.
    blocks = (gamma_block(a[i:i + SPLIT_BLOCK], b[i:i + SPLIT_BLOCK], stats)
              for i in range(0, n, SPLIT_BLOCK))
    return np.concatenate([np.diagonal(g).T for g in blocks])
