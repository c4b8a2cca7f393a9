"""Incremental single-paper disambiguation (Section V-E).

A newly published paper by name *a* is an isolated vertex v^a. We compute
its γ vector against every existing GCN vertex named *a*, score with the
already-fitted parameters (posterior only — no retraining), and assign it
to the arg-max vertex iff that score clears δ; otherwise it stays a new
isolated vertex. The γ row is one 1×k call of ``gammas.gamma_block``, the
kernel the batch pairs use. ``assimilate`` folds the paper into the chosen
vertex's profile so a stream of papers can be judged one by one; it reuses
the profile ``judge`` built for the same occurrence.
"""
from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

import numpy as np

from repro.core.em import EMParams, score_array
from repro.core.gammas import CorpusStats, Profile, gamma_block, modal_venue
from repro.core.profiles import row_to_profile
from repro.core.scn import SSEP, VSEP
from repro.text.keywords import title_tokens


def profile_for_paper(paper: Mapping, name: str, stats: CorpusStats) -> Profile:
    """The isolated-vertex profile of a single new paper occurrence."""
    names, pid = paper["names"], paper["paper_id"]
    if names is None or len(names) == 0:
        raise ValueError(f"paper {pid!r} has an empty co-author list")
    if len(set(names)) < len(names):
        raise ValueError(f"paper {pid!r} has a name twice in its co-author list")
    if any(VSEP in n or SSEP in n for n in names):
        raise ValueError(f"paper {pid!r} has a name holding {VSEP} or {SSEP}")
    for field in ("year", "venue"):
        if paper[field] is None:
            raise ValueError(f"paper {pid!r} has no {field}")
    if name not in names:
        raise ValueError(f"{name!r} is not an author of paper {pid!r}")
    year = int(paper["year"])
    # The batch keyword rule: title tokens, minus the frequent words FB omits.
    kws = sorted({t for t in title_tokens(paper["title"]) if t in stats.fb})
    return Profile(
        vertex_id=f"{name}@new{paper['paper_id']}",
        name=name,
        n_papers=1,
        venues={paper["venue"]: 1},
        modal_venue=paper["venue"],
        keywords={k: (1, year, year) for k in kws},
    )


class IncrementalJudge:
    """Holds per-name vertex profiles + fitted parameters; judges papers."""

    def __init__(
        self,
        profiles: Sequence[Profile],
        stats: CorpusStats,
        params: EMParams,
        *,
        delta: float,
    ) -> None:
        self.stats = stats
        self.params = params
        self.delta = delta
        self.by_name: dict[str, list[Profile]] = {}
        # (paper, name, profile) of the occurrence judged last, for assimilate.
        self._judged: tuple[Mapping, str, Profile] | None = None
        for p in profiles:
            self.by_name.setdefault(p.name, []).append(p)

    @classmethod
    def from_model(cls, model) -> "IncrementalJudge":
        """Build from an ``IUADModel``, merging SCN vertex profiles into GCN
        vertices (profiles of merged vertices are combined)."""
        rows = model.profiles.profiles.collect()
        mapping = {
            r["vertex_id"]: r["gcn_vertex"] for r in model.gcn.mapping.collect()
        }
        merged: dict[str, Profile] = {}
        for r in rows:
            p = row_to_profile(r)
            key = mapping.get(p.vertex_id, p.vertex_id)
            if key not in merged:
                merged[key] = dataclasses.replace(p, vertex_id=key)
            else:
                merged[key] = _combine(merged[key], p)
        return cls(list(merged.values()), model.profiles.stats, model.params, delta=model.delta)

    def judge(self, paper: Mapping, name: str) -> tuple[str | None, float]:
        """(assigned vertex_id or None, best score). Pure posterior lookup."""
        cands = self.by_name.get(name, [])
        if not cands:
            return None, float("-inf")
        q = profile_for_paper(paper, name, self.stats)
        self._judged = (paper, name, q)
        scores = score_array(gamma_block([q], cands, self.stats)[0], self.params)
        k = int(np.argmax(scores))
        if scores[k] >= self.delta:
            return cands[k].vertex_id, float(scores[k])
        return None, float(scores[k])

    def assimilate(self, paper: Mapping, name: str, vertex_id: str | None) -> str:
        """Fold the paper into ``vertex_id`` (or create a new isolated
        vertex when None); returns the final vertex id."""
        judged, self._judged = self._judged, None
        if judged is not None and judged[0] is paper and judged[1] == name:
            q = judged[2]
        else:
            q = profile_for_paper(paper, name, self.stats)
        if vertex_id is None:
            self.by_name.setdefault(name, []).append(q)
            return q.vertex_id
        cands = self.by_name[name]
        for i, c in enumerate(cands):
            if c.vertex_id == vertex_id:
                cands[i] = _combine(c, q)
                return vertex_id
        raise KeyError(f"unknown vertex {vertex_id!r} for name {name!r}")


def _combine(a: Profile, b: Profile) -> Profile:
    """Union of two profiles of one author (merge or assimilation)."""
    venues = dict(a.venues)
    for v, c in b.venues.items():
        venues[v] = venues.get(v, 0) + c
    kws = dict(a.keywords)
    for k, (c, lo, hi) in b.keywords.items():
        if k in kws:
            c0, lo0, hi0 = kws[k]
            kws[k] = (c0 + c, min(lo0, lo), max(hi0, hi))
        else:
            kws[k] = (c, lo, hi)
    wl = dict(a.wl)
    for k, c in b.wl.items():
        wl[k] = wl.get(k, 0.0) + c
    return Profile(
        vertex_id=a.vertex_id,
        name=a.name,
        n_papers=a.n_papers + b.n_papers,
        venues=venues,
        modal_venue=modal_venue(venues),
        keywords=kws,
        wl=wl,
        triangles=a.triangles | b.triangles,
    )
