"""GHOST baseline (Fan et al., JDIQ'11) — simplified reimplementation.

Graph-based: for a target name, paper similarity is *path-based* on the
co-author name graph with the target name removed (GHOST's core idea), then
papers are grouped with Affinity Propagation. Path computation makes it by
far the slowest baseline — its Table V profile — and papers whose co-author
circles are not connected by short paths get zero similarity, giving the
very low recall of Table III.
"""
from __future__ import annotations

from collections import deque

import numpy as np
import pandas as pd

from repro.baselines import cluster_each_name
from repro.eval.clustering import affinity_propagation

MAX_DEPTH = 3


class NameGraph:
    """Global co-author name graph with BFS distances up to a depth cap."""

    def __init__(self, papers: pd.DataFrame) -> None:
        self.adj: dict[str, set[str]] = {}
        for nms in papers.names:
            for a in nms:
                s = self.adj.setdefault(a, set())
                for b in nms:
                    if b != a:
                        s.add(b)

    def distances_from(self, src: str, *, exclude: str, max_depth: int) -> dict[str, int]:
        """BFS distances from ``src`` skipping the ``exclude`` vertex."""
        if src == exclude or src not in self.adj:
            return {}
        dist = {src: 0}
        q = deque([src])
        while q:
            u = q.popleft()
            d = dist[u]
            if d >= max_depth:
                continue
            for v in self.adj.get(u, ()):
                if v != exclude and v not in dist:
                    dist[v] = d + 1
                    q.append(v)
        return dist


def _paper_similarity(
    c1: list[str], c2: list[str], dists: dict[str, dict[str, int]]
) -> float:
    """Mean over co-author pairs of 1/(d+1) (unreachable pairs count 0).

    Averaging (GHOST's valid-path-ratio flavour) rather than taking the max
    makes similarity demand *consistent* connectivity between the two
    co-author circles — the source of GHOST's very low Table III recall.
    """
    tot = 0.0
    for x in c1:
        dx = dists.get(x)
        if dx is None:
            continue
        for y in c2:
            d = dx.get(y)
            if d is not None:
                tot += 1.0 / (d + 1)
    return tot / max(1, len(c1) * len(c2))


def run_ghost(papers: pd.DataFrame, names: list[str]) -> pd.DataFrame:
    """Cluster each name's papers; returns (name, paper_id, cluster)."""
    g = NameGraph(papers)
    by_pid = papers.set_index("paper_id")

    def cluster(name: str, pids: list[int]) -> np.ndarray:
        coauthors = {
            p: [x for x in by_pid.loc[p, "names"] if x != name] for p in pids
        }
        sources = sorted({x for c in coauthors.values() for x in c})
        dists = {
            s: g.distances_from(s, exclude=name, max_depth=MAX_DEPTH) for s in sources
        }
        n = len(pids)
        S = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                S[i, j] = S[j, i] = _paper_similarity(
                    coauthors[pids[i]], coauthors[pids[j]], dists
                )
        return affinity_propagation(S)  # median preference: many exemplars

    return cluster_each_name(papers, names, cluster)
