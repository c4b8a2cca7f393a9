"""Connected components, grouped by a partition key.

SCN construction needs, *per name*, the connected components of that name's
"partner graph" (nodes = SCR partners of the name, edges = SCRs among those
partners — the paper's stable-triangle insertion rule applied transitively).
GCN construction needs, per name, components over vertices linked by
score ≥ δ pairs. Both are many small independent graphs keyed by name, so
the idiomatic Spark shape is ``groupBy(key).applyInPandas`` with a local
union–find per group — each partition does its own graph work, no global
iteration.
"""
from __future__ import annotations

from typing import Hashable

import pandas as pd
from pyspark.sql import DataFrame


class UnionFind:
    """Path-halving union–find over arbitrary hashable nodes."""

    def __init__(self) -> None:
        self._parent: dict[Hashable, Hashable] = {}

    def add(self, x: Hashable) -> None:
        self._parent.setdefault(x, x)

    def find(self, x: Hashable) -> Hashable:
        p = self._parent
        p.setdefault(x, x)
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: Hashable, b: Hashable) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Deterministic root: smaller label wins, so component ids do not
            # depend on edge order.
            if str(rb) < str(ra):
                ra, rb = rb, ra
            self._parent[rb] = ra

    def components(self) -> dict[Hashable, Hashable]:
        """node -> canonical (minimum-label) root."""
        return {x: self.find(x) for x in self._parent}


def components_per_group(edges: DataFrame) -> DataFrame:
    """Per-name connected components of string-labelled graphs.

    ``edges`` (name, u, v): one row per undirected edge within a name's
    graph. Returns one row per (name, node) with the node's component
    representative — the lexicographically smallest node label in the
    component, so output is deterministic and independent of partitioning.
    """

    def _cc(pdf: pd.DataFrame) -> pd.DataFrame:
        uf = UnionFind()
        for uu, vv in zip(pdf["u"], pdf["v"]):
            uf.union(uu, vv)
        comp = uf.components()
        return pd.DataFrame(
            {
                "name": pdf["name"].iloc[0],
                "node": list(comp.keys()),
                "component": list(comp.values()),
            }
        )

    return edges.select("name", "u", "v").groupBy("name").applyInPandas(
        _cc, schema="name string, node string, component string"
    )
