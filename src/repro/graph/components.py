"""Connected components, grouped by a partition key.

SCN construction needs, *per name*, the connected components of that name's
"partner graph" (nodes = SCR partners of the name, edges = SCRs among those
partners — the paper's stable-triangle insertion rule applied transitively).
GCN construction needs, per name, components over vertices linked by
score ≥ δ pairs. Both are many small independent graphs keyed by name, so
the edges are shuffled by name and each partition runs one Python call
(``mapInPandas``) that keeps one local union–find per name — each partition
does its own graph work, no global iteration. ``components_per_group`` is
that call for the GCN; Stage I's pass (``core.scn``) also votes each
occurrence onto a component, so it runs its own ``UnionFind`` per name.
"""
from __future__ import annotations

from collections import defaultdict
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame


class UnionFind:
    """Path-halving union–find over arbitrary hashable nodes."""

    def __init__(self) -> None:
        self._parent: dict[Hashable, Hashable] = {}

    def find(self, x: Hashable) -> Hashable:
        """The root of ``x``; a node not seen yet becomes a singleton."""
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
            if rb < ra:
                ra, rb = rb, ra
            self._parent[rb] = ra

    def components(self) -> dict[Hashable, Hashable]:
        """node -> canonical (minimum-label) root."""
        return {x: self.find(x) for x in self._parent}


#: Rows per output frame of a per-partition call; a frame holds whole
#: names, so one may hold more.
CHUNK_ROWS = 10_000


def in_chunks(
    parts: Iterable[Sequence[np.ndarray]], columns: Sequence[str]
) -> Iterator[pd.DataFrame]:
    """Frames of at least CHUNK_ROWS rows (the last may hold fewer) from
    per-name parts, each one equal-length array per column; no frame for
    no parts."""
    chunk, rows = [], 0
    for part in parts:
        chunk.append(part)
        rows += len(part[0])
        if rows >= CHUNK_ROWS:
            yield _frame(chunk, columns)
            chunk, rows = [], 0
    if chunk:
        yield _frame(chunk, columns)


def _frame(chunk: list[Sequence[np.ndarray]], columns: Sequence[str]) -> pd.DataFrame:
    return pd.DataFrame({c: np.concatenate(col) for c, col in zip(columns, zip(*chunk))})


def components_per_group(edges: DataFrame) -> DataFrame:
    """Per-name connected components of string-labelled graphs.

    ``edges`` (name, u, v): one row per undirected edge within a name's
    graph. Returns one row per (name, node) with the node's component
    representative — the lexicographically smallest node label in the
    component, so output is deterministic and independent of partitioning.
    """

    def _cc(batches):
        ufs: defaultdict[str, UnionFind] = defaultdict(UnionFind)
        for pdf in batches:
            for name, u, v in zip(pdf["name"], pdf["u"], pdf["v"]):
                ufs[name].union(u, v)
        for name, uf in ufs.items():
            comp = uf.components()
            nodes, roots = (np.fromiter(it, object, len(comp)) for it in (comp, comp.values()))
            yield np.full(len(comp), name, object), nodes, roots

    return (
        edges.select("name", "u", "v")
        .repartition("name")
        .mapInPandas(
            lambda batches: in_chunks(_cc(batches), ["name", "node", "component"]),
            schema="name string, node string, component string",
        )
    )
