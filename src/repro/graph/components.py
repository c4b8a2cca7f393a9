"""The per-name pass and its union–find.

IUAD's local work is keyed by name: Stage I's partner components
(``core.scn``), the same-name γ pairs (``core.similarity``) and the
δ-merge (``core.gcn``). ``per_name`` is the one pass they share: a shuffle
by name and one Python call (``mapInPandas``) per partition that hands each
name's rows to the stage's function, with no global iteration.
``UnionFind`` serves Stage I's partners and the δ-merge.
"""
from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator

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


#: Rows per output frame of ``per_name``; a frame holds whole names, so
#: one may hold more.
CHUNK_ROWS = 10_000


def per_name(
    df: DataFrame, fn: Callable[[str, dict], dict | None], schema: str, *order: str
) -> DataFrame:
    """``fn(name, rows)`` once per name of ``df``, in one Python call per
    partition.

    The rows are shuffled by name and sorted within each partition by
    (name, *order); ``rows`` maps each column to a numpy array of the
    name's values in that order, gathered across Arrow batches. ``fn``
    returns the output columns after ``name`` (the rest of ``schema``, in
    order), or None for no rows; ``per_name`` puts the name first. Frames
    hold whole names, at least ``CHUNK_ROWS`` rows each (the last may hold
    fewer).
    """

    def run(batches: Iterable[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        return _in_chunks((name, fn(name, rows)) for name, rows in _by_name(batches))

    return df.repartition("name").sortWithinPartitions("name", *order).mapInPandas(run, schema)


def _by_name(batches: Iterable[pd.DataFrame]) -> Iterator[tuple[str, dict]]:
    """(name, rows) of name-sorted batches; a name whose rows span batches
    is gathered from its pieces once, after its last piece."""
    name, pieces = None, []
    for pdf in filter(len, batches):
        cols = {c: pdf[c].to_numpy() for c in pdf.columns}
        names = cols["name"]
        cuts = [0, *(np.flatnonzero(names[1:] != names[:-1]) + 1), len(names)]
        for lo, hi in zip(cuts, cuts[1:]):
            if pieces and names[lo] != name:
                yield name, _concat(pieces)
                pieces = []
            name = names[lo]
            pieces.append({c: v[lo:hi] for c, v in cols.items()})
    if pieces:
        yield name, _concat(pieces)


def _concat(parts: list[dict]) -> dict:
    if len(parts) == 1:
        return parts[0]
    return {c: np.concatenate([p[c] for p in parts]) for c in parts[0]}


def _in_chunks(parts: Iterable[tuple[str, dict | None]]) -> Iterator[pd.DataFrame]:
    chunk, rows = [], 0
    for name, part in parts:
        if part is None:
            continue
        n = len(next(iter(part.values())))
        chunk.append({"name": np.full(n, name, object), **part})
        rows += n
        if rows >= CHUNK_ROWS:
            yield pd.DataFrame(_concat(chunk))
            chunk, rows = [], 0
    if chunk:
        yield pd.DataFrame(_concat(chunk))
