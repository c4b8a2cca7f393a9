"""Batch similarity computation: γ vectors for all same-name vertex pairs.

Names partition the candidate space (only same-name vertices are ever
compared), so the profiles are shuffled by name and each partition runs one
Python call (``mapInPandas``) over its rows sorted by (name, vertex_id):
per name, one ``gamma_block`` of the name's vertices against themselves
gives every pair. No reader depends on the partition layout. Corpus
statistics ride along in the task closure (a few MB of keyword/venue
frequencies and word vectors).
"""
from __future__ import annotations

import itertools
from operator import attrgetter

import numpy as np
from pyspark.sql import DataFrame

from repro.core.gammas import GAMMA_NAMES, CorpusStats, gamma_block
from repro.core.profiles import row_to_profile
from repro.graph.components import in_chunks

PAIR_SCHEMA = (
    "name string, vid_i string, vid_j string, "
    + ", ".join(f"{g} double" for g in GAMMA_NAMES)
)


def pair_similarities(profiles: DataFrame, stats: CorpusStats) -> DataFrame:
    """γ vectors for every same-name vertex pair (vid_i < vid_j)."""

    def _pairs(batches):
        rows = (r for pdf in batches for r in pdf.to_dict("records"))
        for name, group in itertools.groupby(map(row_to_profile, rows), attrgetter("name")):
            profs = list(group)
            if len(profs) < 2:
                continue
            i, j = np.triu_indices(len(profs), 1)
            vids = np.array([p.vertex_id for p in profs], dtype=object)
            gammas = gamma_block(profs, profs, stats)[i, j]
            names = np.full(len(i), name, object)
            yield names, vids[i], vids[j], *gammas.T

    columns = ["name", "vid_i", "vid_j", *GAMMA_NAMES]
    return (
        profiles.repartition("name")
        .sortWithinPartitions("name", "vertex_id")
        .mapInPandas(lambda batches: in_chunks(_pairs(batches), columns), schema=PAIR_SCHEMA)
    )
