"""Batch similarity computation: γ vectors for all same-name vertex pairs.

Names partition the candidate space (only same-name vertices are ever
compared), so the pairs come from the per-name pass
(``graph.components.per_name``) over the profiles, each name's rows sorted
by vertex_id: per name, one ``gamma_block`` of the name's vertices against
themselves gives every pair. No reader depends on the partition layout.
Corpus statistics ride along in the task closure (a few MB of
keyword/venue frequencies and word vectors).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from repro.core.gammas import GAMMA_NAMES, CorpusStats, gamma_block
from repro.core.profiles import row_to_profile
from repro.graph.components import per_name

PAIR_SCHEMA = (
    "name string, vid_i string, vid_j string, "
    + ", ".join(f"{g} double" for g in GAMMA_NAMES)
)


def pair_similarities(profiles: DataFrame, stats: CorpusStats) -> DataFrame:
    """γ vectors for every same-name vertex pair (vid_i < vid_j)."""

    def _pairs(name, rows):
        vids = rows["vertex_id"]
        if len(vids) < 2:
            return None
        profs = [row_to_profile(dict(zip(rows, r))) for r in zip(*rows.values())]
        i, j = np.triu_indices(len(profs), 1)
        gammas = gamma_block(profs, profs, stats)[i, j]
        return {"vid_i": vids[i], "vid_j": vids[j], **dict(zip(GAMMA_NAMES, gammas.T))}

    return per_name(profiles, _pairs, PAIR_SCHEMA, "vertex_id")
