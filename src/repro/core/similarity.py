"""Batch similarity computation: γ vectors for all same-name vertex pairs.

Names partition the candidate space (only same-name vertices are ever
compared), so the dataflow is ``profiles.groupBy("name").applyInPandas`` —
each partition enumerates its name's vertex pairs and evaluates the shared
pure-pair math from ``core.gammas``. Corpus statistics ride along in the
task closure (a few MB of keyword/venue frequencies and word vectors).
"""
from __future__ import annotations

import itertools

import pandas as pd
from pyspark.sql import DataFrame

from repro.core.gammas import GAMMA_NAMES, CorpusStats, gamma_vector
from repro.core.profiles import row_to_profile

PAIR_SCHEMA = (
    "name string, vid_i string, vid_j string, "
    + ", ".join(f"{g} double" for g in GAMMA_NAMES)
)


def pair_similarities(profiles: DataFrame, stats: CorpusStats) -> DataFrame:
    """γ vectors for every same-name vertex pair (vid_i < vid_j)."""

    def _pairs(pdf: pd.DataFrame) -> pd.DataFrame:
        if len(pdf) < 2:
            return pd.DataFrame(columns=["name", "vid_i", "vid_j", *GAMMA_NAMES])
        # The output row order decides which pairs run_iuad's seeded 10 %
        # sample draws, so it is kept fixed.
        pdf = pdf.sort_values(["n_papers", "vertex_id"], ascending=[False, True])
        profs = [row_to_profile(r) for _, r in pdf.iterrows()]
        out = []
        for pi, pj in itertools.combinations(profs, 2):
            vi, vj = sorted((pi.vertex_id, pj.vertex_id))
            if vi != pi.vertex_id:
                pi, pj = pj, pi
            g = gamma_vector(pi, pj, stats)
            out.append((pi.name, vi, vj, *map(float, g)))
        return pd.DataFrame(out, columns=["name", "vid_i", "vid_j", *GAMMA_NAMES])

    return profiles.groupBy("name").applyInPandas(_pairs, schema=PAIR_SCHEMA)
