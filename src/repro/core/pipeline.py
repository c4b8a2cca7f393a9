"""End-to-end IUAD (Algorithm 1): papers → SCN → similarities → EM → GCN."""
from __future__ import annotations

import dataclasses

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.em import EMParams, fit_em
from repro.core.gcn import GCN, build_gcn, score_pairs
from repro.core.profiles import ProfileSet, build_profiles, row_to_profile
from repro.core.sampling import MIN_PAPERS, sample_pairs, synthetic_matched_gammas
from repro.core.scn import SCN, SSEP, VSEP, build_scn
from repro.core.similarity import pair_similarities

#: η, the co-occurrence support of a stable collaboration relation. η = 5
#: at SF = 0.1 reproduces the paper's Table IV Stage-I operating point
#: (P ≈ .92 / R ≈ .44 vs the paper's .87 / .44).
ETA = 5
#: δ, the decision threshold on the log posterior-odds score: 0 is the
#: natural posterior-odds decision boundary.
DELTA = 0.0


@dataclasses.dataclass
class IUADModel:
    """Everything the pipeline produced: reusable for incremental judgement."""

    scn: SCN
    profiles: ProfileSet
    pairs: DataFrame  # γ vectors + score for every candidate pair
    params: EMParams
    gcn: GCN
    delta: float


def run_iuad(
    spark: SparkSession,
    papers: DataFrame,
    *,
    eta: int = ETA,
    delta: float = DELTA,
    sample_frac: float = 0.10,
    seed: int = 0,
) -> IUADModel:
    """Run both stages of IUAD and return the fitted model + GCN.

    ``sample_frac`` is the paper's 10 % training sample of candidate pairs
    (every pair if that would be under 200), drawn by pair hash and topped
    up with split-vertex matched pairs against class imbalance (V-F.2);
    ``delta`` is the decision threshold on the log posterior-odds score.
    A paper with an empty or repeating co-author list, a name holding a
    vertex id separator (``scn.VSEP``, ``scn.SSEP``), or without a year or
    venue, fails the run when it is first read.
    """
    papers = _checked(papers)
    scn = build_scn(papers, eta=eta)
    ps = build_profiles(papers, scn)
    profiles = ps.profiles
    pairs = pair_similarities(profiles, ps.stats).localCheckpoint(eager=False)

    # ---- training sample (10 % of candidate pairs) ----------------------
    n_pairs = pairs.count()
    frac = 1.0 if n_pairs * sample_frac < 200 else sample_frac
    X = sample_pairs(pairs, frac, seed)

    if len(X):
        prolific = (
            profiles.where(F.col("n_papers") >= MIN_PAPERS)
            .orderBy(F.desc("n_papers"), "vertex_id")
            .limit(2000)
            .collect()
        )
        profs = [row_to_profile(r) for r in prolific]
        n_synth = max(30, int(0.15 * len(X)))
        synth = synthetic_matched_gammas(profs, ps.stats, n=n_synth, seed=seed)
        if len(synth):
            X = np.vstack([X, synth])

    params: EMParams = fit_em(X, seed=seed)

    pairs_scored = score_pairs(pairs, params).cache()
    gcn = build_gcn(scn.assignments, pairs_scored, delta=delta)
    return IUADModel(
        scn=scn, profiles=ps, pairs=pairs_scored, params=params, gcn=gcn, delta=delta
    )


def _checked(papers: DataFrame) -> DataFrame:
    """``papers`` whose ``names`` column raises on a bad row; the check
    rides in the projection of whichever job reads the names."""
    names = F.col("names")
    problem = (
        F.when(names.isNull() | (F.size(names) == 0), "an empty co-author list")
        .when(F.size(F.array_distinct(names)) < F.size(names), "a name twice in its co-author list")
        .when(F.array_join(names, "").rlike(f"[{VSEP}{SSEP}]"), f"a name holding {VSEP} or {SSEP}")
        .when(F.col("year").isNull(), "no year")
        .when(F.col("venue").isNull(), "no venue")
    )
    error = F.raise_error(F.concat(F.lit("paper "), F.col("paper_id").cast("string"),
                                   F.lit(" has "), problem))
    return papers.withColumn("names", F.when(problem.isNull(), names).otherwise(error))


def scn_only_assignments(model: IUADModel) -> DataFrame:
    """Stage-I-only clustering (for the Table IV ablation): every SCN vertex
    is its own author."""
    return model.scn.assignments.select(
        "paper_id", "name", F.col("vertex_id").alias("cluster")
    )


def gcn_assignments(model: IUADModel) -> DataFrame:
    """Final clustering after Stage II merging."""
    return model.gcn.assignments.select(
        "paper_id", "name", F.col("gcn_vertex").alias("cluster")
    )
