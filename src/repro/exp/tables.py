"""Harnesses reproducing the paper's evaluation tables (II–VI).

Each function returns a pandas DataFrame with the same rows the paper
reports. ``measure_table`` is the one entry point of the table CLI
(``jobs/tables.py``) and the benchmarks, which print each table beside
``paper_numbers.PAPER_FRAMES``; EXPERIMENTS.md records both. Ground truth
comes from the synthetic corpus (DESIGN.md § 2).
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.aminer import run_aminer
from repro.baselines.anon import run_anon
from repro.baselines.embed import PaperEmbedder
from repro.baselines.ghost import run_ghost
from repro.baselines.nete import run_nete
from repro.baselines.supervised import run_supervised
from repro.core.incremental import IncrementalJudge
from repro.core.pipeline import (
    DELTA,
    ETA,
    IUADModel,
    gcn_assignments,
    run_iuad,
    scn_only_assignments,
)
from repro.dblp.generator import Corpus, author_paper_pairs
from repro.dblp.testing import testing_occurrences, testing_set
from repro.eval.metrics import Confusion, confusion, confusion_pandas


SUPERVISED = ("AdaBoost", "GBDT", "RF", "XGBoost")

# The unsupervised top-down baselines of Tables III and V, each run as
# run(papers, names, embedder). GHOST reads the co-author graph alone, so
# Table V charges it no embedding time.
UNSUPERVISED = {
    "ANON": lambda papers, names, emb: run_anon(papers, names, embedder=emb),
    "NetE": lambda papers, names, emb: run_nete(papers, names, embedder=emb),
    "Aminer": lambda papers, names, emb: run_aminer(papers, names, embedder=emb),
    "GHOST": lambda papers, names, emb: run_ghost(papers, names),
}


def table2(corpus: Corpus, *, n_names: int = 50) -> pd.DataFrame:
    """Descriptive statistics of the testing set (Table II analogue)."""
    ts = testing_set(corpus.papers, n_names=n_names)
    total = pd.DataFrame(
        [
            {
                "name": "Total",
                "n_authors_td": ts.n_authors_td.sum(),
                "n_papers_td": ts.n_papers_td.sum(),
                "n_papers_dblp": ts.n_papers_dblp.sum(),
            }
        ]
    )
    return pd.concat([ts, total], ignore_index=True)


def _metric_row(method: str, kind: str, m: Confusion) -> dict:
    return {"method": method, "kind": kind, **{k: round(v, 4) for k, v in m.as_row().items()}}


def _truth_df(spark: SparkSession, corpus: Corpus, names: list[str]):
    return spark.createDataFrame(testing_occurrences(corpus.papers, names))


def _iuad_confusions(
    spark: SparkSession, model: IUADModel, corpus: Corpus, names: list[str]
) -> tuple[Confusion, Confusion]:
    truth = _truth_df(spark, corpus, names)
    scn_m = confusion(scn_only_assignments(model).join(truth, ["paper_id", "name"]))
    gcn_m = confusion(gcn_assignments(model).join(truth, ["paper_id", "name"]))
    return scn_m, gcn_m


def _eval_clustering_pdf(clusters: pd.DataFrame, occ: pd.DataFrame) -> Confusion:
    lab = clusters.merge(occ, on=["paper_id", "name"])
    return confusion_pandas(lab)


def table3(
    spark: SparkSession,
    corpus: Corpus,
    *,
    n_names: int = 50,
    eta: int = ETA,
    delta: float = DELTA,
    seed: int = 0,
    model: IUADModel | None = None,
) -> pd.DataFrame:
    """Performance of IUAD vs 4 supervised + 4 unsupervised baselines."""
    ts = testing_set(corpus.papers, n_names=n_names)
    names = ts.name.tolist()
    occ_all = author_paper_pairs(corpus.papers)
    occ = occ_all[occ_all.name.isin(set(names))]

    rows = []

    # Supervised: trained on ambiguous names disjoint from the testing set.
    # Tiny corpora may not have enough ambiguous names outside the testing
    # set; fall back to a half/half split of the testing names (train on odd
    # halves, evaluate on the even halves) so both classes stay populated.
    bigger = testing_set(corpus.papers, n_names=4 * n_names, min_papers=3)
    train_names = [n for n in bigger.name if n not in set(names)]
    eval_names = names
    if len(train_names) < 5:
        train_names = names[1::2]
        eval_names = names[0::2]
    from repro.baselines.features import FeatureExtractor

    fx = FeatureExtractor(corpus.papers)
    for m in SUPERVISED:
        c = run_supervised(
            m, corpus.papers, occ_all, train_names, eval_names, seed=seed, extractor=fx
        )
        rows.append(_metric_row(m, "Supervised", c))

    # Unsupervised top-down baselines.
    emb = PaperEmbedder(corpus.papers, seed=seed)
    for m, run in UNSUPERVISED.items():
        clusters = run(corpus.papers, names, emb)
        rows.append(_metric_row(m, "Unsupervised", _eval_clustering_pdf(clusters, occ)))

    # IUAD.
    if model is None:
        model = run_iuad(spark, corpus.to_spark(spark), eta=eta, delta=delta, seed=seed)
    _, gcn_m = _iuad_confusions(spark, model, corpus, names)
    rows.append(_metric_row("IUAD", "Ours", gcn_m))
    return pd.DataFrame(rows)


def table4(
    spark: SparkSession,
    corpus: Corpus,
    *,
    n_names: int = 50,
    eta: int = ETA,
    delta: float = DELTA,
    seed: int = 0,
    model: IUADModel | None = None,
) -> pd.DataFrame:
    """Stage ablation: metrics after SCN only vs after GCN, plus improvement."""
    names = testing_set(corpus.papers, n_names=n_names).name.tolist()
    if model is None:
        model = run_iuad(spark, corpus.to_spark(spark), eta=eta, delta=delta, seed=seed)
    scn_m, gcn_m = _iuad_confusions(spark, model, corpus, names)
    s, g = scn_m.as_row(), gcn_m.as_row()
    # Improv is the difference of the printed (rounded) columns.
    return pd.DataFrame(
        [
            {"metric": k, "SCN": round(s[k], 4), "GCN": round(g[k], 4),
             "Improv": round(round(g[k], 4) - round(s[k], 4), 4)}
            for k in ("MicroA", "MicroP", "MicroR", "MicroF")
        ]
    )


def table5(
    spark: SparkSession,
    corpus: Corpus,
    *,
    n_names: int = 50,
    fractions: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0),
    eta: int = ETA,
    delta: float = DELTA,
    seed: int = 0,
) -> pd.DataFrame:
    """Average disambiguation time per name at growing data scale.

    Methods are timed end to end (corpus-level prebuild + per-name work).
    The top-down baselines only disambiguate the testing names, so their
    denominator is the testing-name count (the paper's protocol). IUAD is
    bottom-up: one pipeline pass disambiguates *every* name in the corpus,
    so its denominator is the number of distinct names present — this is
    precisely the "avoids the repeated calculations" efficiency claim of
    § V-F.1. Rows: method; columns: one per fraction.
    """
    full = corpus.papers
    names_full = testing_set(full, n_names=n_names).name.tolist()
    out: dict[str, list[float]] = {m: [] for m in (*UNSUPERVISED, "IUAD")}
    for frac in fractions:
        papers = full.iloc[: int(len(full) * frac)].reset_index(drop=True)
        present = {n for nms in papers.names for n in nms}
        names = [n for n in names_full if n in present]
        denom = max(1, len(names))

        t0 = time.time()
        emb = PaperEmbedder(papers, seed=seed)
        emb_t = time.time() - t0

        for m, run in UNSUPERVISED.items():
            t0 = time.time()
            run(papers, names, emb)
            out[m].append(((0.0 if m == "GHOST" else emb_t) + time.time() - t0) / denom)

        sdf = Corpus(papers=papers, authors=corpus.authors).to_spark(spark)
        t0 = time.time()
        run_iuad(spark, sdf, eta=eta, delta=delta, seed=seed)
        out["IUAD"].append((time.time() - t0) / max(1, len(present)))

    cols = {f"{int(f * 100)}%": [round(out[m][i], 3) for m in out] for i, f in enumerate(fractions)}
    return pd.DataFrame({"method": list(out), **cols})


def table6(
    spark: SparkSession,
    corpus: Corpus,
    *,
    n_names: int = 50,
    n_new: tuple[int, ...] = (100, 200, 300),
    eta: int = ETA,
    delta: float = DELTA,
    seed: int = 0,
) -> pd.DataFrame:
    """Incremental disambiguation: hold out N testing-name papers, build the
    GCN on the rest, judge held-out papers one by one (posterior only)."""
    rng = np.random.default_rng(seed)
    names = testing_set(corpus.papers, n_names=n_names).name.tolist()
    nameset = set(names)
    occ_all = author_paper_pairs(corpus.papers)
    test_pids = sorted(
        occ_all[occ_all.name.isin(nameset)].paper_id.unique().tolist()
    )
    rows = []
    for n in n_new:
        held = set(rng.choice(test_pids, size=min(n, len(test_pids)), replace=False).tolist())
        part1 = corpus.papers[~corpus.papers.paper_id.isin(held)].reset_index(drop=True)
        model = run_iuad(
            spark, Corpus(papers=part1, authors=corpus.authors).to_spark(spark),
            eta=eta, delta=delta, seed=seed,
        )
        # Part-1 metrics.
        occ1 = occ_all[occ_all.name.isin(nameset) & ~occ_all.paper_id.isin(held)]
        truth1 = spark.createDataFrame(occ1)
        m1 = confusion(gcn_assignments(model).join(truth1, ["paper_id", "name"]))

        # Stream part 2 through the incremental judge.
        judge = IncrementalJudge.from_model(model)
        held_papers = corpus.papers[corpus.papers.paper_id.isin(held)]
        base = gcn_assignments(model).toPandas()
        extra = []
        t0 = time.time()
        n_judged = 0
        for rec in held_papers.itertuples(index=False):
            paper = {
                "paper_id": rec.paper_id, "names": rec.names, "title": rec.title,
                "venue": rec.venue, "year": rec.year,
            }
            for nm in rec.names:
                vid, _ = judge.judge(paper, nm)
                final = judge.assimilate(paper, nm, vid)
                n_judged += 1
                if nm in nameset:
                    extra.append((rec.paper_id, nm, final))
        ms = (time.time() - t0) * 1000 / max(1, n_judged)

        combined = pd.concat(
            [base[["paper_id", "name", "cluster"]],
             pd.DataFrame(extra, columns=["paper_id", "name", "cluster"])],
            ignore_index=True,
        )
        occ2 = occ_all[occ_all.name.isin(nameset)]
        m2 = confusion_pandas(combined.merge(occ2, on=["paper_id", "name"]))

        r1, r2 = m1.as_row(), m2.as_row()
        rows.append(
            {
                "n_new": n,
                **{k: round(v, 4) for k, v in r1.items()},
                **{f"{k}+": round(v, 4) for k, v in r2.items()},
                "avg_ms": round(ms, 2),
            }
        )
    return pd.DataFrame(rows)


def measure_table(
    table: int,
    spark: SparkSession | None,
    corpus: Corpus,
    *,
    n_names: int = 50,
    eta: int = ETA,
    delta: float = DELTA,
    model: IUADModel | None = None,
) -> pd.DataFrame:
    """Measure the paper's Table ``table`` (2–6) on ``corpus``, run seed 0.

    Table II reads the corpus alone, so ``spark`` may be None for it.
    Tables III and IV reuse ``model`` when given, else fit their own.
    """
    if table == 2:
        return table2(corpus, n_names=n_names)
    kw = {"n_names": n_names, "eta": eta, "delta": delta}
    if table in (3, 4):
        kw["model"] = model
    return {3: table3, 4: table4, 5: table5, 6: table6}[table](spark, corpus, **kw)
