"""Output checks against independent references, run outside the clock.

Each check returns a list of failure messages; an empty list means it
passed. The references are deliberately not the code under test: pandas
twins of Spark queries, the pure-Python γ kernel applied to collected
profiles, and occurrence sets computed from the generated papers.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pandas as pd

from repro.core.gammas import GAMMA_NAMES, gamma_vector
from repro.core.profiles import row_to_profile
from repro.dblp.generator import author_paper_pairs
from repro.eval.metrics import confusion, confusion_pandas

#: γ agreement tolerance between the batch pairs and the reference kernel.
GAMMA_TOL = 1e-9
#: pairs drawn at random for the γ check, on top of the largest name's.
GAMMA_SAMPLE = 400


def covers_once(assigned: pd.DataFrame, papers: pd.DataFrame, what: str) -> list[str]:
    """Every (paper, name) occurrence of ``papers`` has exactly one row in
    ``assigned`` and nothing else does."""
    keys = assigned[["paper_id", "name"]]
    dup = int(keys.duplicated().sum())
    want = set(map(tuple, author_paper_pairs(papers)[["paper_id", "name"]].to_numpy().tolist()))
    got = set(map(tuple, keys.to_numpy().tolist()))
    errs = []
    if dup:
        errs.append(f"{what}: {dup} occurrences assigned more than once")
    if want - got:
        errs.append(f"{what}: {len(want - got)} occurrences missing")
    if got - want:
        errs.append(f"{what}: {len(got - want)} occurrences not in the input")
    return errs


def partition_hash(assigned: pd.DataFrame, cluster: str) -> str:
    """Hash of the clustering with vertex labels erased: the sorted list of
    clusters, each the sorted list of its (paper_id, name) occurrences."""
    groups = sorted(
        sorted((int(p), n) for p, n in zip(g.paper_id, g.name))
        for _, g in assigned.groupby(cluster)
    )
    return hashlib.sha256(json.dumps(groups).encode()).hexdigest()[:16]


def gamma_check(model, pairs: pd.DataFrame, seed: int) -> tuple[list[str], str]:
    """γ vectors of a seeded sample of pairs plus every pair of the largest
    name must equal ``gamma_vector`` on the collected profiles. Also checks
    that each name with k vertices has exactly k(k-1)/2 pairs."""
    profs = model.profiles.profiles.select("name", "vertex_id").toPandas()
    k = profs.groupby("name").size()
    errs = []
    want_pairs = int((k * (k - 1) // 2).sum())
    if want_pairs != len(pairs):
        errs.append(f"similarity: {len(pairs)} pairs, expected {want_pairs}")
    largest = str(k.sort_values(kind="stable").index[-1]) if len(k) else ""
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(pairs), size=min(GAMMA_SAMPLE, len(pairs)), replace=False)
    chosen = pd.concat([pairs.iloc[np.sort(pick)], pairs[pairs.name == largest]])
    chosen = chosen.drop_duplicates(["vid_i", "vid_j"])
    names = sorted(set(chosen.name))
    rows = model.profiles.profiles.where(model.profiles.profiles.name.isin(names)).collect()
    by_vid = {r["vertex_id"]: row_to_profile(r) for r in rows}
    stats = model.profiles.stats
    worst = 0.0
    for rec in chosen.itertuples(index=False):
        ref = gamma_vector(by_vid[rec.vid_i], by_vid[rec.vid_j], stats)
        got = np.array([getattr(rec, g) for g in GAMMA_NAMES])
        worst = max(worst, float(np.max(np.abs(ref - got))))
    if worst > GAMMA_TOL:
        errs.append(f"similarity: γ differs from the reference kernel by {worst:.3g}")
    return errs, largest


def confusion_check(spark, labelled: pd.DataFrame):
    """Spark ``confusion`` must equal ``confusion_pandas`` on the same
    labelled occurrences. Returns (failures, Spark confusion)."""
    got = confusion(spark.createDataFrame(labelled))
    ref = confusion_pandas(labelled)
    errs = [] if got == ref else [f"confusion: Spark {got} != pandas {ref}"]
    return errs, got


def labelled(clusters: pd.DataFrame, papers: pd.DataFrame, names: list[str]) -> pd.DataFrame:
    """(paper_id, name, cluster, author_id) for the testing names."""
    truth = author_paper_pairs(papers)
    truth = truth[truth.name.isin(set(names))]
    return clusters[["paper_id", "name", "cluster"]].merge(truth, on=["paper_id", "name"])


def determinism_check(path: Path, key: str, record: dict) -> list[str]:
    """The first run recorded under ``key`` (workload, seed, source hash)
    is the reference: a later run of the same code on the same input whose
    ``record`` disagrees fails, since the GCN must be a pure function of
    the input papers and the config."""
    seen = json.loads(path.read_text()) if path.is_file() else {}
    first = seen.setdefault(key, record)
    path.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return [f"determinism: {k} was {first.get(k)}, now {v}"
            for k, v in record.items() if first.get(k) != v]


def source_hash(src: Path) -> str:
    """Hash of every Python file of the package under test."""
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(str(p.relative_to(src)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]
