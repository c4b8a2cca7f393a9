"""Pairwise micro metrics (Section VI-A.2).

For every testing-set name, every unordered pair of (paper, name)
occurrences is classified same/different author by the method (cluster ids)
and by ground truth (author ids); TP/FP/FN/TN are totalled over all names
and MicroA/P/R/F computed from the totals. No pair is listed: Spark counts
the occurrences of each (name, cluster, author) cell, and each total is a
sum of C(n, 2) over groups of those cells (Hubert & Arabie 1985). The
pandas pair loop ``confusion_pandas`` and the DuckDB self-join SQL in the
tests are the references the counts are checked against.
"""
from __future__ import annotations

import dataclasses
from collections import Counter

import pandas as pd
from pyspark.sql import DataFrame


@dataclasses.dataclass
class Confusion:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def micro_a(self) -> float:
        t = self.tp + self.fp + self.fn + self.tn
        return (self.tp + self.tn) / t if t else 0.0

    @property
    def micro_p(self) -> float:
        d = self.tp + self.fp
        return self.tp / d if d else 0.0

    @property
    def micro_r(self) -> float:
        d = self.tp + self.fn
        return self.tp / d if d else 0.0

    @property
    def micro_f(self) -> float:
        p, r = self.micro_p, self.micro_r
        return 2 * p * r / (p + r) if p + r else 0.0

    def as_row(self) -> dict:
        return {
            "MicroA": self.micro_a,
            "MicroP": self.micro_p,
            "MicroR": self.micro_r,
            "MicroF": self.micro_f,
        }


def _pairs(counts: Counter) -> int:
    """Σ C(n, 2): the unordered pairs within each group of ``counts``."""
    return sum(n * (n - 1) // 2 for n in counts.values())


def confusion(labelled: DataFrame) -> Confusion:
    """Pair counts of ``labelled``: (paper_id, name, cluster, author_id),
    one row per (paper_id, name), as every occurrence table has.

    One count n per (name, cluster, author_id) cell is collected, and no
    pair is listed. TP is Σ C(n, 2) over the cells; the same-cluster,
    same-author and all pairs are Σ C(n, 2) over the cells' sums per
    (name, cluster), (name, author_id) and name. A row with a null column
    is dropped first: like the ``=`` of a self-join, it pairs with no row.
    """
    cells = (
        labelled.dropna(subset=["paper_id", "name", "cluster", "author_id"])
        .groupBy("name", "cluster", "author_id")
        .count()
        .collect()
    )
    both, cluster, author, name = Counter(), Counter(), Counter(), Counter()
    for nm, c, a, n in cells:
        both[nm, c, a] = n
        cluster[nm, c] += n
        author[nm, a] += n
        name[nm] += n
    tp, same_c, same_a = _pairs(both), _pairs(cluster), _pairs(author)
    return Confusion(tp=tp, fp=same_c - tp, fn=same_a - tp, tn=_pairs(name) - same_c - same_a + tp)


def confusion_pandas(labelled: pd.DataFrame) -> Confusion:
    """Local twin for baselines that cluster in the driver: same definition
    over a pandas frame with columns (paper_id, name, cluster, author_id)."""
    tp = fp = fn = tn = 0
    for _, grp in labelled.groupby("name"):
        rows = grp[["paper_id", "cluster", "author_id"]].to_numpy()
        n = len(rows)
        for i in range(n):
            for j in range(i + 1, n):
                ps = rows[i][1] == rows[j][1]
                ts = rows[i][2] == rows[j][2]
                tp += ps and ts
                fp += ps and not ts
                fn += ts and not ps
                tn += not ps and not ts
    return Confusion(tp=int(tp), fp=int(fp), fn=int(fn), tn=int(tn))
