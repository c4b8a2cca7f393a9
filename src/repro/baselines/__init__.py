"""Disambiguation baselines of Table III: four supervised pairwise
classifiers and four unsupervised top-down clusterers."""
from __future__ import annotations

from typing import Callable, Sequence

import pandas as pd


def cluster_each_name(
    papers: pd.DataFrame,
    names: list[str],
    cluster: Callable[[str, list[int]], Sequence],
) -> pd.DataFrame:
    """Cluster each target name's papers on their own: the top-down
    protocol ANON, NetE, Aminer and GHOST share.

    ``cluster(name, pids)`` labels the ids of the papers that list
    ``name``, in corpus order; a name on no paper is skipped. Returns
    (name, paper_id, cluster) rows with the label scoped to its name as
    ``"name:label"``.
    """
    pid_by_name: dict[str, list[int]] = {n: [] for n in names}
    for pid, nms in zip(papers.paper_id, papers.names):
        for n in nms:
            if n in pid_by_name:
                pid_by_name[n].append(pid)
    rows = []
    for name, pids in pid_by_name.items():
        if pids:
            rows += [(name, p, f"{name}:{l}") for p, l in zip(pids, cluster(name, pids))]
    return pd.DataFrame(rows, columns=["name", "paper_id", "cluster"])
