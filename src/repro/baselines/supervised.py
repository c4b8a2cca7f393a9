"""Supervised baseline harness: pairwise classification (Table III, top).

The paper's supervised baselines classify whether two papers sharing a
target name are by the same author (Treeratpituk-style features), trained
on labelled pairs. Here labels come from generator ground truth on a set of
ambiguous names *disjoint* from the testing set; micro metrics are counted
on the testing-set pairs exactly as for the unsupervised methods.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np
import pandas as pd

from repro.baselines.ensembles import AdaBoost, GradientBoosting, RandomForest, XGBoostLite
from repro.baselines.features import FeatureExtractor
from repro.eval.metrics import Confusion

# Training pairs beyond this many are subsampled (seeded).
MAX_TRAIN_PAIRS = 20000

MODELS = {
    "AdaBoost": lambda: AdaBoost(n_estimators=60, max_depth=2),
    "GBDT": lambda: GradientBoosting(n_estimators=80, max_depth=3),
    "RF": lambda: RandomForest(n_estimators=50, max_depth=8),
    "XGBoost": lambda: XGBoostLite(n_estimators=80, max_depth=3),
}


def labelled_name_pairs(occ: pd.DataFrame, names: list[str]) -> pd.DataFrame:
    """All within-name occurrence pairs with truth labels.

    ``occ``: (paper_id, author_id, name). Output rows (name, p1, p2, label).
    """
    rows = []
    sub = occ[occ.name.isin(set(names))]
    for name, grp in sub.groupby("name"):
        recs = list(grp[["paper_id", "author_id"]].itertuples(index=False))
        for r1, r2 in combinations(recs, 2):
            rows.append((name, r1.paper_id, r2.paper_id, int(r1.author_id == r2.author_id)))
    return pd.DataFrame(rows, columns=["name", "p1", "p2", "label"])


def run_supervised(
    model_name: str,
    papers: pd.DataFrame,
    occ: pd.DataFrame,
    train_names: list[str],
    test_names: list[str],
    *,
    extractor: FeatureExtractor | None = None,
) -> Confusion:
    """Train a pairwise classifier on ``train_names`` and evaluate the micro
    confusion over ``test_names`` pairs."""
    fx = extractor if extractor is not None else FeatureExtractor(papers)
    train = labelled_name_pairs(occ, train_names)
    if len(train) > MAX_TRAIN_PAIRS:
        train = train.sample(MAX_TRAIN_PAIRS, random_state=0)
    test = labelled_name_pairs(occ, test_names)
    Xtr = fx.pairs_matrix(train)
    Xte = fx.pairs_matrix(test)
    model = MODELS[model_name]()
    model.fit(Xtr, train.label.to_numpy())
    pred = model.predict(Xte)
    y = test.label.to_numpy()
    return Confusion(
        tp=int(((pred == 1) & (y == 1)).sum()),
        fp=int(((pred == 1) & (y == 0)).sum()),
        fn=int(((pred == 0) & (y == 1)).sum()),
        tn=int(((pred == 0) & (y == 0)).sum()),
    )
