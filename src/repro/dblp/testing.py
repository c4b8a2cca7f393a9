"""Testing-set selection — the Table II analogue.

The paper's testing set is the DBLP ∩ DAminer intersection: 50 ambiguous
names, 336 real authors, 1 529 labelled papers. We select the same kind of
subset from the synthetic corpus: names shared by ≥ 2 authors who each
published ≥ 1 paper, ranked so the marginals (authors per name, papers per
name) resemble Table II.
"""
from __future__ import annotations

import pandas as pd

from repro.dblp.generator import author_paper_pairs


# A testing name is shared by at least this many authors.
MIN_AUTHORS = 2


def testing_set(papers: pd.DataFrame, *, n_names: int = 50,
                min_papers: int = 4) -> pd.DataFrame:
    """Pick ``n_names`` ambiguous names from the corpus.

    Returns one row per selected name with the Table II columns:
    ``name``, ``n_authors_td``, ``n_papers_td``, ``n_papers_dblp``.
    ``n_papers_td`` counts labelled occurrences for the name (here all
    occurrences are labelled, so it equals ``n_papers_dblp``; the split is
    kept so harnesses can sub-sample labelled papers like DAminer does).
    """
    occ = author_paper_pairs(papers)
    per_name = occ.groupby("name").agg(
        n_authors_td=("author_id", "nunique"),
        n_papers_dblp=("paper_id", "nunique"),
    )
    cand = per_name[
        (per_name.n_authors_td >= MIN_AUTHORS) & (per_name.n_papers_dblp >= min_papers)
    ].copy()
    # Rank by ambiguity then volume, as Table II is dominated by names with
    # many authors and a few dozen papers.
    cand = cand.sort_values(
        ["n_authors_td", "n_papers_dblp"], ascending=[False, False]
    ).head(n_names)
    cand["n_papers_td"] = cand["n_papers_dblp"]
    return cand.reset_index()[["name", "n_authors_td", "n_papers_td", "n_papers_dblp"]]


def testing_occurrences(papers: pd.DataFrame, names: pd.Series | list[str]) -> pd.DataFrame:
    """Labelled (paper_id, author_id, name) occurrences restricted to the
    testing-set names."""
    occ = author_paper_pairs(papers)
    return occ[occ.name.isin(set(names))].reset_index(drop=True)
