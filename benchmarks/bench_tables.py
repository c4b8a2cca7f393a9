"""The paper's Tables II–VI measured on the bench corpus, one benchmark each.

Scale via REPRO_BENCH_SF (default 0.1 ≈ 20 000 papers). Each table runs
once under the timer (one pedantic round): they are end-to-end
experiments, not microbenchmarks. Tables III and IV share one fitted
model. pytest captures stdout, so each measured table is also written to
benchmarks/results/tableN.txt; run with -s to see it beside the paper's.
"""
import os
from pathlib import Path

import pytest

from repro.core.pipeline import DELTA, ETA, run_iuad
from repro.dblp.generator import author_paper_pairs, generate
from repro.exp.paper_numbers import side_by_side
from repro.exp.tables import measure_table

BENCH_SF = float(os.environ.get("REPRO_BENCH_SF", "0.1"))
BENCH_SEED = 7
N_NAMES = 50
SHUFFLE_PARTITIONS = "16"
RESULTS = Path(__file__).parent / "results"


def check_table2(t, corpus):
    # One row per testing name plus Total. Small corpora hold fewer than
    # N_NAMES ambiguous names (≥ 2 authors, ≥ 4 papers); count them here.
    per_name = author_paper_pairs(corpus.papers).groupby("name").agg(
        authors=("author_id", "nunique"), papers=("paper_id", "nunique")
    )
    n_ambiguous = int(((per_name.authors >= 2) & (per_name.papers >= 4)).sum())
    assert len(t) == min(N_NAMES, n_ambiguous) + 1
    assert (t.iloc[:-1].n_authors_td >= 2).all()


def check_table3(t, corpus):
    ours = t.set_index("method")
    # Shape assertions mirroring the paper's findings.
    assert ours.loc["IUAD", "MicroF"] == ours.MicroF.max()
    assert ours.loc["GHOST", "MicroR"] == ours.MicroR.min()
    assert ours.loc["IUAD", "MicroA"] > 0.75


def check_table4(t, corpus):
    got = t.set_index("metric")
    # The paper's headline: the GCN stage lifts recall sharply while
    # precision barely moves.
    assert got.loc["MicroR", "Improv"] > 0.1
    assert got.loc["MicroP", "Improv"] > -0.1
    assert got.loc["MicroF", "Improv"] > 0.0


def check_table5(t, corpus):
    ours = t.set_index("method")
    # Shape: the top-down baselines get slower per name with more data;
    # GHOST's path computation scales worst in absolute growth. IUAD's
    # per-name cost is amortized over every name in the corpus, so it may
    # stay flat or shrink (its fixed Spark overhead amortizes) — the
    # paper's efficiency claim, not asserted as growth.
    for m in ("ANON", "NetE", "Aminer", "GHOST"):
        assert ours.loc[m, "100%"] >= ours.loc[m, "20%"] * 0.8
    growth = ours["100%"] - ours["20%"]
    assert growth["GHOST"] == growth[["ANON", "NetE", "Aminer", "GHOST"]].max()


def check_table6(t, corpus):
    for _, row in t.iterrows():
        # Incremental judgement must be cheap (paper: < 50 ms/paper) —
        # allow an order of magnitude for the interpreted profile math.
        assert row["avg_ms"] < 500
        # ... and must not collapse quality (paper sees ~1 pt drops).
        assert row["MicroF+"] > row["MicroF"] - 0.15


CHECKS = {2: check_table2, 3: check_table3, 4: check_table4, 5: check_table5, 6: check_table6}


@pytest.fixture(scope="module")
def bench_spark(spark):
    """The session at the benchmarks' shuffle partition count, restored
    afterwards so that tests run in the same session keep their own."""
    key = "spark.sql.shuffle.partitions"
    before = spark.conf.get(key)
    spark.conf.set(key, SHUFFLE_PARTITIONS)
    yield spark
    spark.conf.set(key, before)


@pytest.fixture(scope="module")
def bench_corpus():
    return generate(sf=BENCH_SF, seed=BENCH_SEED)


@pytest.fixture(scope="module")
def bench_model(bench_spark, bench_corpus):
    return run_iuad(
        bench_spark, bench_corpus.to_spark(bench_spark), eta=ETA, delta=DELTA, seed=0
    )


@pytest.mark.parametrize("table", sorted(CHECKS))
def test_table(table, benchmark, request, bench_corpus):
    spark = None if table == 2 else request.getfixturevalue("bench_spark")
    model = request.getfixturevalue("bench_model") if table in (3, 4) else None
    t = benchmark.pedantic(
        lambda: measure_table(
            table, spark, bench_corpus,
            n_names=N_NAMES, eta=ETA, delta=DELTA, model=model,
        ),
        rounds=1,
        iterations=1,
    )
    print("\n" + side_by_side(table, t))
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"table{table}.txt").write_text(t.to_string(index=False) + "\n")
    CHECKS[table](t, bench_corpus)
