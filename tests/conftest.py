"""Shared fixtures: one small corpus + one fitted IUAD model per session.

The root conftest owns the SparkSession; this file tunes shuffle
parallelism for tiny inputs (64-partition shuffles dominate wall-clock at
SF=0.01) and builds session-scoped artefacts so the expensive pipeline runs
once.
"""
import os

# Must run before the root conftest's `spark` fixture is *instantiated*
# (it reads the env at builder time, which happens after test collection).
os.environ.setdefault("SPARK_SHUFFLE_PARTITIONS", "8")

import pandas as pd  # noqa: E402
import pytest  # noqa: E402

from repro.dblp.generator import Corpus, author_paper_pairs, generate  # noqa: E402
from repro.dblp.testing import testing_occurrences, testing_set  # noqa: E402

SF_TEST = 0.01
SEED = 7
ETA = 4


@pytest.fixture(scope="session")
def corpus() -> Corpus:
    return generate(sf=SF_TEST, seed=SEED)


@pytest.fixture(scope="session")
def occurrences_truth(corpus) -> pd.DataFrame:
    return author_paper_pairs(corpus.papers)


@pytest.fixture(scope="session")
def test_names(corpus) -> list[str]:
    return testing_set(corpus.papers, n_names=30).name.tolist()


@pytest.fixture(scope="session")
def truth_occ(corpus, test_names) -> pd.DataFrame:
    return testing_occurrences(corpus.papers, test_names)


@pytest.fixture(scope="session")
def papers_df(spark, corpus):
    df = corpus.to_spark(spark).cache()
    df.count()
    return df


@pytest.fixture(scope="session")
def scn(papers_df):
    from repro.core.scn import build_scn

    return build_scn(papers_df, eta=ETA)


@pytest.fixture(scope="session")
def profile_set(papers_df, scn):
    from repro.core.profiles import build_profiles

    ps = build_profiles(papers_df, scn)
    ps.profiles.cache().count()
    return ps


@pytest.fixture(scope="session")
def model(spark, papers_df):
    """Full IUAD model — the expensive end-to-end fixture (built once)."""
    from repro.core.pipeline import run_iuad

    return run_iuad(spark, papers_df, eta=ETA, delta=0.0, seed=0)


@pytest.fixture
def shuffle_partitions(spark):
    """Sets the shuffle partition count with AQE coalescing off; both
    settings are restored afterwards."""
    keys = ("spark.sql.shuffle.partitions", "spark.sql.adaptive.coalescePartitions.enabled")
    before = {k: spark.conf.get(k) for k in keys}

    def set_partitions(n: int) -> None:
        spark.conf.set(keys[0], str(n))
        spark.conf.set(keys[1], "false")

    yield set_partitions
    for k, v in before.items():
        spark.conf.set(k, v)


@pytest.fixture(scope="session")
def tiny_papers_pdf() -> pd.DataFrame:
    """Hand-written corpus implementing the paper's Fig. 4 running example:
    (a,b), (a,c), (a,d), (b,e), (c,d), (b,c) are 2-SCRs; plus one paper
    with no stable relation. Ground-truth author ids are the name with a
    phase suffix where a name is reused."""
    rows = []
    pid = 0

    def add(names, title="kw1 kw2 deep topic", venue="V1", year=2000):
        nonlocal pid
        rows.append((pid, list(range(len(names))), list(names), title, venue, year))
        pid += 1

    # two papers for each SCR pair to reach eta=2
    for pair in [("a", "b"), ("a", "c"), ("a", "d"), ("b", "e"), ("c", "d"), ("b", "c")]:
        add(pair)
        add(pair)
    add(("z", "q"))  # no SCR: z and q become singletons
    return pd.DataFrame(
        rows, columns=["paper_id", "authors", "names", "title", "venue", "year"]
    )


@pytest.fixture(scope="session")
def tiny_papers(spark, tiny_papers_pdf):
    from repro.dblp.generator import PAPER_SCHEMA

    return spark.createDataFrame(tiny_papers_pdf, schema=PAPER_SCHEMA).cache()
