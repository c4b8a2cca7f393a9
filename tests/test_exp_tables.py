"""Experiment-table harnesses (structure checks on small inputs)."""
import inspect

import pytest

from repro.exp import paper_numbers
from repro.exp.paper_numbers import PAPER_FRAMES
from repro.exp.tables import SUPERVISED, UNSUPERVISED, table2, table4, table5, table6


class TestPaperNumbers:
    def test_table3_methods_complete(self):
        assert set(paper_numbers.TABLE3) == {
            "AdaBoost", "GBDT", "RF", "XGBoost",
            "ANON", "NetE", "Aminer", "GHOST", "IUAD",
        }

    def test_table5_five_fractions_each(self):
        assert all(len(v) == 5 for v in paper_numbers.TABLE5.values())

    def test_table6_keys(self):
        assert set(paper_numbers.TABLE6) == {100, 200, 300}

    # Each paper frame has the rows and columns of its measured table.
    def test_table2_frame_is_the_total_row(self, corpus):
        measured = table2(corpus, n_names=10)
        assert list(PAPER_FRAMES[2].columns) == list(measured.columns)
        assert PAPER_FRAMES[2].name.tolist() == measured.name.iloc[-1:].tolist()

    def test_table3_frame_rows(self):
        # The methods table3 measures, in its row order (a measured run
        # trains every baseline: ~45 s on the test corpus).
        assert PAPER_FRAMES[3].method.tolist() == [*SUPERVISED, *UNSUPERVISED, "IUAD"]

    @pytest.mark.spark
    @pytest.mark.slow
    def test_table4_frame_rows(self, spark, corpus, model):
        measured = table4(spark, corpus, n_names=30, model=model)
        assert list(PAPER_FRAMES[4].columns) == list(measured.columns)
        assert PAPER_FRAMES[4].metric.tolist() == measured.metric.tolist()

    def test_table5_frame_rows(self, corpus):
        # No fraction: the method rows alone, without a timed run.
        measured = table5(None, corpus, n_names=10, fractions=())
        assert PAPER_FRAMES[5].method.tolist() == measured.method.tolist()
        default = inspect.signature(table5).parameters["fractions"].default
        assert list(PAPER_FRAMES[5].columns[1:]) == [f"{int(f * 100)}%" for f in default]

    def test_table6_frame_rows(self):
        default = inspect.signature(table6).parameters["n_new"].default
        assert PAPER_FRAMES[6].n_new.tolist() == list(default)


class TestTable2:
    def test_structure(self, corpus):
        t = table2(corpus, n_names=10)
        assert list(t.columns) == ["name", "n_authors_td", "n_papers_td", "n_papers_dblp"]
        assert t.iloc[-1]["name"] == "Total"
        assert len(t) == 11

    def test_total_row_sums(self, corpus):
        t = table2(corpus, n_names=10)
        body, total = t.iloc[:-1], t.iloc[-1]
        assert total.n_authors_td == body.n_authors_td.sum()
        assert total.n_papers_dblp == body.n_papers_dblp.sum()


@pytest.mark.spark
@pytest.mark.slow
class TestTable4:
    def test_rows_and_improvement(self, spark, corpus, model):
        t = table4(spark, corpus, n_names=30, model=model)
        assert list(t.metric) == ["MicroA", "MicroP", "MicroR", "MicroF"]
        got = t.set_index("metric")
        assert (got.Improv == (got.GCN - got.SCN).round(4)).all()
        assert got.loc["MicroR", "Improv"] > 0.1  # the paper's headline result


@pytest.mark.spark
@pytest.mark.slow
class TestTable6:
    @pytest.fixture(scope="class")
    def t(self, spark, corpus):
        return table6(spark, corpus, n_names=20, n_new=(40,), eta=4, delta=6.0)

    def test_structure(self, t):
        assert list(t.n_new) == [40]
        assert list(t.columns) == list(PAPER_FRAMES[6].columns)
        row = t.iloc[0]
        for k in ("MicroA", "MicroP", "MicroR", "MicroF"):
            assert 0 <= row[k] <= 1 and 0 <= row[f"{k}+"] <= 1
        assert row.avg_ms > 0

    def test_incremental_does_not_collapse(self, t):
        row = t.iloc[0]
        # the paper observes only a slight reduction after increment
        assert row["MicroF+"] > row["MicroF"] - 0.15
