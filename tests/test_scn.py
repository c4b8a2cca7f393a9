"""Stage I: η-SCR mining and SCN construction.

Includes the paper's Fig. 4 running example, a DuckDB oracle check of the
pair-count dataflow, FP-growth cross-validation, and a pure-python
reference SCN compared against the Spark build on the full test corpus.
"""
from collections import Counter, defaultdict
from itertools import combinations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.scn import SSEP, VSEP, build_scn, mine_scrs
from repro.graph.components import UnionFind

from .oracle import assert_equivalent


def mine_scrs_fpgrowth(papers, *, eta: int):
    """η-SCRs via ``pyspark.ml.fpm.FPGrowth`` (the paper's Step I verbatim).

    Mines all frequent itemsets with support η/N and keeps the 2-itemsets.
    Co-author lists are already duplicate-free by construction.
    """
    from pyspark.ml.fpm import FPGrowth

    n = papers.count()
    model = FPGrowth(
        itemsCol="names", minSupport=max(eta / n, 1e-12), minConfidence=0.5
    ).fit(papers.select("paper_id", "names"))
    two = model.freqItemsets.where(F.size("items") == 2)
    return two.select(
        F.array_min("items").alias("a"),
        F.array_max("items").alias("b"),
        F.col("freq").alias("cnt"),
    ).where(F.col("cnt") >= eta)


def reference_scn(papers_pdf: pd.DataFrame, eta: int):
    """Pure-python SCN: returns (scrs set, assignment dict)."""
    pair_cnt = Counter()
    for nms in papers_pdf.names:
        for a, b in combinations(sorted(nms), 2):
            pair_cnt[(a, b)] += 1
    scrs = {p for p, c in pair_cnt.items() if c >= eta}
    partners = defaultdict(set)
    for a, b in scrs:
        partners[a].add(b)
        partners[b].add(a)
    comp = {}
    for x, ps in partners.items():
        uf = UnionFind()
        for p in ps:
            uf.find(p)
        for y, z in combinations(sorted(ps), 2):
            if (min(y, z), max(y, z)) in scrs:
                uf.union(y, z)
        comp[x] = uf.components()
    assign = {}
    for pid, nms in papers_pdf[["paper_id", "names"]].itertuples(index=False):
        nset = set(nms)
        for x in nms:
            votes = Counter()
            for y in nset:
                if y != x and (min(x, y), max(x, y)) in scrs:
                    votes[comp[x][y]] += 1
            if votes:
                best = max(votes.items(), key=lambda kv: (kv[1], kv[0]))[0]
                assign[(pid, x)] = f"{x}{VSEP}{best}"
            else:
                assign[(pid, x)] = f"{x}{SSEP}{pid}"
    return scrs, assign


@pytest.mark.spark
class TestMineScrs:
    def test_pair_counts_match_duckdb(self, spark, tiny_papers):
        """Oracle: the explode/self-join/groupBy dataflow equals SQL."""
        occ = tiny_papers.select("paper_id", F.explode("names").alias("name"))
        pairs = mine_scrs(tiny_papers, eta=1)
        assert_equivalent(
            pairs.select("a", "b", F.col("cnt").cast("long").alias("cnt")),
            """
            SELECT o1.name AS a, o2.name AS b, COUNT(*)::BIGINT AS cnt
            FROM occ o1 JOIN occ o2 USING (paper_id)
            WHERE o1.name < o2.name
            GROUP BY 1, 2
            """,
            occ=occ,
        )

    def test_eta_threshold(self, spark, tiny_papers):
        all_pairs = mine_scrs(tiny_papers, eta=1).toPandas()
        stable = mine_scrs(tiny_papers, eta=2).toPandas()
        assert set(map(tuple, stable[["a", "b"]].values)) == {
            ("a", "b"), ("a", "c"), ("a", "d"), ("b", "e"), ("c", "d"), ("b", "c"),
        }
        assert len(all_pairs) == len(stable) + 1  # plus the (q, z) singleton pair

    def test_fpgrowth_agrees(self, spark, tiny_papers):
        direct = mine_scrs(tiny_papers, eta=2).toPandas().sort_values(["a", "b"])
        fp = mine_scrs_fpgrowth(tiny_papers, eta=2).toPandas().sort_values(["a", "b"])
        pd.testing.assert_frame_equal(
            direct.reset_index(drop=True), fp.reset_index(drop=True)
        )

    def test_fpgrowth_agrees_on_corpus(self, spark, papers_df):
        direct = mine_scrs(papers_df, eta=4).toPandas().sort_values(["a", "b"])
        fp = mine_scrs_fpgrowth(papers_df, eta=4).toPandas().sort_values(["a", "b"])
        pd.testing.assert_frame_equal(
            direct.reset_index(drop=True), fp.reset_index(drop=True)
        )

    def test_symmetric_canonical(self, spark, tiny_papers):
        scrs = mine_scrs(tiny_papers, eta=2).toPandas()
        assert (scrs.a < scrs.b).all()


@pytest.mark.spark
class TestRunningExample:
    """Fig. 4: SCRs (a,b),(a,c),(a,d),(b,e),(c,d),(b,c)."""

    def test_partner_components(self, spark, tiny_papers_pdf, tiny_papers):
        """Each occurrence lands on its name's partner component, labelled
        by the component's smallest partner."""
        scn = build_scn(tiny_papers, eta=2)
        got = {(r.paper_id, r.name): r.vertex_id for r in scn.assignments.collect()}
        # a's partners b, c, d are one component: (b,c) and (c,d) are SCRs.
        # b's partners a, c connect ((a,c) is an SCR); e stays separate.
        # c's partners a, b, d connect through a; d's a, c; e's is b alone.
        one = {"a": "a#b", "c": "c#a", "d": "d#a", "e": "e#b"}
        for pid, names in tiny_papers_pdf[["paper_id", "names"]].itertuples(index=False):
            for x in names:
                if x == "b":
                    want = "b#e" if "e" in names else "b#a"
                else:
                    want = one.get(x, f"{x}{SSEP}{pid}")
                assert got[(pid, x)] == want, (pid, x)

    def test_two_vertices_named_b(self, spark, tiny_papers):
        scn = build_scn(tiny_papers, eta=2)
        verts = (
            scn.assignments.where("name = 'b'").select("vertex_id").distinct().toPandas()
        )
        assert len(verts) == 2  # b-with-{a,c} and b-with-{e}

    def test_one_vertex_named_a(self, spark, tiny_papers):
        scn = build_scn(tiny_papers, eta=2)
        verts = (
            scn.assignments.where("name = 'a'").select("vertex_id").distinct().toPandas()
        )
        assert len(verts) == 1

    def test_singletons_for_non_scr_names(self, spark, tiny_papers):
        scn = build_scn(tiny_papers, eta=2)
        rows = scn.assignments.where("name in ('z', 'q')").toPandas()
        assert (~rows.stable).all()
        # name@<integer paper id>: no float formatting of the id.
        assert (rows.vertex_id == rows.name + SSEP + rows.paper_id.astype(str)).all()

    def test_edges_connect_correct_vertices(self, spark, tiny_papers):
        scn = build_scn(tiny_papers, eta=2)
        edges = {(r.u, r.v) for r in scn.edges.toPandas().itertuples(index=False)}
        assert len(edges) == 6  # one per SCR
        # (b, e) edge must involve the e-side vertex of b.
        be = [e for e in edges if e[0].startswith("b" + VSEP) and e[1].startswith("e" + VSEP)]
        assert len(be) == 1
        assert be[0][0] == f"b{VSEP}e"


@pytest.mark.spark
class TestScnLayout:
    @pytest.mark.parametrize("n", [1, 64])
    def test_partition_count(self, spark, shuffle_partitions, n):
        """All names in one partition, or more partitions than names: every
        occurrence gets the reference vertex. Names with an apostrophe or a
        non-ASCII letter order the component labels; paper ids beyond
        2**53 would not survive a float."""
        rng = np.random.default_rng(3)
        pool = ["a", "b", "o'brien", "o'neil", "ñandú", "Åsa", "zoë", "Zoe", "名前", "c"]
        pool += [f"r{i}" for i in range(6)]
        pdf = pd.DataFrame(
            {
                "paper_id": [2**53 + 1 + i for i in range(80)],
                "names": [
                    [str(x) for x in rng.choice(pool, rng.integers(2, 5), replace=False)]
                    for _ in range(80)
                ],
            }
        )
        shuffle_partitions(n)
        scn = build_scn(spark.createDataFrame(pdf, "paper_id long, names array<string>"), eta=3)
        got = {
            (r.paper_id, r.name): r.vertex_id for r in scn.assignments.collect()
        }
        _, ref_assign = reference_scn(pdf, eta=3)
        assert got == ref_assign
        assert any(SSEP in v for v in got.values()) and any(VSEP in v for v in got.values())


@pytest.mark.spark
class TestScnOnCorpus:
    def test_matches_reference_implementation(self, spark, corpus, scn):
        _, ref_assign = reference_scn(corpus.papers, eta=4)
        got = {
            (r.paper_id, r.name): r.vertex_id
            for r in scn.assignments.toPandas().itertuples(index=False)
        }
        assert got == ref_assign

    def test_every_occurrence_assigned_once(self, spark, corpus, scn):
        papers = spark.createDataFrame(corpus.papers[["paper_id", "names"]])
        occ = papers.select("paper_id", F.explode("names").alias("name"))
        n_occ = occ.count()
        asg = scn.assignments
        assert asg.count() == n_occ
        assert asg.select("paper_id", "name").distinct().count() == n_occ

    def test_vertex_ids_prefixed_by_name(self, spark, scn):
        bad = scn.assignments.where(
            ~F.col("vertex_id").startswith(F.col("name"))
        ).count()
        assert bad == 0

    def test_stable_flag_consistent_with_id_shape(self, spark, scn):
        pdf = scn.assignments.toPandas()
        assert (
            pdf.stable == pdf.vertex_id.str.contains(VSEP, regex=False)
        ).all()

    def test_edges_reference_existing_vertices(self, spark, scn):
        verts = {r.vertex_id for r in scn.assignments.select("vertex_id").distinct().collect()}
        for r in scn.edges.collect():
            assert r.u in verts and r.v in verts
