"""Union–find and grouped connected components (local + Spark)."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.components import UnionFind, components_per_group


def local_components(edges, nodes=()) -> dict:
    """Reference/local implementation: node -> component representative."""
    uf = UnionFind()
    for n in nodes:
        uf.find(n)
    for u, v in edges:
        uf.union(u, v)
    return uf.components()


class TestUnionFind:
    def test_singleton(self):
        uf = UnionFind()
        assert uf.find("a") == "a"
        assert uf.components() == {"a": "a"}

    def test_union_two(self):
        uf = UnionFind()
        uf.union("b", "a")
        assert uf.find("a") == uf.find("b") == "a"

    def test_deterministic_min_root(self):
        uf1, uf2 = UnionFind(), UnionFind()
        uf1.union("c", "b"); uf1.union("b", "a")
        uf2.union("a", "b"); uf2.union("b", "c")
        assert uf1.components() == uf2.components() == {"a": "a", "b": "a", "c": "a"}

    def test_transitive(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("c", "d")
        assert uf.find("a") != uf.find("c")
        uf.union("b", "c")
        assert uf.find("a") == uf.find("d")

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=80
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_bfs(self, edges):
        """Components agree with a BFS reference on random graphs."""
        comp = local_components([(str(u), str(v)) for u, v in edges])
        adj = {}
        for u, v in edges:
            adj.setdefault(str(u), set()).add(str(v))
            adj.setdefault(str(v), set()).add(str(u))
        for node, root in comp.items():
            # BFS from node
            seen = {node}
            stack = [node]
            while stack:
                x = stack.pop()
                for y in adj.get(x, ()):
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            assert root == min(seen)
            assert all(comp[m] == root for m in seen)


class TestLocalComponents:
    def test_isolated_nodes_included(self):
        comp = local_components([], nodes=["x", "y"])
        assert comp == {"x": "x", "y": "y"}

    def test_chain(self):
        comp = local_components([("a", "b"), ("b", "c"), ("d", "e")])
        assert comp["c"] == "a" and comp["e"] == "d"


@pytest.mark.spark
class TestComponentsPerGroup:
    def test_two_groups_independent(self, spark):
        edges = spark.createDataFrame(
            pd.DataFrame(
                {
                    "name": ["n1", "n1", "n2"],
                    "u": ["a", "b", "a"],
                    "v": ["b", "c", "z"],
                }
            )
        )
        out = components_per_group(edges).toPandas()
        got = {(r.name, r.node): r.component for r in out.itertuples(index=False)}
        assert got == {
            ("n1", "a"): "a", ("n1", "b"): "a", ("n1", "c"): "a",
            ("n2", "a"): "a", ("n2", "z"): "a",
        }

    def test_matches_local_on_random_graphs(self, spark):
        rng = np.random.default_rng(0)
        rows = []
        for gname in ["g1", "g2", "g3"]:
            for _ in range(40):
                rows.append((gname, f"v{rng.integers(12)}", f"v{rng.integers(12)}"))
        pdf = pd.DataFrame(rows, columns=["name", "u", "v"])
        out = components_per_group(spark.createDataFrame(pdf)).toPandas()
        for gname, grp in pdf.groupby("name"):
            expected = local_components(list(zip(grp.u, grp.v)))
            got = {
                r.node: r.component
                for r in out[out.name == gname].itertuples(index=False)
            }
            assert got == expected

    @pytest.mark.parametrize("n", [1, 64])
    def test_partition_count(self, spark, shuffle_partitions, n):
        """All names in one partition, or more partitions than names (most
        of them empty): each name's components are its local union–find's.
        The names share node labels, some with an apostrophe or non-ASCII
        letters, whose order decides the component labels."""
        rng = np.random.default_rng(1)
        labels = ["a", "b", "o'brien", "o'neil", "b'", "ñandú", "Åsa", "zoë", "Zoe", "c"]
        rows = []
        for gname in ["n1", "n2", "o'hara", "Łukasz", "名前"]:
            for _ in range(12):
                rows.append((gname, *rng.choice(labels, 2)))
        pdf = pd.DataFrame(rows, columns=["name", "u", "v"])
        shuffle_partitions(n)
        out = components_per_group(spark.createDataFrame(pdf)).toPandas()
        assert len(out) == len(out[["name", "node"]].drop_duplicates())
        for gname, grp in pdf.groupby("name"):
            expected = local_components(list(zip(grp.u, grp.v)))
            got = {
                r.node: r.component
                for r in out[out.name == gname].itertuples(index=False)
            }
            assert got == expected, gname
