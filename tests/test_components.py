"""Union–find and the per-name pass (local + Spark). The δ-merge's
grouped components are checked in test_gcn.py."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.components import UnionFind, _by_name, per_name


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


class TestByName:
    def test_names_span_batches(self):
        """A name's pieces from several batches, empty batches among them,
        arrive as one set of rows in batch order."""
        batches = [
            pd.DataFrame({"name": ["a", "b", "b"], "k": [0, 1, 2]}),
            pd.DataFrame({"name": [], "k": []}),
            pd.DataFrame({"name": ["b", "b"], "k": [3, 4]}),
            pd.DataFrame({"name": ["b", "c"], "k": [5, 6]}),
            pd.DataFrame({"name": ["d"], "k": [7]}),
        ]
        got = [(name, rows["k"].tolist()) for name, rows in _by_name(batches)]
        assert got == [("a", [0]), ("b", [1, 2, 3, 4, 5]), ("c", [6]), ("d", [7])]

    def test_no_batches(self):
        assert list(_by_name([])) == []


@pytest.mark.spark
class TestPerName:
    def test_one_call_per_name(self, spark, shuffle_partitions, arrow_batch_rows):
        """One name over many 3-row batches, 64 partitions for six names
        (most of them empty), and names ``fn`` drops: every other name gets
        one call with all its rows in (name, k) order."""
        rng = np.random.default_rng(2)
        rows = [("big", int(k)) for k in rng.permutation(40)]
        rows += [(f"n{i}'ñ", int(k)) for i in range(3) for k in rng.permutation(i + 1)]
        rows += [("skip", 1), ("skip", 0), ("skip2", 5)]
        pdf = pd.DataFrame(rows, columns=["name", "k"]).sample(frac=1, random_state=0)

        def fn(name, rows):
            if name.startswith("skip"):
                return None
            return {"ks": np.array([" ".join(map(str, rows["k"]))], object)}

        shuffle_partitions(64)
        arrow_batch_rows(3)
        df = spark.createDataFrame(pdf, "name string, k long")
        out = per_name(df, fn, "name string, ks string", "k").toPandas()
        want = {
            name: " ".join(map(str, sorted(grp.k)))
            for name, grp in pdf.groupby("name")
            if not name.startswith("skip")
        }
        assert len(out) == len(want)
        assert dict(zip(out.name, out.ks)) == want
