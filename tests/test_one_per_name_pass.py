"""One shuffle by name in the pipeline packages.

IUAD's per-name work (Stage I's partner components, the γ pairs, the
δ-merge) runs through ``graph.components.per_name``, the one place that
shuffles by name. Parses ``src/repro/{core,graph,text}`` and fails on a
``repartition`` call with a ``"name"`` argument (a string or
``col("name")``) anywhere else.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGES = ("core", "graph", "text")
HOME = Path("src/repro/graph/components.py")


def _is_name(arg: ast.expr) -> bool:
    """``"name"``, or a one-argument call such as ``F.col("name")``."""
    if isinstance(arg, ast.Constant):
        return arg.value == "name"
    return isinstance(arg, ast.Call) and len(arg.args) == 1 and _is_name(arg.args[0])


def name_repartitions(source: str) -> list[int]:
    """Lines of every ``.repartition(...)`` call with a ``"name"`` argument."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "repartition"
        and any(_is_name(a) for a in node.args)
    )


def test_checker_finds_each_call():
    src = (
        "df.repartition('name')\n"
        "df.repartition(8, F.col('name'))\n"
        "df.repartition('vertex_id')\n"
        "df.select('name').repartition(col('name'), 'year')\n"
        "repartition('name')\n"
        "df.repartition(F.col('names'))\n"
    )
    assert name_repartitions(src) == [1, 2, 4]


def test_only_per_name_shuffles_by_name():
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for pkg in PACKAGES
        for path in sorted((ROOT / "src" / "repro" / pkg).glob("*.py"))
        if path.relative_to(ROOT) != HOME
        for line in name_repartitions(path.read_text())
    ]
    assert not found, "shuffles by name outside per_name:\n" + "\n".join(found)
    assert len(name_repartitions((ROOT / HOME).read_text())) == 1
