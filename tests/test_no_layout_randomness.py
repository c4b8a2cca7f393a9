"""No random draw in the pipeline packages depends on the data layout.

``DataFrame.sample``, ``F.rand`` and ``F.randn`` draw per partition by row
position, so what they return changes with the shuffle-partition count and
the input row order, and so would the fitted model and the GCN. Draws over
Spark rows hash the row's own columns instead (``sampling.sample_pairs``).
Parses ``src/repro/{core,graph,text}`` and fails on any call to one of
these, by attribute (``df.sample``, ``F.rand``) or by an imported name.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGES = ("core", "graph", "text")
LAYOUT_DRAWS = {"sample", "sampleBy", "rand", "randn"}


def layout_draws(source: str) -> list[str]:
    """``line: name`` of every call to a layout-dependent draw."""
    tree = ast.parse(source)
    imported = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for a in node.names
        if a.name in LAYOUT_DRAWS
    }
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr in LAYOUT_DRAWS:
            out.append((node.lineno, f.attr))
        elif isinstance(f, ast.Name) and f.id in imported:
            out.append((node.lineno, f.id))
    return [f"{line}: {name}" for line, name in sorted(out)]


def test_checker_finds_each_draw():
    src = (
        "from pyspark.sql.functions import randn as rn\n"
        "df.sample(0.1, seed=1)\n"
        "df.where(F.rand(3) < 0.1)\n"
        "rn()\n"
        "df.sampleBy('name', {}, 0)\n"
        "rng.normal(0, 1)\n"
    )
    assert layout_draws(src) == ["2: sample", "3: rand", "4: rn", "5: sampleBy"]


def test_pipeline_packages_draw_by_hash_only():
    found = [
        f"{path.relative_to(ROOT)}:{hit}"
        for pkg in PACKAGES
        for path in sorted((ROOT / "src" / "repro" / pkg).glob("*.py"))
        for hit in layout_draws(path.read_text())
    ]
    assert not found, "layout-dependent draws:\n" + "\n".join(found)
