"""No Spark case-mapping function in the pipeline packages.

Spark's ``lower``, ``upper``, ``initcap``, ``lcase`` and ``ucase`` build
ICU's case-mapping tables on their first call in a JVM: 1.4–1.7 s on a
4-core host, against about 0.1 s for the next call, and a cold
``run_iuad`` would pay that once. The pipeline lower-cases titles in
Python (``keywords.title_tokens``). Parses ``src/repro/{core,graph,text}``
and fails on a call to one of these from ``pyspark.sql.functions``, by
module attribute (``F.lower``) or by an imported name.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGES = ("core", "graph", "text")
CASE_MAPPING = {"lower", "upper", "initcap", "lcase", "ucase"}
MODULE = "pyspark.sql.functions"


def case_mapping_calls(source: str) -> list[str]:
    """``line: name`` of every call to a Spark case-mapping function."""
    tree = ast.parse(source)
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.name == MODULE and a.asname}
        elif isinstance(node, ast.ImportFrom) and node.module == "pyspark.sql":
            modules |= {a.asname or a.name for a in node.names if a.name == "functions"}
        elif isinstance(node, ast.ImportFrom) and node.module == MODULE:
            functions |= {a.asname or a.name for a in node.names if a.name in CASE_MAPPING}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (
            isinstance(f, ast.Attribute)
            and f.attr in CASE_MAPPING
            and isinstance(f.value, ast.Name)
            and f.value.id in modules
        ):
            out.append((node.lineno, f.attr))
        elif isinstance(f, ast.Name) and f.id in functions:
            out.append((node.lineno, f.id))
    return [f"{line}: {name}" for line, name in sorted(out)]


def test_checker_finds_each_call():
    src = (
        "from pyspark.sql import functions as F\n"
        "import pyspark.sql.functions as G\n"
        "from pyspark.sql.functions import upper as up, col\n"
        "F.lower(c)\n"
        "G.initcap(c)\n"
        "up(c)\n"
        "title.lower()\n"
        "F.lcase(c); F.ucase(c)\n"
        "col('x')\n"
    )
    assert case_mapping_calls(src) == ["4: lower", "5: initcap", "6: up", "8: lcase", "8: ucase"]


def test_pipeline_packages_never_case_map_in_spark():
    found = [
        f"{path.relative_to(ROOT)}:{hit}"
        for pkg in PACKAGES
        for path in sorted((ROOT / "src" / "repro" / pkg).glob("*.py"))
        for hit in case_mapping_calls(path.read_text())
    ]
    assert not found, "Spark case-mapping calls:\n" + "\n".join(found)
