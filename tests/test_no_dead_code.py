"""Every public function, class and constant of the pipeline packages has
a caller.

Parses every package under ``src/repro`` and looks for a reference to each
public top-level function, class or constant (a module-level name bound by
an assignment) anywhere under ``src/``, ``jobs/``,
``benchmarks/`` or ``perfbench/``, outside its own definition. An
``Attribute`` or an import counts anywhere; a bare ``Name`` counts only in
the defining module (any other file that uses the name imports it, and the
import counts), and only where it is read, so a local variable that happens
to share a function's name is not a caller. Tests do not count
as callers: code that only tests reach is dead. Matching is on the syntax
tree, so a name mentioned in a docstring or comment is not a reference.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGES = sorted(
    p.name for p in (ROOT / "src" / "repro").iterdir() if (p / "__init__.py").exists()
)
CALLER_DIRS = ("src", "jobs", "benchmarks", "perfbench")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _defined_names(node: ast.stmt) -> list[str]:
    """Names a top-level statement defines: a function or class, or the
    plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _definitions() -> set[tuple[str, Path]]:
    """Public top-level function/class/constant (name, defining file)
    pairs; two modules may define the same name."""
    defs = set()
    for pkg in PACKAGES:
        for path in sorted((ROOT / "src" / "repro" / pkg).glob("*.py")):
            for node in _parse(path).body:
                for name in _defined_names(node):
                    if not name.startswith("_"):
                        defs.add((name, path))
    return defs


def _referenced_names(
    node: ast.AST, path: Path, bare: set[str]
) -> set[tuple[str, Path | None]]:
    """Attributes and imported names as (name, None), which may refer to
    any module's definition, plus the bare ``Name``s in ``bare`` that are
    read, as (name, path)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id in bare:
            out.add((sub.id, path))
        elif isinstance(sub, ast.Attribute):
            out.add((sub.attr, None))
        elif isinstance(sub, ast.ImportFrom):
            out.update((a.name, None) for a in sub.names)
    return out


def _references(defs: set[tuple[str, Path]]) -> set[tuple[str, Path | None]]:
    """References from caller files, skipping each definition's own body
    in its own file."""
    refs = set()
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            bare = {n for n, p in defs if p == path}
            for node in _parse(path).body:
                own = {n for n in _defined_names(node) if n in bare}
                refs |= {r for r in _referenced_names(node, path, bare) if r[0] not in own}
    return refs


def test_every_public_definition_is_referenced():
    defs = _definitions()
    refs = _references(defs)
    dead = sorted(
        f"{path.relative_to(ROOT)}: {name}"
        for name, path in defs
        if (name, None) not in refs and (name, path) not in refs
    )
    assert not dead, "no caller under src/, jobs/, benchmarks/ or perfbench/:\n" + "\n".join(dead)
