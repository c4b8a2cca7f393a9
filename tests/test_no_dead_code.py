"""Every public function, class and constant of the pipeline packages has
a caller.

Parses ``src/repro/{core,graph,text}`` and looks for a reference to each
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
PACKAGES = ("core", "graph", "text")
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


def _definitions() -> dict[str, Path]:
    """Public top-level function/class/constant name -> defining file."""
    defs = {}
    for pkg in PACKAGES:
        for path in sorted((ROOT / "src" / "repro" / pkg).glob("*.py")):
            for node in _parse(path).body:
                for name in _defined_names(node):
                    if not name.startswith("_"):
                        defs[name] = path
    return defs


def _referenced_names(node: ast.AST, bare: set[str]) -> set[str]:
    """Attributes and imported names, plus the bare ``Name``s in ``bare``
    that are read."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id in bare:
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(a.name for a in sub.names)
    return out


def _references(defs: dict[str, Path]) -> set[str]:
    """Names referenced from caller files, skipping each definition's own
    body in its own file."""
    refs = set()
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            bare = {n for n, p in defs.items() if p == path}
            for node in _parse(path).body:
                own = {n for n in _defined_names(node) if defs.get(n) == path}
                refs |= _referenced_names(node, bare) - own
    return refs


def test_every_public_definition_is_referenced():
    defs = _definitions()
    refs = _references(defs)
    dead = sorted(
        f"{path.relative_to(ROOT)}: {name}" for name, path in defs.items() if name not in refs
    )
    assert not dead, "no caller under src/, jobs/, benchmarks/ or perfbench/:\n" + "\n".join(dead)
