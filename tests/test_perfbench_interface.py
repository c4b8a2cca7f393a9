"""The names the benchmark takes from ``repro`` exist.

``perfbench/`` imports ``repro`` names at module level and inside
functions, and ``perfbench/spans.py`` swaps layer functions by (module,
attribute). A renamed or moved name would only show when the benchmark
runs, as an exit before any result is printed; here it fails the suite.
The benchmark's files are read, never changed.
"""
import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _repro_imports() -> list[tuple[str, str, str]]:
    """(file, module, name) for every ``from repro... import name`` in
    ``perfbench/*.py``, at any depth."""
    out = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                out += [(path.name, node.module, a.name) for a in node.names]
    return out


def _resolves(module: str, name: str) -> bool:
    """Whether ``from module import name`` would succeed."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # a submodule not imported yet
        return importlib.util.find_spec(f"{module}.{name}") is not None
    except ModuleNotFoundError:  # ``module`` is no package
        return False


def _callable(module: str, qualname: str):
    fn = importlib.import_module(module)
    for part in qualname.split("."):
        fn = getattr(fn, part)
    return fn


@pytest.mark.parametrize(
    "module, qualname, args",
    [
        ("repro.core.similarity", "pair_similarities", ("profiles", "stats")),
        ("repro.core.gammas", "gamma_vector", ("p", "q", "stats")),
        ("repro.core.profiles", "row_to_profile", ("row",)),
        ("repro.core.incremental", "IncrementalJudge.from_model", ("model",)),
        ("repro.core.incremental", "IncrementalJudge.judge", ("self", "paper", "name")),
        ("repro.core.incremental", "IncrementalJudge.assimilate", ("self", "paper", "name", "vid")),
        ("repro.eval.metrics", "confusion", ("labelled",)),
        ("repro.eval.metrics", "confusion_pandas", ("labelled",)),
    ],
)
def test_call_shapes(module, qualname, args):
    """The benchmark calls these positionally with these arguments and no
    others; the signature must still accept the call."""
    inspect.signature(_callable(module, qualname)).bind(*args)


@pytest.mark.parametrize(
    "qualname, args, kwargs",
    [
        ("fit_em", ("X",), {"seed": 0}),
        ("synthetic_matched_gammas", ("profiles", "stats"), {"n": 30, "seed": 0}),
    ],
)
def test_traced_call_shapes(qualname, args, kwargs):
    """``spans._observe`` reads ``args[0]`` of these traced layers, so
    ``run_iuad`` must still call them in this shape, the EM sample first and
    positional."""
    inspect.signature(_callable("repro.core.pipeline", qualname)).bind(*args, **kwargs)


def test_observed_results_have_their_fields():
    """``spans._observe`` reads ``len()`` of the sampling result and
    ``n_iter`` of the EM result."""
    from repro.core.em import EMParams
    from repro.core.gammas import CorpusStats
    from repro.core.pipeline import synthetic_matched_gammas

    assert EMParams(p=0.5, features={}, loglik=[1.0, 2.0]).n_iter == 2
    stats = CorpusStats(fb={}, fh={}, word_vectors={})
    assert len(synthetic_matched_gammas([], stats, n=30, seed=0)) == 0


@pytest.fixture(scope="module")
def spans():
    """``perfbench/spans.py`` loaded as a module, without writing bytecode
    next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[spec.name] = mod
    try:
        spec.loader.exec_module(mod)
        yield mod
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]


def test_every_repro_import_resolves():
    imports = _repro_imports()
    files = {f for f, _, _ in imports}
    assert {"checks.py", "run.py"} <= files, files
    missing = [f"{f}: from {m} import {n}" for f, m, n in imports if not _resolves(m, n)]
    assert not missing, "\n".join(missing)


def test_traced_layers_exist(spans):
    for mod_name, attr in spans.LAYERS:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), (mod_name, attr)


def test_patched_restores_the_layers(spans):
    originals = {k: getattr(importlib.import_module(k[0]), k[1]) for k in spans.LAYERS}
    current = lambda: {k: getattr(importlib.import_module(k[0]), k[1]) for k in spans.LAYERS}  # noqa: E731
    with spans.patched(spans.Tracer(sc=None)):
        swapped = current()
    assert all(swapped[k] is not fn for k, fn in originals.items())
    assert all(current()[k] is fn for k, fn in originals.items())
    with pytest.raises(RuntimeError), spans.patched(spans.Tracer(sc=None)):
        raise RuntimeError("a failing traced run")
    assert all(current()[k] is fn for k, fn in originals.items())
