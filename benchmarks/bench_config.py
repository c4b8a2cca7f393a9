"""Shared benchmark configuration and helpers (importable module — the
conftest name itself collides with the root conftest)."""
import os

from repro.core.pipeline import DELTA, ETA  # noqa: F401  (re-exported)

BENCH_SF = float(os.environ.get("REPRO_BENCH_SF", "0.1"))
BENCH_SEED = 7
N_NAMES = 50


def run_once(benchmark, fn):
    """Run an end-to-end harness exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def save_result(name: str, text: str) -> None:
    """Persist a measured table under benchmarks/results/ — pytest captures
    stdout, so the printed tables would otherwise only live in -s runs."""
    out = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"{name}.txt"), "w") as f:
        f.write(text + "\n")
