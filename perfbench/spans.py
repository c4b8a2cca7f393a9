"""Spans and a Spark job ledger around the IUAD layer entry points.

Tracing swaps the layer functions that ``repro.core.pipeline`` and
``repro.core.profiles`` look up at call time for wrappers defined here, so
every span is recorded from this package and nothing under ``src/``
changes. Each wrapped call runs under its own Spark job group; job, stage
and task counts come from ``SparkContext.statusTracker()`` once the run is
over. The entry points return lazy DataFrames, so each wrapper materialises
what it returns (``localCheckpoint(eager=True)``): the work is charged to
the layer that defines it, and what that costs shows as the traced run's
total minus an untraced run's ``run_s``.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import time

from pyspark.sql import DataFrame

#: (module, attribute) -> span name. The pipeline module's names are the
#: layers ``run_iuad`` calls; the profiles module's are its child steps.
LAYERS = {
    ("repro.core.pipeline", "build_scn"): "scn",
    ("repro.core.pipeline", "build_profiles"): "profiles",
    ("repro.core.profiles", "keywords"): "profiles.keywords",
    ("repro.core.profiles", "word_vectors"): "profiles.embeddings",
    ("repro.core.profiles", "wl_features"): "profiles.wl",
    ("repro.core.profiles", "vertex_triangles"): "profiles.triangles",
    ("repro.core.pipeline", "pair_similarities"): "similarity",
    ("repro.core.pipeline", "synthetic_matched_gammas"): "sampling",
    ("repro.core.pipeline", "fit_em"): "em",
    ("repro.core.pipeline", "build_gcn"): "gcn",
}

#: Result fields left lazy: ``run_iuad`` callers never read the GCN edges,
#: and the untraced clock stops without them.
_LAZY_FIELDS = {"gcn": ("edges",)}


@dataclasses.dataclass
class Span:
    name: str
    start: float
    parent: int | None
    group: str
    end: float = 0.0
    counts: dict = dataclasses.field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans, one Spark job group per span."""

    def __init__(self, sc) -> None:
        self.sc = sc
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        sp = Span(name=name, start=time.perf_counter(), parent=parent, group=f"{name}#{idx}")
        self.spans.append(sp)
        self._stack.append(idx)
        self.sc.setJobGroup(sp.group, name)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                outer = self.spans[self._stack[-1]]
                self.sc.setJobGroup(outer.group, outer.name)
            else:
                self.sc.setLocalProperty("spark.jobGroup.id", None)

    def first(self, name: str) -> Span:
        return next(s for s in self.spans if s.name == name)

    def children(self, idx: int) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.parent == idx]

    def self_seconds(self, name: str) -> float:
        idx = self.spans.index(self.first(name))
        return self.spans[idx].seconds - sum(self.spans[c].seconds for c in self.children(idx))

    def ledger(self) -> dict[str, dict]:
        """Per span name: inclusive Spark jobs, executed stages, tasks and
        failed tasks, summed over every span of that name."""
        _drain_listener_bus(self.sc)
        st = self.sc.statusTracker()
        own: list[tuple[set, set]] = []
        for s in self.spans:
            jobs = set(st.getJobIdsForGroup(s.group))
            stages = set()
            for j in jobs:
                info = st.getJobInfo(j)
                stages.update(info.stageIds if info else ())
            own.append((jobs, stages))

        def inclusive(i: int) -> tuple[set, set]:
            jobs, stages = set(own[i][0]), set(own[i][1])
            for c in self.children(i):
                cj, cs = inclusive(c)
                jobs |= cj
                stages |= cs
            return jobs, stages

        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            jobs, stages = inclusive(i)
            row = out.setdefault(s.name, {"jobs": 0, "stages": 0, "tasks": 0, "failed_tasks": 0})
            row["jobs"] += len(jobs)
            for sid in stages:
                info = st.getStageInfo(sid)
                if info is None or info.numCompletedTasks == 0:
                    continue  # skipped: its shuffle output was reused
                row["stages"] += 1
                row["tasks"] += info.numCompletedTasks
                row["failed_tasks"] += info.numFailedTasks
        return out

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "group": s.group, "counts": s.counts}
            for s in self.spans
        ]


def _drain_listener_bus(sc) -> None:
    """Job and stage records reach the status store through the listener
    bus; wait until it has delivered every event of the finished jobs."""
    sc._jsc.sc().listenerBus().waitUntilEmpty()


def materialise(obj, lazy: tuple[str, ...] = ()):
    """Run every DataFrame ``obj`` returns (a DataFrame or a dataclass of
    them) and hand back checkpointed copies, so later layers reuse them."""
    if isinstance(obj, DataFrame):
        return obj.localCheckpoint(eager=True)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        done = {
            f.name: getattr(obj, f.name).localCheckpoint(eager=True)
            for f in dataclasses.fields(obj)
            if isinstance(getattr(obj, f.name), DataFrame) and f.name not in lazy
        }
        return dataclasses.replace(obj, **done)
    return obj


def _observe(name: str, span: Span, args: tuple, result) -> None:
    """Counts only the call itself can see."""
    if name == "sampling":
        span.counts["rows"] = len(result)
    elif name == "em":
        span.counts["rows"] = len(args[0])
        span.counts["iters"] = result.n_iter


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as sp:
            result = materialise(fn(*args, **kwargs), _LAZY_FIELDS.get(name, ()))
            _observe(name, sp, args, result)
        return result

    return traced


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route the layer calls of ``run_iuad`` through ``tracer``."""
    saved = []
    try:
        for (mod_name, attr), span_name in LAYERS.items():
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, _wrap(tracer, span_name, fn))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)
