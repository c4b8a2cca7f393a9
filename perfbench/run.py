"""IUAD benchmark: a batch ``run_iuad`` followed by a closed-loop stream.

    python3 perfbench/run.py --workload hold20_sf0.01 --seed 1 --seconds 1 --trace 0

Every workload generates the EXPERIMENTS.md corpus,
``repro.dblp.generator.generate(sf, seed=7)``, and ``--seed`` draws the
papers held out of the batch and streamed. The corpus seed stays fixed
because at SF 0.01 MicroF and judgement cost swing with the corpus far
more than any regression bound allows. The program receives only generated
papers and runs with the EXPERIMENTS.md settings (η = 5, δ = 0, run seed 0,
10 % pair sample) on Spark ``local[4]`` with 16 shuffle partitions,
broadcast joins off and Arrow on, as ``jobs/_common.get_spark``.

* Set-up (``setup_s``): session start; the JVM warm-up, which is the first
  input build of the session; the median of ``SETUP_REPS`` further input
  builds (corpus generation, hold-out split, papers DataFrame and its first
  action); and ``IncrementalJudge.from_model`` on the fitted model.
* Batch (``run_s``): one ``run_iuad`` on the kept papers, clocked until
  ``gcn.assignments`` is materialised. It is the first pipeline run of a
  fresh JVM, so it includes the JIT and code generation a new session pays.
* Stream: one caller thread in this process feeds the held-out papers in
  (year, paper_id) order through ``judge`` then ``assimilate``, each verdict
  seeing the previous assimilation, with no Spark job in flight. Passes
  repeat from the same model state for ``--seconds`` (at least one) and
  must agree. Its latency and rate are per-layer metrics: a pass lasts a
  few seconds, and over a few seconds the speed of a single Python thread
  on a shared host swings by more than any regression bound.
* ``micro_f``: MicroF on the 50 testing names of the final clustering (GCN
  plus streamed papers), outside every clock.

Output checks run outside the clocks (``checks.py``); a failed check makes
``correct`` false, counts in ``failed`` and exits with status 1. With
``--trace 1`` the pipeline runs with every layer wrapped (``spans.py``) and
the per-layer metrics are printed instead; spans go to ``.bench_work/``.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import os
import resource
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_S_LOG = WORK / "run_s.json"

MASTER = "local[4]"
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = 16
ETA, DELTA, RUN_SEED, SAMPLE_FRAC, N_NAMES = 5, 0.0, 0, 0.10, 50
CORPUS_SEED = 7
SETUP_REPS = 2
#: EXPERIMENTS.md Table IV GCN MicroF of the full SF 0.1 corpus.
TABLE4 = {"sf": 0.1, "micro_f": 0.8325}


@dataclasses.dataclass(frozen=True)
class Workload:
    sf: float
    holdout: float  # share of papers streamed instead of batch-processed
    why: str


WORKLOADS = {
    "hold20_sf0.01": Workload(
        0.01, 0.20,
        "batch on 1 600 papers, nearly all Spark job overhead; a stream of ~1 500 "
        "judgements a pass against a mostly complete model (Table VI protocol)",
    ),
    "hold50_sf0.01": Workload(
        0.01, 0.50,
        "half the papers streamed: a smaller batch, and a write-heavy stream that "
        "creates many vertices and grows candidate lists as it runs",
    ),
    # Not in BENCHMARK.json: one run takes over two minutes. It checks that
    # the pipeline reproduces the EXPERIMENTS.md Table IV MicroF.
    "batch_sf0.1": Workload(
        0.1, 0.0,
        "reference: the full SF 0.1 corpus, data-heavy batch with no stream",
    ),
}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "micro_f": "ratio", "driver_rss_peak_mb": "MB"}


def configure_environment() -> None:
    """Point Spark, its Python workers and temp files at this checkout.
    Must run before pyspark is imported."""
    for d in ("tmp", "spark-local", "warehouse"):
        (WORK / d).mkdir(parents=True, exist_ok=True)
    tmp = str(WORK / "tmp")
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    # Every JVM (Spark launcher and driver): temp files in the checkout,
    # and no hsperfdata files, which HotSpot writes to /tmp regardless.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {MASTER} --driver-memory {DRIVER_MEMORY}",
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "--conf " + shlex.quote(f"spark.sql.warehouse.dir={WORK / 'warehouse'}"),
            "pyspark-shell",
        ]
    )
    sys.path.insert(0, str(SRC))


def start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the gateway JVM to exit; the JVM ends
    its Python workers."""
    proc = getattr(spark.sparkContext._gateway, "proc", None)
    spark.stop()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


@dataclasses.dataclass
class Inputs:
    corpus: object  # repro.dblp.generator.Corpus
    base: object  # pandas papers given to run_iuad
    held: object  # pandas papers streamed, in (year, paper_id) order
    df: object  # Spark DataFrame of ``base``


def build_inputs(spark, wl: Workload, seed: int) -> Inputs:
    import numpy as np

    from repro.dblp.generator import PAPER_SCHEMA, generate

    corpus = generate(sf=wl.sf, seed=CORPUS_SEED)
    papers = corpus.papers
    rng = np.random.default_rng(seed)
    n_held = int(round(wl.holdout * len(papers)))
    held_ids = rng.choice(papers.paper_id.to_numpy(), size=n_held, replace=False)
    mask = papers.paper_id.isin(held_ids)
    base = papers[~mask].reset_index(drop=True)
    held = papers[mask].sort_values(["year", "paper_id"]).reset_index(drop=True)
    df = spark.createDataFrame(base, schema=PAPER_SCHEMA)
    df.count()
    return Inputs(corpus=corpus, base=base, held=held, df=df)


def run_batch(spark, df):
    from repro.core.pipeline import run_iuad

    model = run_iuad(
        spark, df, eta=ETA, delta=DELTA, seed=RUN_SEED, sample_frac=SAMPLE_FRAC
    )
    model.gcn.assignments.count()
    return model


@dataclasses.dataclass
class StreamPass:
    latency_s: list
    judge_s: float
    assimilate_s: float
    wall_s: float
    candidates: list
    assigned: int
    finals: list  # final vertex per occurrence, None where the call raised


def held_occurrences(held) -> list[tuple[dict, str]]:
    """(paper, name) for every slot of every streamed paper, in order."""
    return [
        ({"paper_id": r.paper_id, "names": r.names, "title": r.title,
          "venue": r.venue, "year": r.year}, name)
        for r in held.itertuples(index=False)
        for name in r.names
    ]


def stream_pass(judge, occurrences) -> StreamPass:
    """Judge then assimilate every held-out occurrence, one at a time."""
    clock = time.perf_counter
    lat, cands, finals = [], [], []
    judge_s = assim_s = 0.0
    assigned = 0
    start = clock()
    for paper, name in occurrences:
        cands.append(len(judge.by_name.get(name, ())))
        t0 = clock()
        try:
            vid, _ = judge.judge(paper, name)
            t1 = clock()
            final = judge.assimilate(paper, name, vid)
        except Exception as exc:  # a failed judgement is counted, not fatal
            print(f"judgement failed for {paper['paper_id']}/{name}: {exc!r}", file=sys.stderr)
            finals.append(None)
            continue
        t2 = clock()
        lat.append(t2 - t0)
        judge_s += t1 - t0
        assim_s += t2 - t1
        assigned += vid is not None
        finals.append(final)
    return StreamPass(lat, judge_s, assim_s, clock() - start, cands, assigned, finals)


def run_stream(judge, occurrences, seconds: int) -> list[StreamPass]:
    """Passes over the stream, each from the judge's starting state, until
    ``seconds`` have passed (at least one)."""
    start = {k: list(v) for k, v in judge.by_name.items()}
    passes: list[StreamPass] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        judge.by_name = {k: list(v) for k, v in start.items()}
        gc.collect()
        gc.freeze()  # collections in the pass scan only what it allocates
        passes.append(stream_pass(judge, occurrences))
    gc.unfreeze()
    return passes


def stream_failures(judge, occurrences, passes: list[StreamPass]) -> int:
    """Failed judgements: each held-out occurrence must end in exactly one
    live vertex of its own name, the same in every pass."""
    live = {name: {v.vertex_id for v in vs} for name, vs in judge.by_name.items()}
    failed = 0
    for p in passes:
        for (_, name), final, ref in zip(occurrences, p.finals, passes[0].finals):
            ok = final is not None and final == ref
            if p is passes[-1]:
                ok = ok and final in live.get(name, ())
            failed += not ok
    return failed


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text()) if path.is_file() else {}


def record_run_s(key: str, run_s: float) -> None:
    log = _read_json(RUN_S_LOG)
    log.setdefault(key, []).append(run_s)
    RUN_S_LOG.write_text(json.dumps(log, indent=1, sort_keys=True))


def reference_run_s(workload: str, seed: int, code: str) -> float:
    """Untraced ``run_s`` for ``trace.overhead_s``: the median of the
    untraced runs of this workload and code that this checkout recorded
    (``run_s`` barely depends on the hold-out seed), else one measured now
    in a fresh process. Either way the reference, like the traced run,
    starts from a cold JVM."""
    key = f"{workload}:{code}"
    if key not in _read_json(RUN_S_LOG):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", "0"]
        subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=170, check=True)
    return statistics.median(_read_json(RUN_S_LOG)[key])


def coauthor_pairs(papers) -> int:
    """Distinct unordered name pairs that share at least one paper."""
    pairs = set()
    for names in papers.names:
        s = sorted(names)
        pairs.update((a, b) for i, a in enumerate(s) for b in s[i + 1:])
    return len(pairs)


@dataclasses.dataclass
class Verdict:
    errors: list
    micro_f: float
    gcn: object  # pandas GCN assignments
    pairs: object  # pandas γ pairs with scores
    largest: str  # the name with the most vertices


def verify(spark, wl: Workload, seed: int, key: str, model, inputs: Inputs, occurrences,
           passes) -> Verdict:
    """Every batch output check; MicroF of the final clustering."""
    import pandas as pd

    import checks
    from repro.dblp.testing import testing_set

    errors: list[str] = []
    asg = model.gcn.assignments.select("paper_id", "name", "vertex_id", "gcn_vertex").toPandas()
    errors += checks.covers_once(asg, inputs.base, "gcn")
    pairs = model.pairs.toPandas()
    gamma_errs, largest = checks.gamma_check(model, pairs, seed)
    errors += gamma_errs
    clusters = asg[["paper_id", "name", "gcn_vertex"]].rename(columns={"gcn_vertex": "cluster"})
    if passes:
        streamed = pd.DataFrame(
            [(p["paper_id"], n, f) for (p, n), f in zip(occurrences, passes[0].finals)],
            columns=["paper_id", "name", "cluster"],
        )
        clusters = pd.concat([clusters, streamed])
    names = testing_set(inputs.corpus.papers, n_names=N_NAMES).name.tolist()
    conf_errs, conf = checks.confusion_check(
        spark, checks.labelled(clusters, inputs.corpus.papers, names)
    )
    errors += conf_errs
    if wl.sf == TABLE4["sf"] and wl.holdout == 0 and abs(conf.micro_f - TABLE4["micro_f"]) >= 5e-5:
        errors.append(f"micro_f {conf.micro_f:.4f} != Table IV {TABLE4['micro_f']}")
    errors += checks.determinism_check(
        WORK / "determinism.json", key,
        {"micro_f": conf.micro_f, "gcn_vertices": int(asg.gcn_vertex.nunique()),
         "gcn_partition": checks.partition_hash(asg, "gcn_vertex")},
    )
    return Verdict(errors, conf.micro_f, asg, pairs, largest)


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import checks
    from repro.core.incremental import IncrementalJudge
    from spans import Tracer, patched

    wl = WORKLOADS[workload]
    code = checks.source_hash(SRC)
    ref_run_s = reference_run_s(workload, seed, code) if trace else None

    clock = time.perf_counter
    t0 = clock()
    spark = start_spark()
    try:
        session_s = clock() - t0
        input_s = []
        for _ in range(SETUP_REPS + 1):
            t0 = clock()
            inputs = build_inputs(spark, wl, seed)
            input_s.append(clock() - t0)
        warmup_s, input_s = input_s[0], input_s[1:]

        spark.catalog.clearCache()
        gc.collect()
        tracer = Tracer(spark.sparkContext)
        span = tracer.span if trace else lambda name: contextlib.nullcontext()
        t0 = clock()
        with patched(tracer) if trace else contextlib.nullcontext(), span("pipeline"):
            model = run_batch(spark, inputs.df)
        run_s = clock() - t0
        if not trace:
            record_run_s(f"{workload}:{code}", run_s)

        occurrences = held_occurrences(inputs.held)
        judge, passes, from_model_s, busy = None, [], 0.0, []
        if occurrences:
            t0 = clock()
            with span("incremental.from_model"):
                judge = IncrementalJudge.from_model(model)
            from_model_s = clock() - t0
            busy = spark.sparkContext.statusTracker().getActiveJobsIds()
            passes = run_stream(judge, occurrences, seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        t0 = clock()
        v = verify(spark, wl, seed, f"{workload}:{seed}:{code}", model, inputs, occurrences,
                   passes)
        if busy:
            v.errors.append(f"Spark jobs {list(busy)} in flight during the stream")
        judge_failed = stream_failures(judge, occurrences, passes) if passes else 0
        for e in v.errors:
            print(f"CHECK FAILED: {e}", file=sys.stderr)
        checks_s = clock() - t0

        env = {
            "workload": workload, "seed": seed, "why": wl.why, "nproc": os.cpu_count(),
            "master": MASTER, "driver_memory": DRIVER_MEMORY,
            "spark_version": spark.version, "shuffle_partitions": SHUFFLE_PARTITIONS,
            "papers_batch": len(inputs.base), "papers_streamed": len(inputs.held),
            "stream_passes": len(passes), "latency_samples": [len(p.latency_s) for p in passes],
            "session_s": session_s, "warmup_s": warmup_s, "input_s": input_s,
            "from_model_s": from_model_s, "checks_s": checks_s,
        }
        print("# env " + json.dumps(env))

        if trace:
            metrics = layer_metrics(tracer, model, inputs, v, passes, from_model_s, ref_run_s)
            (WORK / f"trace_{workload}_{seed}.json").write_text(
                json.dumps({"env": env, "spans": tracer.to_json()}, indent=1)
            )
        else:
            metrics = {
                "setup_s": session_s + warmup_s + statistics.median(input_s) + from_model_s,
                "run_s": run_s,
                "micro_f": v.micro_f,
                "driver_rss_peak_mb": rss_mb,
            }
            metrics = {k: {"value": x, "unit": END_TO_END_UNITS[k]} for k, x in metrics.items()}
        failed = (1 if v.errors else 0) + judge_failed
        return {
            "correct": failed == 0,
            "attempted": 1 + sum(len(p.finals) for p in passes),
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        stop_spark(spark)


def layer_metrics(tracer, model, inputs: Inputs, v: Verdict, passes, from_model_s: float,
                  ref_run_s: float) -> dict:
    """Per-layer metrics of a traced run (see README.md for what each moves)."""
    import numpy as np
    from pyspark.sql import functions as F

    from repro.core.gammas import GAMMA_NAMES
    from repro.core.similarity import pair_similarities

    pairs, asg = v.pairs, v.gcn
    led = tracer.ledger()
    sec = lambda n: tracer.first(n).seconds  # noqa: E731
    m: dict[str, tuple[float, str]] = {}
    for layer in ("scn", "profiles", "similarity", "gcn"):
        m[f"{layer}.s"] = (sec(layer), "s")
        m[f"{layer}.jobs"] = (led[layer]["jobs"], "count")
        m[f"{layer}.tasks"] = (led[layer]["tasks"], "count")

    n_scrs = model.scn.scrs.count()
    stable = model.scn.assignments.agg(F.avg(F.col("stable").cast("double"))).first()[0]
    m["scn.scrs"] = (n_scrs, "count")
    m["scn.scr_yield"] = (n_scrs / max(1, coauthor_pairs(inputs.base)), "ratio")
    m["scn.vertices"] = (int(asg.vertex_id.nunique()), "count")
    m["scn.stable_share"] = (float(stable), "ratio")

    m["profiles.self_s"] = (tracer.self_seconds("profiles"), "s")
    m["profiles.rows"] = (model.profiles.profiles.count(), "count")
    for child in ("keywords", "embeddings", "wl", "triangles"):
        m[f"profiles.{child}.s"] = (sec(f"profiles.{child}"), "s")

    prof = model.profiles.profiles
    k = prof.groupBy("name").count().agg(F.max("count")).first()[0]
    t0 = time.perf_counter()
    pair_similarities(prof.where(prof.name == v.largest), model.profiles.stats).collect()
    m["similarity.largest_name_s"] = (time.perf_counter() - t0, "s")
    m["similarity.pairs"] = (len(pairs), "count")
    m["similarity.k_max"] = (int(k), "count")
    m["similarity.us_per_pair"] = (sec("similarity") * 1e6 / max(1, len(pairs)), "us")
    for g in GAMMA_NAMES:
        m[f"similarity.nonzero.{g}"] = (float((pairs[g] != 0).mean()), "ratio")

    sampling, em = tracer.first("sampling"), tracer.first("em")
    m["sampling.s"] = (sampling.seconds, "s")
    m["sampling.sample_rows"] = (em.counts["rows"] - sampling.counts["rows"], "count")
    m["sampling.synth_rows"] = (sampling.counts["rows"], "count")
    m["em.s"] = (em.seconds, "s")
    m["em.iters"] = (em.counts["iters"], "count")
    m["pipeline.self_s"] = (tracer.self_seconds("pipeline"), "s")

    merged = int((pairs.score >= DELTA).sum())
    m["gcn.merged_pairs"] = (merged, "count")
    m["gcn.merge_yield"] = (merged / max(1, len(pairs)), "ratio")
    m["gcn.vertices"] = (int(asg.gcn_vertex.nunique()), "count")

    if passes:
        cands = np.array([c for p in passes for c in p.candidates])
        n = sum(len(p.finals) for p in passes)
        m["incremental.from_model_s"] = (from_model_s, "s")
        for q in (50, 99):
            m[f"incremental.p{q}_ms"] = (statistics.median(
                float(np.percentile(p.latency_s, q)) * 1000 for p in passes), "ms")
        m["incremental.judges_per_s"] = (
            statistics.median(len(p.finals) / p.wall_s for p in passes), "1/s")
        m["incremental.judge_s"] = (statistics.median(p.judge_s for p in passes), "s")
        m["incremental.assimilate_s"] = (statistics.median(p.assimilate_s for p in passes), "s")
        m["incremental.judges"] = (len(passes[0].finals), "count")
        m["incremental.candidates_mean"] = (float(cands.mean()), "count")
        m["incremental.candidates_max"] = (int(cands.max()), "count")
        m["incremental.assign_share"] = (sum(p.assigned for p in passes) / n, "ratio")
        m["incremental.new_name_share"] = (float((cands == 0).mean()), "ratio")

    whole = led["pipeline"]
    m["spark.jobs"] = (whole["jobs"], "count")
    m["spark.stages"] = (whole["stages"], "count")
    m["spark.tasks"] = (whole["tasks"], "count")
    m["spark.failed_tasks"] = (whole["failed_tasks"], "count")
    m["trace.overhead_s"] = (tracer.first("pipeline").seconds - ref_run_s, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=1, help="length of the stream phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "core" / "pipeline.py").is_file():
        print(f"no IUAD sources under {SRC}", file=sys.stderr)
        return 2
    configure_environment()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
