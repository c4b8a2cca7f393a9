"""Dev smoke: run IUAD end-to-end on a small corpus and print stage metrics.

    python scripts/smoke_pipeline.py [sf] [eta] [delta]

η and δ default to ``repro.core.pipeline.ETA`` / ``DELTA``. The first line
is ``run_iuad``'s wall time and Spark job count, both including
materialising the GCN assignments; the EM line prints the log-likelihood
of each iteration.
"""
import os
import sys
import time

os.environ.setdefault("SPARK_SHUFFLE_PARTITIONS", "8")
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    "--master local[*] --driver-memory 8g --conf spark.driver.host=127.0.0.1 "
    "--conf spark.ui.enabled=false pyspark-shell",
)
from pyspark.sql import SparkSession  # noqa: E402

from repro.core.pipeline import DELTA, ETA, run_iuad, scn_only_assignments  # noqa: E402
from repro.dblp.generator import generate  # noqa: E402
from repro.dblp.testing import testing_occurrences, testing_set  # noqa: E402
from repro.eval.metrics import confusion  # noqa: E402
from repro.obs import spark_jobs  # noqa: E402


def main() -> None:
    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 0.01
    eta = int(sys.argv[2]) if len(sys.argv) > 2 else ETA
    delta = float(sys.argv[3]) if len(sys.argv) > 3 else DELTA
    spark = (
        SparkSession.builder.appName("smoke")
        .config("spark.sql.shuffle.partitions", os.environ["SPARK_SHUFFLE_PARTITIONS"])
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    c = generate(sf=sf, seed=7)
    papers = c.to_spark(spark).cache()
    t0 = time.time()
    with spark_jobs(spark.sparkContext) as jc:
        model = run_iuad(spark, papers, eta=eta, delta=delta, seed=0)
        model.gcn.assignments.count()
    print("pipeline t", round(time.time() - t0, 1), "jobs", jc.jobs, flush=True)
    print("EM p:", round(model.params.p, 4), "iters", model.params.n_iter,
          "loglik", [round(ll, 2) for ll in model.params.loglik])
    for f, fp in model.params.features.items():
        print(
            " ", f, fp.dist,
            "M:", {k: round(v, 3) for k, v in fp.matched.items()},
            "U:", {k: round(v, 3) for k, v in fp.unmatched.items()},
        )
    ts = testing_set(c.papers)
    occ = testing_occurrences(c.papers, ts.name)
    truth = spark.createDataFrame(occ)
    lab = scn_only_assignments(model).join(truth, ["paper_id", "name"])
    m = confusion(lab)
    print("SCN", {k: round(v, 4) for k, v in m.as_row().items()}, (m.tp, m.fp, m.fn, m.tn), flush=True)

    from repro.core.gcn import build_gcn

    for d in [0.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0]:
        g = build_gcn(model.scn.assignments, model.pairs, delta=d)
        asg = g.assignments.select(
            "paper_id", "name", g.assignments.gcn_vertex.alias("cluster")
        )
        m = confusion(asg.join(truth, ["paper_id", "name"]))
        print(f"GCN d={d}", {k: round(v, 4) for k, v in m.as_row().items()},
              (m.tp, m.fp, m.fn, m.tn), flush=True)
    print("total t", round(time.time() - t0, 1))
    spark.stop()


if __name__ == "__main__":
    main()
