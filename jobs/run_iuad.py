"""Run the full IUAD pipeline on a synthetic corpus and print a summary.

    spark-submit jobs/run_iuad.py --sf 0.1 --eta 5 --delta 0
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import base_parser, get_spark  # noqa: E402

from repro.core.pipeline import run_iuad  # noqa: E402
from repro.dblp.generator import generate  # noqa: E402


def main() -> None:
    args = base_parser(__doc__).parse_args()
    spark = get_spark("iuad")
    corpus = generate(sf=args.sf, seed=args.seed)
    model = run_iuad(
        spark, corpus.to_spark(spark), eta=args.eta, delta=args.delta, seed=0
    )
    n_scrs = model.scn.scrs.count()
    n_vertices = model.scn.assignments.select("vertex_id").distinct().count()
    n_gcn = model.gcn.assignments.select("gcn_vertex").distinct().count()
    print(f"papers={len(corpus.papers)} scrs={n_scrs}")
    print(f"SCN vertices={n_vertices}  GCN vertices={n_gcn}")
    print(f"EM: p={model.params.p:.4f} iters={model.params.n_iter}")
    for f, fp in model.params.features.items():
        print(f"  {f:14s} {fp.dist:11s} M={fp.matched} U={fp.unmatched}")
    spark.stop()


if __name__ == "__main__":
    main()
