"""Measure one of the paper's Tables II–VI on a synthetic corpus and print
it beside the paper's numbers.

    spark-submit jobs/tables.py 3 --sf 0.1 --names 50
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import base_parser, get_spark  # noqa: E402

from repro.dblp.generator import generate  # noqa: E402
from repro.exp.paper_numbers import PAPER_FRAMES, side_by_side  # noqa: E402
from repro.exp.tables import measure_table  # noqa: E402


def parser() -> argparse.ArgumentParser:
    p = base_parser(__doc__)
    p.add_argument("table", type=int, choices=sorted(PAPER_FRAMES), help="paper table number")
    return p


def main() -> None:
    args = parser().parse_args()
    spark = None if args.table == 2 else get_spark(f"table{args.table}")
    corpus = generate(sf=args.sf, seed=args.seed)
    t = measure_table(
        args.table, spark, corpus,
        n_names=args.names, eta=args.eta, delta=args.delta,
    )
    print(side_by_side(args.table, t))
    if spark is not None:
        spark.stop()


if __name__ == "__main__":
    main()
