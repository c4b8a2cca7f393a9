"""Shared spark-submit plumbing for the job entrypoints."""
import argparse
import os

from pyspark.sql import SparkSession

from repro.core.pipeline import DELTA, ETA


def get_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "16"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def base_parser(desc: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=desc)
    p.add_argument("--sf", type=float, default=0.1, help="corpus scale factor")
    p.add_argument("--seed", type=int, default=7, help="corpus seed")
    p.add_argument("--eta", type=int, default=ETA, help="η-SCR support threshold")
    p.add_argument("--delta", type=float, default=DELTA, help="decision threshold δ")
    p.add_argument("--names", type=int, default=50, help="testing-set size")
    return p
