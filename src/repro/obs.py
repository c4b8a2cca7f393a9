"""Spark job accounting: how many jobs a block of driver code fires."""
from __future__ import annotations

import contextlib
import dataclasses
import uuid


@dataclasses.dataclass
class JobCount:
    """Filled in when the ``spark_jobs`` block exits."""

    jobs: int = 0


@contextlib.contextmanager
def spark_jobs(sc):
    """Run the block under a fresh Spark job group and count its jobs.

    Under AQE every shuffle stage is submitted as its own job, so this is
    also the number of stages the block ran (skipped stages aside)::

        with spark_jobs(spark.sparkContext) as jc:
            run_iuad(spark, papers).gcn.assignments.count()
        print(jc.jobs)
    """
    group = f"repro.spark_jobs.{uuid.uuid4().hex}"
    outer = sc.getLocalProperty("spark.jobGroup.id")
    counted = JobCount()
    sc.setJobGroup(group, group)
    try:
        yield counted
    finally:
        sc.setLocalProperty("spark.jobGroup.id", outer)
        # Job records reach the status store through the listener bus.
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        counted.jobs = len(sc.statusTracker().getJobIdsForGroup(group))
