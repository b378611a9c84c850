"""Run evaluation experiments, print their tables and save their results.

Usage::

    python -m repro.experiments <name>... | all [--small]
    spark-submit src/repro/experiments/__main__.py <name>... | all [--small]

``--small`` shrinks n for a quick smoke run. The shuffle partition
count comes from ``SPARK_SHUFFLE_PARTITIONS`` (default 64).
"""
from __future__ import annotations

import argparse
import os

from pyspark.sql import SparkSession

from repro.experiments import EXPERIMENTS
from repro.experiments.runner import save


def session() -> SparkSession:
    """A standalone session (tests and benchmarks use conftest's)."""
    return (
        SparkSession.builder.appName("repro.experiments")
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "names", nargs="+", metavar="name", choices=[*EXPERIMENTS, "all"],
        help=f"one or more of {', '.join(EXPERIMENTS)}, or all",
    )
    parser.add_argument(
        "--small", action="store_true", help="shrink n for a quick smoke run"
    )
    args = parser.parse_args(argv)
    names = list(EXPERIMENTS) if "all" in args.names else args.names

    spark = session()
    for name in names:
        exp = EXPERIMENTS[name]
        res = exp.run(spark, **(exp.small if args.small else {}))
        path = save(name, res)
        print(f"\n== {name} ==")
        print(exp.table(res))
        print(f"[saved to {path}]")


if __name__ == "__main__":
    main()
