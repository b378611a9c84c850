"""STS — stratified sampling baseline (§VIII-B).

Strata are the storage blocks; allocation is proportional (the same
rate per stratum), and the estimator combines per-stratum sample means
weighted by the known stratum sizes |B_j| — the textbook stratified
mean estimator.
"""
from __future__ import annotations

from collections.abc import Mapping

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def stratified_avg(
    df: DataFrame,
    value_col: str,
    block_col: str,
    rate: float,
    block_sizes: Mapping[object, int],
    *,
    seed: int = 0,
) -> float:
    """Stratified AVG estimate: Σ mean_j·|B_j| / Σ|B_j|."""
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    # Every stratum has the same rate, so one Bernoulli sample of the table
    # is the stratified sample; strata missing from ``block_sizes`` are
    # dropped on the driver.
    rows = (
        df.sample(fraction=min(1.0, rate), seed=seed)
        .groupBy(block_col)
        .agg(F.avg(F.col(value_col).cast("double")).alias("mean"))
        .collect()
    )
    means = {
        r[block_col]: float(r["mean"]) for r in rows if r[block_col] in block_sizes
    }
    if not means:
        raise ValueError("stratified sample was empty — rate too small")
    M = sum(block_sizes[b] for b in means)
    return sum(m * block_sizes[b] for b, m in means.items()) / M
