"""The benchmark's workloads: what data each generates and how it queries it.

Every workload is one cached table ``(block int, v double)`` plus the ISLA
call that answers ``AVG(v)`` on it. Inputs derive only from the run's
``--seed``: the table from the seed itself, the query sampling seeds from
``query_seed(seed, i)``. See README.md for why each workload exists.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.synth_data import blocked_normal, tlc_like


@dataclass(frozen=True)
class Workload:
    name: str
    M: int
    b: int
    e: float
    non_iid: bool
    metadata: bool  # pass |B_j| to isla_avg (else it runs a count job)
    generate: Callable[[SparkSession, int, int, int], DataFrame]

    def block_sizes(self) -> dict | None:
        """|B_j| of the ``id % b`` block ids every generator assigns: ⌈(M − j)/b⌉."""
        if not self.metadata:
            return None
        return {j: (self.M - j + self.b - 1) // self.b for j in range(self.b)}


def _mix(seed: int) -> int:
    """Spread a small seed over the RNG seed space.

    Keeps the ``randn`` seed far from the small sampling seeds of
    ``query_seed``: Spark's ``sample(seed=s)`` and ``rand(seed=s)`` share
    per-partition seeding, so equal seeds would sample exactly the rows
    with the smallest generated values. The repo's generators mix their
    seed the same way.
    """
    return (seed * 2_654_435_761 + 1_013_904_223) % (2**31 - 1)


def hashed_block_normal(spark: SparkSession, n: int, b: int, seed: int) -> DataFrame:
    """Per-block N(μ_j, σ_j²), μ_j ∈ [50, 150), σ_j ∈ [5, 15) from a hash of j.

    One Spark expression over ``spark.range``: unlike a union of one
    generator per block, its plan does not grow with b.
    """
    block = (F.col("id") % b).cast("int")
    h = F.xxhash64(block, F.lit(seed))
    mu = F.lit(50.0) + F.pmod(h, F.lit(1000)).cast("double") / 10.0
    sigma = F.lit(5.0) + F.pmod(F.shiftright(h, 10), F.lit(1000)).cast("double") / 100.0
    return spark.range(n).select(
        block.alias("block"), (mu + sigma * F.randn(_mix(seed))).alias("v")
    )


WORKLOADS = {
    w.name: w
    for w in (
        # Scan-bound: three full Bernoulli scans of a 10^7-row cached table
        # at a rate of ~0.016; no block-size scan, little driver work.
        Workload(
            "iid-scan", M=10_000_000, b=100, e=0.1, non_iid=False, metadata=True,
            generate=lambda spark, n, b, seed: blocked_normal(
                spark, n=n, b=b, mu=100.0, sigma=20.0, seed=seed
            ),
        ),
        # Fixed-cost-bound: four small scans, a 1000-row bounds-table join,
        # 1000 modulate_block calls and blev fractions.
        Workload(
            "noniid-blocks", M=1_000_000, b=1000, e=0.5, non_iid=True, metadata=False,
            generate=lambda spark, n, b, seed: hashed_block_normal(
                spark, n, b, seed
            ),
        ),
        # Heavy right tail: a high Eq. (1) rate pushes a large share of rows
        # through region tagging; the only clustered (non-normal) data.
        Workload(
            "skew-compare", M=4_000_000, b=10, e=6.0, non_iid=False, metadata=True,
            generate=lambda spark, n, b, seed: tlc_like(
                spark, n=n, b=b, seed=seed
            ),
        ),
    )
}


def query_seed(seed: int, i: int) -> int:
    """Sampling seed of the i-th query of a run (ISLA uses +0..+2, baselines +5..+8)."""
    return 1000 * (seed % 1_000_000) + 10 * i
