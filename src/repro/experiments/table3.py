"""Table III — accuracy of ISLA vs MV vs MVB on N(100, 20²) (§VIII-C).

Paper setup: 10 synthetic datasets, μ=100, σ=20, b=10 blocks, desired
precision e=0.1, β=0.95 (sample size m = 153 664, independent of M).
Paper result: ISLA avg 100.0296 (within e), MV avg 104.0036 (the
(μ²+σ²)/μ bias), MVB avg 100.515.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core import ISLAConfig
from repro.experiments.runner import fmt_table, isla_mv_mvb, round_robin_sizes
from repro.synth_data import blocked_normal


def run_table3(
    spark: SparkSession,
    *,
    n: int = 1_000_000,
    b: int = 10,
    n_datasets: int = 10,
    mu: float = 100.0,
    sigma: float = 20.0,
    e: float = 0.1,
    seed0: int = 100,
) -> dict:
    """Run the Table III grid; returns per-dataset answers and averages."""
    cfg = ISLAConfig(e=e)
    sizes = round_robin_sizes(n, b)
    out = {"mu": mu, "e": e, "datasets": list(range(1, n_datasets + 1)),
           "ISLA": [], "MV": [], "MVB": []}
    for i in range(n_datasets):
        seed = seed0 + 10 * i
        df = blocked_normal(spark, n=n, b=b, mu=mu, sigma=sigma, seed=seed)
        for k, ans in zip(("ISLA", "MV", "MVB"), isla_mv_mvb(df, cfg, sizes, seed)):
            out[k].append(ans)
    for k in ("ISLA", "MV", "MVB"):
        out[f"{k}_avg"] = sum(out[k]) / len(out[k])
    return out


def format_table3(res: dict) -> str:
    """Table III as markdown: per-dataset answers and their average."""
    rows = [
        [m] + [round(x, 4) for x in res[m]] + [round(res[f"{m}_avg"], 4)]
        for m in ("ISLA", "MV", "MVB")
    ]
    return fmt_table(
        ["Method"] + [str(d) for d in res["datasets"]] + ["Average"], rows
    )
