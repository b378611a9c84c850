"""Table VI — exponential distributions (§VIII-E).

Paper setup: Exp(γ) for γ ∈ {0.05, 0.1, 0.15, 0.2} (accurate AVG 1/γ),
default parameters otherwise. Paper result: MV ≈ 2/γ (2× off), MVB
~9% high, ISLA slightly low but closest (e.g. 19.87 vs accurate 20).
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core import ISLAConfig
from repro.experiments.runner import fmt_table, isla_mv_mvb, round_robin_sizes
from repro.synth_data import blocked_exponential


def run_table6(
    spark: SparkSession,
    *,
    n: int = 1_000_000,
    b: int = 10,
    gammas: tuple[float, ...] = (0.05, 0.1, 0.15, 0.2),
    e: float = 0.1,
    seed0: int = 500,
) -> dict:
    """Run the Table VI sweep over γ."""
    cfg = ISLAConfig(e=e)
    sizes = round_robin_sizes(n, b)
    out = {"gammas": list(gammas), "Accurate": [1.0 / g for g in gammas],
           "ISLA": [], "MV": [], "MVB": []}
    for i, gamma in enumerate(gammas):
        seed = seed0 + 10 * i
        df = blocked_exponential(spark, n=n, b=b, gamma=gamma, seed=seed)
        for k, ans in zip(("ISLA", "MV", "MVB"), isla_mv_mvb(df, cfg, sizes, seed)):
            out[k].append(ans)
    return out


def format_table6(res: dict) -> str:
    """Table VI as markdown: accurate and estimated AVG per γ."""
    rows = [
        [m] + [round(x, 4) for x in res[m]]
        for m in ("Accurate", "ISLA", "MV", "MVB")
    ]
    return fmt_table(["γ"] + [str(g) for g in res["gammas"]], rows)
