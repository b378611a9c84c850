"""Shared experiment plumbing: sizes, ground truth, the ISLA/MV/MVB
body of Tables III, VI and VII, formatting and saving."""
from __future__ import annotations

import json
import pathlib

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.baselines import mv_avg, mvb_avg
from repro.core import DataBoundaries, ISLAConfig, isla_avg
from repro.core.pre_estimation import pre_estimate

# experiments_output/ at the root of the source checkout (src/repro/experiments/..).
OUT = pathlib.Path(__file__).resolve().parents[3] / "experiments_output"


def round_robin_sizes(n: int, b: int) -> dict[int, int]:
    """|B_j| for the ``id % b`` block assignment of the generators.

    Block j holds the ids ≡ j (mod b) in [0, n), i.e. ⌈(n − j)/b⌉ rows.
    Passing these as metadata mirrors the paper's assumption that M and
    block sizes come from the catalog, and skips a count job.
    """
    return {j: (n - j + b - 1) // b for j in range(b)}


def exact_avg(df: DataFrame, value_col: str) -> float:
    """Ground-truth AVG by full scan (the paper's golden truth)."""
    row = df.agg(F.avg(F.col(value_col).cast("double")).alias("avg")).first()
    return float(row["avg"])


def isla_mv_mvb(
    df: DataFrame, cfg: ISLAConfig, sizes: dict, seed: int
) -> tuple[float, float, float]:
    """ISLA, MV and MVB answers for AVG(v) on one cached dataset.

    All three share one pre-estimation, as in the paper's comparisons;
    MV and MVB sample with ``seed + 5`` and ``seed + 6``.
    """
    df = df.cache()
    try:
        pre = pre_estimate(df, "v", "block", cfg, block_sizes=sizes, seed=seed)
        res = isla_avg(df, "v", "block", cfg, pre=pre, seed=seed)
        bounds = DataBoundaries(pre.sketch0, pre.sigma, cfg.p1, cfg.p2)
        return (
            res.answer,
            mv_avg(df, "v", pre.rate, seed=seed + 5),
            mvb_avg(df, "v", pre.rate, bounds, seed=seed + 6),
        )
    finally:
        df.unpersist()


def fmt_table(headers: list[str], rows: list[list]) -> str:
    """Render a result grid as GitHub-flavoured markdown."""
    def cell(x) -> str:
        if isinstance(x, float):
            return f"{x:.4f}"
        return str(x)

    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for r in rows:
        out.append("| " + " | ".join(cell(x) for x in r) + " |")
    return "\n".join(out)


def save(name: str, result: dict) -> pathlib.Path:
    """Write ``result`` to ``experiments_output/<name>.json``; return the path."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}.json"
    path.write_text(json.dumps(result, indent=2, default=str))
    return path
