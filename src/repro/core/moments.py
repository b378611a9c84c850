"""Phase 1 — the sampling job (Algorithm 1, §VI-A) as a Spark DataFrame job.

Per block, ISLA records only ``param_S``/``param_L`` =
(counter, sum, squareSum, cubeSum) of the samples falling in the S/L
regions; everything else is dropped. In Spark this is:

    sample                                # Bernoulli sampling
      → region tag from the boundaries
      → filter(region ∈ {S, L})
      → groupBy(block, region).agg(count, Σx, Σx², Σx³)

which is exactly the streaming update loop of Algorithm 1, executed by
Catalyst with partial aggregation (the "no sample storage" property is
preserved: the shuffle carries 4 numbers per (block, region)).

Two plans, chosen from the input:

* iid (one fraction and one boundary set for every block):
  ``df.sample(f, seed)`` and a region tag with literal bounds — no
  per-block lookup and no join;
* per-block (§VII-C non-iid extension: different rates and boundaries
  per block): ``sampleBy(block)`` and boundary columns from a
  broadcast-joined bounds table.

``sample(seed)``, ``rand(seed)`` and ``sampleBy(seed)`` all draw one
``XORShiftRandom(seed + partitionIndex)`` number per row in scan order,
so both plans keep the same rows for the same seed and fractions, and
sum them in the same order. The exception is an uncached local relation
(a small ``createDataFrame``): there the optimizer evaluates
``sampleBy``'s filter on the driver as one partition, so the two plans
draw different (equally valid) Bernoulli samples.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.boundaries import (
    DataBoundaries,
    Region,
    region_column,
    region_column_for,
)


@dataclass(frozen=True)
class RegionMoments:
    """param_S / param_L: counter, sum, square sum, cube sum."""

    n: int
    s1: float
    s2: float
    s3: float

    @staticmethod
    def empty() -> "RegionMoments":
        return RegionMoments(0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_values(values: Iterable[float]) -> "RegionMoments":
        """Driver-side accumulation (the updateParams loop of Alg. 1)."""
        n, s1, s2, s3 = 0, 0.0, 0.0, 0.0
        for a in values:
            n += 1
            s1 += a
            s2 += a * a
            s3 += a * a * a
        return RegionMoments(n, s1, s2, s3)

    def merge(self, other: "RegionMoments") -> "RegionMoments":
        """Combine two partial records (online-mode extension, §VII-A)."""
        return RegionMoments(
            self.n + other.n,
            self.s1 + other.s1,
            self.s2 + other.s2,
            self.s3 + other.s3,
        )

    def add(self, a: float) -> "RegionMoments":
        """updateParams(a, param): streaming single-sample update."""
        return RegionMoments(
            self.n + 1, self.s1 + a, self.s2 + a * a, self.s3 + a * a * a
        )

    @property
    def mean(self) -> float:
        return self.s1 / self.n if self.n else 0.0


#: Per-block result of Phase 1: {block_id: (param_S, param_L)}.
BlockMoments = dict[object, tuple[RegionMoments, RegionMoments]]


def _bounds_table(
    df: DataFrame,
    block_col: str,
    bounds_by_block: Mapping[object, DataBoundaries],
) -> DataFrame:
    """One row per block with the four boundary columns."""
    spark = df.sparkSession
    rows = [
        (b, bd.s_lower, bd.s_upper, bd.l_lower, bd.l_upper)
        for b, bd in bounds_by_block.items()
    ]
    block_type = df.schema[block_col].dataType.simpleString()
    return spark.createDataFrame(
        rows,
        schema=(
            f"{block_col} {block_type}, __s_lower double, __s_upper double,"
            " __l_lower double, __l_upper double"
        ),
    )


def sample_region_moments(
    df: DataFrame,
    value_col: str,
    block_col: str,
    fractions: Mapping[object, float],
    bounds_by_block: Mapping[object, DataBoundaries],
    *,
    shift: float = 0.0,
    seed: int = 0,
) -> BlockMoments:
    """Run Phase 1: per-block sampling + S/L moment accumulation.

    Parameters
    ----------
    fractions : per-block Bernoulli sampling fraction; the iid case
        passes the same rate for every block, the non-iid case passes
        the blev-derived rates of §VII-C.
    bounds_by_block : per-block data boundaries in the *shifted* domain.
    shift : translation d applied to values before classification
        (footnote 1: make all data positive); boundaries must already be
        expressed in the shifted domain.

    When every clipped fraction is equal and every block has the same
    boundaries, the job is ``df.sample`` plus a literal-bound region tag;
    otherwise it is ``sampleBy`` plus a broadcast-joined bounds table.
    Both keep the same rows for the same seed (except on an uncached
    local relation; see the module docstring).

    Returns a dict with, for every block listed in both maps that
    produced at least one S or L sample, the pair (param_S, param_L); a
    region with no samples is :meth:`RegionMoments.empty`.
    """
    clipped = {b: min(1.0, max(0.0, f)) for b, f in fractions.items()}
    v = F.col(value_col).cast("double") + F.lit(float(shift))
    fraction_set = set(clipped.values())
    bounds_set = set(bounds_by_block.values())
    if len(fraction_set) == 1 and len(bounds_set) == 1:
        (fraction,), (bounds,) = fraction_set, bounds_set
        tagged = (
            df.sample(fraction=fraction, seed=seed)
            .withColumn("__v", v)
            .withColumn("__region", region_column_for(bounds, F.col("__v")))
        )
    else:
        bounds_df = _bounds_table(df, block_col, bounds_by_block)
        tagged = (
            df.sampleBy(block_col, clipped, seed=seed)
            .join(F.broadcast(bounds_df), on=block_col, how="inner")
            .withColumn("__v", v)
            .withColumn(
                "__region",
                region_column(
                    F.col("__v"),
                    F.col("__s_lower"),
                    F.col("__s_upper"),
                    F.col("__l_lower"),
                    F.col("__l_upper"),
                ),
            )
        )
    rows = (
        tagged.filter(F.col("__region").isin(Region.S.value, Region.L.value))
        .groupBy(block_col, "__region")
        .agg(
            F.count("*").alias("n"),
            F.sum("__v").alias("s1"),
            F.sum(F.col("__v") ** 2).alias("s2"),
            F.sum(F.col("__v") ** 3).alias("s3"),
        )
        .collect()
    )
    out: BlockMoments = {}
    for r in rows:
        block = r[block_col]
        # The iid plan samples every block; keep those the per-block plan
        # keeps (sampleBy drops unlisted fractions, the join unlisted bounds).
        if block not in clipped or block not in bounds_by_block:
            continue
        m_s, m_l = out.get(block, (RegionMoments.empty(), RegionMoments.empty()))
        m = RegionMoments(int(r["n"]), float(r["s1"]), float(r["s2"]), float(r["s3"]))
        if r["__region"] == Region.S.value:
            m_s = m
        else:
            m_l = m
        out[block] = (m_s, m_l)
    return out
