"""Experiment runners — one module per evaluation table (DESIGN.md §5).

Each ``run_*`` function takes a SparkSession plus scale knobs and
returns a plain dict of paper-table-shaped rows; its module's
``format_*`` renders that dict as a markdown table. ``EXPERIMENTS``
names all nine, and ``runner.save`` writes a result to
``experiments_output/<name>.json``. Run them with::

    python -m repro.experiments <name>... | all [--small]

(``spark-submit src/repro/experiments/__main__.py`` takes the same
arguments); ``pytest benchmarks/`` times each one and checks its shape.
"""
from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from repro.experiments.table3 import format_table3, run_table3
from repro.experiments.table4 import format_table4, run_table4
from repro.experiments.table5 import format_table5, run_table5
from repro.experiments.table6 import format_table6, run_table6
from repro.experiments.table7 import format_table7, run_table7
from repro.experiments.noniid import format_noniid, run_noniid
from repro.experiments.datasize import format_datasize, run_datasize
from repro.experiments.efficiency import format_efficiency, run_efficiency
from repro.experiments.realdata import format_realdata, run_realdata


@dataclass(frozen=True)
class Experiment:
    """One evaluation: its runner, its table formatter, and the runner
    keywords that shrink it for a quick ``--small`` smoke run."""

    run: Callable[..., dict]
    table: Callable[[dict], str]
    small: Mapping[str, object] = field(default_factory=dict)


# In paper order; `python -m repro.experiments all` runs them in this order.
EXPERIMENTS: dict[str, Experiment] = {
    "table3": Experiment(run_table3, format_table3, {"n": 120_000}),
    "table4": Experiment(run_table4, format_table4, {"n": 120_000}),
    "table5": Experiment(run_table5, format_table5, {"n": 120_000}),
    "table6": Experiment(run_table6, format_table6, {"n": 120_000}),
    "table7": Experiment(run_table7, format_table7, {"n": 120_000}),
    "noniid": Experiment(run_noniid, format_noniid, {"n_per_block": 20_000}),
    "datasize": Experiment(run_datasize, format_datasize),
    "efficiency": Experiment(run_efficiency, format_efficiency),
    "realdata": Experiment(run_realdata, format_realdata),
}

__all__ = [
    "run_table3",
    "run_table4",
    "run_table5",
    "run_table6",
    "run_table7",
    "run_noniid",
    "run_datasize",
    "run_efficiency",
    "run_realdata",
    "Experiment",
    "EXPERIMENTS",
]
