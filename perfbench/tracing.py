"""Spans around the program's layer functions, and their Spark cost.

A span records name, start, end, parent and query id. A span that may run
Spark jobs also gets its own Spark job group, so after a query the jobs of
each span can be listed with ``statusTracker().getJobIdsForGroup`` and their
stage metrics read from the driver's status store. Neither read runs a
Spark job. Spans are recorded from the benchmark's own files by replacing
the layer functions on the modules that look them up (``Tracer.wrapped``).

The status store is a private Spark API. If it is unavailable, ``SparkCost``
says so and every Spark-cost metric is reported as missing, never as 0;
wall times still come from the spans.
"""
from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from py4j.protocol import Py4JError

# (layer, module whose attribute is looked up at call time, function name,
# whether the span gets a job group). modulate_block is pure driver math
# called once per block, so its spans skip the job-group round trip.
LAYER_TARGETS = (
    ("pre_estimation", "repro.core.isla", "pre_estimate", True),
    ("pre_estimation.block_sizes", "repro.core.pre_estimation", "compute_block_sizes", True),
    ("moments", "repro.core.isla", "sample_region_moments", True),
    ("iteration", "repro.core.isla", "modulate_block", False),
    ("baselines.us", "repro.baselines", "uniform_avg", True),
    ("baselines.sts", "repro.baselines", "stratified_avg", True),
    ("baselines.mv", "repro.baselines", "mv_avg", True),
    ("baselines.mvb", "repro.baselines", "mvb_avg", True),
)


@dataclass
class Span:
    name: str
    query: int
    parent: int | None  # index into Tracer.spans
    start: float  # epoch seconds, comparable with Spark's job timestamps
    end: float = float("nan")
    group: str | None = None
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    result: object = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class SparkCost:
    """Job IDs, stage metrics and job intervals of finished job groups."""

    def __init__(self, sc):
        self.tracker = sc.statusTracker()
        try:
            jsc = sc._jsc.sc()
            self._store = jsc.statusStore()
            self._bus = jsc.listenerBus()
        except (Py4JError, AttributeError) as exc:
            self._store = None
            self.why_missing = "statusStore unavailable: " + _first_line(exc)
        else:
            self.why_missing = ""

    @property
    def available(self) -> bool:
        return self._store is not None

    def settle(self) -> None:
        """Wait until the status listener has seen every finished job."""
        if self.available:
            try:
                self._bus.waitUntilEmpty()
            except Py4JError as exc:
                self._fail(exc)

    def job_ids(self, groups) -> list[int]:
        return sorted({j for g in groups for j in self.tracker.getJobIdsForGroup(g)})

    def cost(self, job_ids) -> dict | None:
        """Summed stage metrics and job intervals, or None when unavailable."""
        if not self.available:
            return None
        out = {"input_bytes": 0, "executor_ms": 0, "shuffle_bytes": 0, "intervals": []}
        stages = set()
        try:
            for j in job_ids:
                info = self.tracker.getJobInfo(j)
                stages.update(info.stageIds if info is not None else ())
                jd = self._store.job(j)
                if jd.submissionTime().isDefined() and jd.completionTime().isDefined():
                    out["intervals"].append(
                        (jd.submissionTime().get().getTime() / 1000.0,
                         jd.completionTime().get().getTime() / 1000.0)
                    )
            for sid in stages:
                st = self._store.lastStageAttempt(sid)
                out["input_bytes"] += st.inputBytes()
                out["executor_ms"] += st.executorRunTime()
                out["shuffle_bytes"] += st.shuffleWriteBytes()
        except Py4JError as exc:
            self._fail(exc)
            return None
        return out

    def _fail(self, exc: Exception) -> None:
        self._store = None
        self.why_missing = "statusStore read failed: " + _first_line(exc)


def _first_line(exc: Exception) -> str:
    return (str(exc).strip().splitlines() or [type(exc).__name__])[0]


def covered(intervals, start: float, end: float) -> float:
    """Seconds of [start, end] covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


class Tracer:
    """Spans of the current run, kept in memory until the run ends."""

    def __init__(self, sc):
        self.sc = sc
        self.spans: list[Span] = []
        self.query = -1
        self._stack: list[int] = []
        self.missing: dict[str, str] = {}  # layer -> why it could not be wrapped

    @contextmanager
    def span(self, name: str, *, group: bool = True):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, self.query, parent, 0.0)
        if group:
            sp.group = f"q{self.query}.s{len(self.spans)}"
            self.sc.setJobGroup(sp.group, name)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        sp.start = time.time()
        try:
            yield sp
        finally:
            sp.end = time.time()
            self._stack.pop()
            if group:
                self._restore_group()

    def _restore_group(self) -> None:
        for i in reversed(self._stack):
            if self.spans[i].group is not None:
                self.sc.setJobGroup(self.spans[i].group, self.spans[i].name)
                return
        self.sc.setLocalProperty("spark.jobGroup.id", None)

    def _wrap(self, layer: str, fn, group: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, group=group) as sp:
                sp.args, sp.kwargs = args, kwargs
                sp.result = fn(*args, **kwargs)
                return sp.result

        return traced

    @contextmanager
    def wrapped(self):
        """Route every layer function in LAYER_TARGETS through a span."""
        saved = []
        for layer, mod_name, attr, group in LAYER_TARGETS:
            try:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
            except (ImportError, AttributeError) as exc:
                self.missing[layer] = f"{mod_name}.{attr}: {exc!r}"
                continue
            saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(layer, fn, group))
        try:
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def descendants(self, idx: int) -> list[int]:
        """Indices of every span below span ``idx`` (spans are appended in start order)."""
        out, inside = [], {idx}
        for j in range(idx + 1, len(self.spans)):
            if self.spans[j].query != self.spans[idx].query:
                break
            if self.spans[j].parent in inside:
                inside.add(j)
                out.append(j)
        return out

    def children(self, idx: int) -> list[int]:
        return [j for j in self.descendants(idx) if self.spans[j].parent == idx]

    def groups(self, idx: int) -> list[str]:
        """Job groups of span ``idx`` and all spans below it."""
        return [self.spans[j].group for j in [idx, *self.descendants(idx)]
                if self.spans[j].group is not None]
