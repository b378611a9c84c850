"""One benchmark run: set up a workload, run the closed query loop, report.

A round is one ISLA query and the exact full-scan ``AVG`` (three times);
rounds 0, 1, 4, 5, ... add the four baselines (US, STS, MV, MVB at ISLA's
rate with its pre-estimate). One client runs them one after another, and
rounds repeat until ``--seconds`` have passed. Every round's outputs are
checked; a round that raises or fails a check counts as failed and the loop
goes on.

With ``--trace 1`` every other round is traced: the layer functions run
inside spans (tracing.py). The untraced rounds in between give the
tracing overhead and the job counts that tracing must not change.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

import repro.baselines as baselines
from repro.core import DataBoundaries, ISLAConfig, isla_avg
from tracing import SparkCost, Tracer, covered
from workloads import WORKLOADS, Workload, query_seed

SETUP_ROUNDS = 4  # set-up (data + one warm-up round) is repeated, its median reported
EXACT_PER_ROUND = 3  # the exact scan is short, so it runs more often than ISLA
WARMUP_INDEX = 1000  # query index of the fresh-seed warm-up rounds
PRECISION_QUERIES = 4  # the first queries of a run, the same for every run of a seed
P75_MIN_QUERIES = 40  # p75 needs ten samples beyond it


@dataclass
class Round:
    index: int
    seed: int
    traced: bool
    isla: int  # span index of the ISLA query
    exact_spans: list
    baseline_span: int | None = None
    answer: float | None = None
    exact: float | None = None
    baseline_answers: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    jobs: int = 0
    input_bytes: int | None = None
    pre: object = None  # the query's PreEstimate, for the run's stamp


class Run:
    def __init__(self, spark: SparkSession, workload: Workload, seed: int):
        self.spark = spark
        self.w = workload
        self.seed = seed
        self.cfg = ISLAConfig(e=workload.e)
        self.sizes = workload.block_sizes()
        self.tracer = Tracer(spark.sparkContext)
        self.cost = SparkCost(spark.sparkContext)
        self.df = None
        self.row_count = 0
        self.exact_ref: float | None = None
        self.exact_bytes: int | None = None

    # -- set-up ---------------------------------------------------------

    def load(self) -> float:
        """Generate and cache the table; return seconds taken."""
        t0 = time.time()
        if self.df is not None:
            self.df.unpersist(blocking=True)
            # Collect the dropped table now, so earlier set-up rounds do not
            # decide how far the heap grows later in the run.
            self.spark.sparkContext._jvm.System.gc()
        self.df = self.w.generate(self.spark, self.w.M, self.w.b, self.seed).cache()
        self.row_count = self.df.count()
        return time.time() - t0

    # -- one round ------------------------------------------------------

    def round(self, index: int, traced: bool, with_baselines: bool, warmup: bool = False) -> Round:
        tr, df, cfg, w = self.tracer, self.df, self.cfg, self.w
        qs = query_seed(self.seed, index)
        tr.query = -1 if warmup else index
        with tr.wrapped() if traced else nullcontext():
            res = None
            with tr.span("isla") as q:
                try:
                    res = isla_avg(df, "v", "block", cfg, non_iid=w.non_iid,
                                   block_sizes=self.sizes, seed=qs)
                except Exception:  # noqa: BLE001 - counted as a failed query
                    err = traceback.format_exc()
            exact_spans, exacts = [], []
            for _ in range(EXACT_PER_ROUND):
                with tr.span("exact") as x:
                    exacts.append(exact_avg(df, "v"))
                exact_spans.append(tr.spans.index(x))
            r = Round(index, qs, traced, tr.spans.index(q), exact_spans, exact=exacts[0])
            if res is None:
                r.failures.append("isla_avg raised: " + err.strip().splitlines()[-1])
                print(err, file=sys.stderr)
            else:
                r.answer, r.pre = res.answer, res.pre
                try:
                    r.failures += check_isla(res, cfg, w, self.row_count)
                except (AttributeError, KeyError, TypeError) as exc:
                    r.failures.append(f"output check could not read the result: {exc!r}")
            if res is not None and with_baselines:
                with tr.span("baselines") as bsp:
                    try:
                        r.baseline_answers = run_baselines(df, res, cfg, qs)
                    except Exception:  # noqa: BLE001 - counted as a failed query
                        err = traceback.format_exc()
                        r.failures.append("baseline raised: " + err.strip().splitlines()[-1])
                        print(err, file=sys.stderr)
                r.baseline_span = tr.spans.index(bsp)
                bad = [k for k, v in r.baseline_answers.items() if not math.isfinite(v)]
                if bad:
                    r.failures.append(f"baseline answers not finite: {bad}")
        ref = self.exact_ref if self.exact_ref is not None else r.exact
        if not all(_close(x, ref, 1e-12) for x in exacts):
            r.failures.append(f"exact AVG {exacts!r} != reference {ref!r}")
        self.cost.settle()
        jobs = self.cost.job_ids(tr.groups(r.isla))
        r.jobs = len(jobs)
        c = self.cost.cost(jobs)
        r.input_bytes = c["input_bytes"] if c else None
        return r


def exact_avg(df: DataFrame, value_col: str) -> float:
    """The reference answer: AVG by one full scan."""
    return float(df.agg(F.avg(value_col)).first()[0])


def run_baselines(df, res, cfg: ISLAConfig, qs: int) -> dict:
    """The four baselines at ISLA's rate, sharing its pre-estimate (§VIII-F)."""
    pre, rate = res.pre, res.rate_used
    bounds = DataBoundaries(pre.sketch0, pre.sigma, cfg.p1, cfg.p2)
    return {
        "MV": baselines.mv_avg(df, "v", rate, seed=qs + 5),
        "MVB": baselines.mvb_avg(df, "v", rate, bounds, seed=qs + 6),
        "US": baselines.uniform_avg(df, "v", rate, seed=qs + 7),
        "STS": baselines.stratified_avg(df, "v", "block", rate, pre.block_sizes, seed=qs + 8),
    }


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_isla(res, cfg: ISLAConfig, w: Workload, row_count: int) -> list[str]:
    """Output checks that every ISLA answer must pass."""
    bad = []
    pre = res.pre
    if not math.isfinite(res.answer):
        bad.append(f"answer {res.answer!r} not finite")
    partials = {b: a.partial for b, a in res.blocks.items()}
    nonfinite = [b for b, p in partials.items() if not math.isfinite(p)]
    if nonfinite:
        bad.append(f"{len(nonfinite)} block partials not finite")
    if set(partials) != set(pre.block_sizes):
        bad.append("answered blocks differ from the block-size metadata")
    if cfg.clamp_to_sketch_ci:
        radius = cfg.t_e * cfg.e
        for b, p in partials.items():
            sketch = pre.sketch_by_block[b] if w.non_iid else pre.sketch0
            slack = 1e-9 * max(1.0, abs(sketch) + abs(pre.shift))
            if abs(p - sketch) > radius + slack:
                bad.append(f"block {b}: partial {p!r} outside sketch {sketch!r} ± {radius}")
                break
    M = sum(pre.block_sizes[b] for b in partials)
    if M and not _close(res.answer, sum(p * pre.block_sizes[b] for b, p in partials.items()) / M, 1e-9):
        bad.append("answer != Σ partial·|B_j| / M")
    if sum(pre.block_sizes.values()) != row_count:
        bad.append(f"Σ|B_j| = {sum(pre.block_sizes.values())} != row count {row_count}")
    return bad


# -- reporting ---------------------------------------------------------------

def median(xs):
    xs = [x for x in xs if x is not None]
    return statistics.median(xs) if xs else None


def peak_rss_mb(spark: SparkSession) -> float:
    """Peak resident memory of the driver JVM plus this Python process."""
    py_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
    with open(f"/proc/{pid}/status") as f:
        jvm_kb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    return (py_kb + jvm_kb) / 1024.0


def layer_metrics(run: Run, rounds: list[Round]) -> tuple[dict, list[str]]:
    """Per-layer values: the median over traced rounds of each per-query value."""
    tr, cost, exact_bytes = run.tracer, run.cost, run.exact_bytes
    notes = []
    per_query: dict[str, list] = {}

    def put(name, value):
        per_query.setdefault(name, []).append(value)

    def spark_cost(prefix, idxs, shuffle=False):
        """wall/driver/executor ms, jobs and scan passes of spans ``idxs``."""
        groups = [g for i in idxs for g in tr.groups(i)]
        jobs = cost.job_ids(groups)
        c = cost.cost(jobs)
        wall = sum(tr.spans[i].ms for i in idxs)
        put(prefix + ".wall_ms", wall)
        put(prefix + ".jobs", len(jobs))
        if c is None or not exact_bytes:
            for k in ("driver_ms", "executor_ms", "scan_passes") + ("shuffle_bytes",) * shuffle:
                put(f"{prefix}.{k}", None)
            return
        in_jobs = sum(covered(c["intervals"], tr.spans[i].start, tr.spans[i].end) for i in idxs)
        put(prefix + ".driver_ms", wall - 1000.0 * in_jobs)
        put(prefix + ".executor_ms", c["executor_ms"])
        put(prefix + ".scan_passes", c["input_bytes"] / exact_bytes)
        if shuffle:
            put(prefix + ".shuffle_bytes", c["shuffle_bytes"])

    for r in rounds:
        if not r.traced or r.answer is None:
            continue
        kids = tr.children(r.isla)
        pre, mom, it = ([i for i in kids if tr.spans[i].name == name]
                        for name in ("pre_estimation", "moments", "iteration"))
        spark_cost("pre_estimation", pre)
        bs = [i for p in pre for i in tr.descendants(p)
              if tr.spans[i].name == "pre_estimation.block_sizes"]
        put("pre_estimation.block_sizes_ms", sum(tr.spans[i].ms for i in bs))
        try:
            p = tr.spans[pre[0]].result
            put("pre_estimation.sample_rows", sum(b.n for b in p.pilot.values()) + p.m_sketch)
        except (IndexError, AttributeError):
            put("pre_estimation.sample_rows", None)
        spark_cost("moments", mom, shuffle=True)
        try:
            m = tr.spans[mom[0]]
            fractions = m.args[3] if len(m.args) > 3 else m.kwargs["fractions"]
            sizes = tr.spans[pre[0]].result.block_sizes
            sampled = sum(f * sizes[b] for b, f in fractions.items())
            useful = sum(s.n + l.n for s, l in m.result.values())
            put("moments.sampled_rows", sampled)
            put("moments.useful_share", useful / sampled)
        except (IndexError, KeyError, AttributeError, TypeError, ZeroDivisionError):
            put("moments.sampled_rows", None)
            put("moments.useful_share", None)
        answers = [tr.spans[i].result for i in it]
        put("iteration.wall_ms", sum(tr.spans[i].ms for i in it))
        put("iteration.calls", len(it))
        try:
            put("iteration.iters", sum(a.iters for a in answers))
            put("iteration.case5_share", sum(a.case == 5 for a in answers) / len(answers))
            put("iteration.clamped_share", sum(a.clamped for a in answers) / len(answers))
        except (AttributeError, ZeroDivisionError):
            for k in ("iters", "case5_share", "clamped_share"):
                put("iteration." + k, None)
        put("isla.self_ms", tr.spans[r.isla].ms - sum(tr.spans[i].ms for i in kids))
        put("exact.wall_ms", median(tr.spans[i].ms for i in r.exact_spans))
        if r.baseline_span is not None:
            bk = tr.children(r.baseline_span)
            for short in ("us", "sts", "mv", "mvb"):
                put(f"baselines.{short}_ms",
                    sum(tr.spans[i].ms for i in bk if tr.spans[i].name == "baselines." + short) or None)
            jobs = [len(cost.job_ids(tr.groups(i))) for i in bk]
            costs = [cost.cost(cost.job_ids(tr.groups(i))) for i in bk]
            put("baselines.jobs", statistics.mean(jobs) if jobs else None)
            put("baselines.scan_passes",
                statistics.mean(c["input_bytes"] for c in costs) / exact_bytes
                if costs and all(costs) and exact_bytes else None)

    out = {k: median(v) for k, v in per_query.items()}
    # A layer whose function could not be wrapped reads as missing, not 0.
    for layer, why in tr.missing.items():
        for k in out:
            if k == layer or k.startswith(layer + ".") or k.startswith(layer + "_"):
                out[k] = None
        notes.append(f"layer {layer} missing: {why}")
    if not cost.available:
        notes.append(f"Spark stage metrics missing: {cost.why_missing}")
    return out, notes


def stamp(spark: SparkSession, w: Workload, seed: int, root: Path, pre) -> dict:
    sc = spark.sparkContext
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], check=True,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for f in sorted((root / "src").rglob("*.py")):
        digest.update(f.relative_to(root).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "spark": spark.version,
        "master": sc.master,
        "nproc": os.cpu_count(),
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "seed": seed,
        "workload": w.name,
        "M": w.M,
        "b": w.b,
        "e": w.e,
        "rate": pre.rate if pre else None,
        "m": pre.m if pre else None,
        "m_sketch": pre.m_sketch if pre else None,
    }


def run(args, t_start: float, root: Path, work: Path) -> int:
    w = WORKLOADS[args.workload]
    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.local.dir", str(work / "spark-local"))
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
        .getOrCreate()
    )
    try:
        spark.sparkContext.setLogLevel("ERROR")
        return _run(spark, w, args, t_start, root, work)
    finally:
        spark.stop()


def _run(spark, w: Workload, args, t_start: float, root: Path, work: Path) -> int:
    run = Run(spark, w, args.seed)
    session_s = time.time() - t_start
    checks: list[str] = []

    # Set-up, repeated SETUP_ROUNDS times: generate + cache the table, then
    # one untraced warm-up round. The first runs the queries of timed round 0,
    # which must give the same answers bit for bit. The others use fresh
    # sampling seeds, as timed rounds do: Spark compiles new code for every
    # new seed, rate and boundary literal, and the JIT needs several rounds of
    # that before query times settle.
    data_s, warm_s, warm = [], [], []
    for k in range(SETUP_ROUNDS):
        data_s.append(run.load())
        t0 = time.time()
        warm.append(run.round(WARMUP_INDEX + k if k else 0, traced=False,
                              with_baselines=k % 2 == 0, warmup=True))
        warm_s.append(time.time() - t0)
        if run.exact_ref is None:
            run.exact_ref = warm[0].exact
            c = run.cost.cost(run.cost.job_ids(run.tracer.groups(warm[0].exact_spans[0])))
            run.exact_bytes = c["input_bytes"] if c else None
    for r in warm:
        if r.failures:
            checks.append(f"warm-up round failed: {r.failures}")
    setup_s = session_s + statistics.median(d + w for d, w in zip(data_s, warm_s))

    rounds: list[Round] = []
    t_loop = time.time()
    while len(rounds) < PRECISION_QUERIES or time.time() - t_loop < args.seconds:
        i = len(rounds)
        # Rounds 0, 1, 4, 5, ... run the baselines, so that traced and
        # untraced rounds both get them.
        rounds.append(run.round(i, traced=bool(args.trace) and i % 2 == 0,
                                with_baselines=i % 4 < 2))

    # Self-check: the same seed gives bit-identical answers.
    r0 = rounds[0]
    if (r0.answer, r0.baseline_answers) != (warm[0].answer, warm[0].baseline_answers):
        checks.append(f"answers differ for the same seed: {r0.answer!r} vs {warm[0].answer!r}")

    isla_ms = [run.tracer.spans[r.isla].ms for r in rounds if not r.traced]
    n = len(isla_ms)
    e2e = {
        "setup_s": (setup_s, "s"),
        "query_ms_p50": (median(isla_ms), "ms"),
        "exact_ms_p50": (median(run.tracer.spans[i].ms for r in rounds if not r.traced
                                for i in r.exact_spans), "ms"),
        "baseline_ms_p50": (median(run.tracer.spans[r.baseline_span].ms for r in rounds
                                   if not r.traced and r.baseline_span is not None), "ms"),
        "scan_passes_per_query": (
            median(r.input_bytes / run.exact_bytes for r in rounds
                   if not r.traced and r.input_bytes is not None) if run.exact_bytes else None,
            "passes"),
        "spark_jobs_per_query": (median(r.jobs for r in rounds if not r.traced), "count"),
        "peak_rss_mb": (peak_rss_mb(spark), "MB"),
    }
    notes = []
    if n >= P75_MIN_QUERIES:
        notes.append(f"query_ms_p75 {statistics.quantiles(isla_ms, n=4)[2]:.6g} ms")
    else:
        notes.append(f"query_ms_p75 dropped: {n} untraced queries < {P75_MIN_QUERIES}")

    prec = rounds[:PRECISION_QUERIES]
    errs = [abs(r.answer - run.exact_ref) / w.e for r in prec if r.answer is not None]
    failed = sum(bool(r.failures) for r in rounds)
    quality = {
        "quality.err_over_e_mean": (statistics.mean(errs) if errs else None, "e"),
        "quality.within_e_frac": (sum(x <= 1.0 for x in errs) / len(prec), "fraction"),
        "quality.failed_frac": (failed / len(rounds), "fraction"),
    }

    layers, layer_notes = layer_metrics(run, rounds) if args.trace else ({}, [])
    units = {"_ms": "ms", "_s": "s", ".jobs": "count", ".calls": "count", ".iters": "count",
             "_rows": "rows", "_bytes": "bytes", "_passes": "passes", "_share": "fraction"}
    per_layer = {k: (v, next(u for s, u in units.items() if k.endswith(s)))
                 for k, v in layers.items()}
    if args.trace:
        per_layer["setup.session_s"] = (session_s, "s")
        per_layer["setup.data_s"] = (median(data_s), "s")
        per_layer["setup.warmup_s"] = (median(warm_s), "s")
        traced_ms = [run.tracer.spans[r.isla].ms for r in rounds if r.traced]
        traced_jobs = [r.jobs for r in rounds if r.traced]
        per_layer["trace.overhead_ms"] = (median(traced_ms) - median(isla_ms), "ms")
        extra = median(traced_jobs) - median(r.jobs for r in rounds if not r.traced)
        per_layer["trace.extra_jobs"] = (extra, "count")
        if extra != 0 or rounds[0].jobs != warm[0].jobs:
            checks.append(f"tracing changed the job count per query by {extra}")
        per_layer.update(quality)

    for r in rounds:
        for f in r.failures:
            print(f"query {r.index} (seed {r.seed}) FAILED: {f}", file=sys.stderr)
    for c in checks:
        print(f"self-check FAILED: {c}", file=sys.stderr)

    st = stamp(spark, w, args.seed, root, rounds[0].pre)
    metrics = per_layer if args.trace else e2e
    _write_spans(work, args, st, run.tracer)
    print("stamp " + json.dumps(st, sort_keys=True))
    print(f"rounds {len(rounds)} (untraced {n}), failed {failed}")
    for name, (v, unit) in {**e2e, **quality, **per_layer}.items():
        print(f"{name:34s} {'missing' if v is None else format(v, '.6g'):>14s} {unit}")
    for note in notes + layer_notes:
        print("note: " + note)
    result = {
        "correct": not checks and failed == 0,
        "attempted": len(rounds),
        "failed": failed,
        "metrics": {k: ({"value": v, "unit": u} if v is not None
                        else {"value": None, "unit": u, "missing": True})
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _write_spans(work: Path, args, st: dict, tracer: Tracer) -> None:
    path = work / f"spans-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    spans = [{"name": s.name, "query": s.query, "parent": s.parent, "start": s.start,
              "end": s.end, "group": s.group} for s in tracer.spans]
    path.write_text(json.dumps({"stamp": st, "spans": spans}))
