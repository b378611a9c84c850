"""Closed-loop benchmark of ISLA approximate AVG on Spark.

    python3 perfbench/run.py --workload skew-compare --seed 1 --seconds 15 --trace 0

Run from the repository root. It imports the program from ``src/``, runs one
workload (see README.md) for ``--seconds`` and prints a report whose last
line is one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
Everything it writes goes under ``.bench_build/`` in the working tree.
"""
import time

T_START = time.time()  # set-up time counts from here

import argparse  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

MASTER = "local[4]"
DRIVER_MEMORY = "3g"
# A fixed young generation and the parallel collector make the JVM's peak
# RSS repeat within ~10% across runs; with G1's adaptive sizing it varied
# by up to 40% between seeds of the same workload.
JVM_GC = "-XX:+UseParallelGC -Xmn512m -XX:-UsePerfData"
DEADLINE_S = 150  # a run must end within 180 s, shutdown included


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["iid-scan", "noniid-blocks", "skew-compare"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro").is_dir():
        print(f"no program to benchmark: {src / 'repro'} is missing", file=sys.stderr)
        return 2
    work = root / ".bench_build" / "perfbench"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    # Keep every temporary file of Python, the JVM and Spark in the tree.
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {MASTER} --driver-memory {DRIVER_MEMORY} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--driver-java-options '-Djava.io.tmpdir={work / 'tmp'} {JVM_GC}' pyspark-shell"
    )
    os.environ["MALLOC_ARENA_MAX"] = "2"  # fewer malloc arenas: steadier peak RSS
    # spark-submit first runs a small launcher JVM; keep its files in the tree too.
    os.environ["SPARK_LAUNCHER_OPTS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={work / 'tmp'}"
    os.environ.pop("SPARK_LOCAL_DIRS", None)
    sys.path.insert(0, str(src))

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        from bench import run

        return run(args, T_START, root, work)
    except Deadline as exc:
        print(exc, file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        _stop_jvm()


def _stop_jvm() -> None:
    """End the driver JVM started for this run and wait for it."""
    if "pyspark" not in sys.modules:
        return
    from pyspark import SparkContext

    gw = SparkContext._gateway
    proc = getattr(gw, "proc", None)
    if proc is None:
        return
    try:
        gw.shutdown()
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
