"""ZeroED pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the workload's tables from the seed,
sets up Spark (``local[CORES]``, fixed shuffle partitions), runs one
warm-up iteration, then runs iterations back to back (closed loop, one
client) for ``--seconds``. Every iteration's outputs are checked; a check
that fails counts the run as failed and makes ``correct`` false.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones (medians over the untraced iterations, and the run's one
cold set-up); with ``--trace 1``
untraced and traced iterations alternate, the per-layer metrics come from
the traced ones, and the spans are written to
``perfbench/out/trace-<workload>-<seed>.json``. The line before it records
the environment and the sample counts.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
OUT = HERE / "out"

CORES = 1  # F1 depends on the core count; keep it pinned
SHUFFLE_PARTITIONS = 2
DRIVER_MEMORY = "1g"
MIN_ITERATIONS = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def prepare_env() -> None:
    """Python paths for the driver and for Spark's Python workers, which
    start from the JVM's environment, and scratch space in the checkout."""
    for d in ("tmp", "spark-local"):
        (WORK / d).mkdir(parents=True, exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(WORK / "tmp")
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    sys.path.insert(0, str(SRC))


def start_session():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.master(f"local[{CORES}]").appName("perfbench")
        .config("spark.driver.memory", DRIVER_MEMORY)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={WORK / 'tmp'}")
        .config("spark.local.dir", str(WORK / "spark-local"))
        .config("spark.executorEnv.PYTHONPATH", os.environ["PYTHONPATH"])
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        # per-span job counts read the status store; keep every job of a run
        .config("spark.ui.retainedJobs", "1000000")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.default.parallelism", str(CORES))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


class SparkJobs:
    """Job groups and job counts of one SparkContext."""

    def __init__(self, sc):
        self.sc = sc

    def set_group(self, group: str | None) -> None:
        if group is None:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
        else:
            self.sc.setJobGroup(group, group)

    def count(self, group: str) -> int:
        return len(self.sc.statusTracker().getJobIdsForGroup(group))

    def total(self) -> int:
        """Jobs submitted to the session so far."""
        return self.sc._jsc.sc().dagScheduler().numTotalJobs()

    def drain(self) -> None:
        """Wait until the status store has seen every posted job event."""
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()


def vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def environment(spark, args) -> dict:
    sc = spark.sparkContext
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "master": sc.master, "cores": CORES,
        "default_parallelism": sc.defaultParallelism,
        "shuffle_partitions": int(spark.conf.get("spark.sql.shuffle.partitions")),
        "nproc": os.cpu_count(),
        "spark": spark.version,
        "java": sc._jvm.System.getProperty("java.version"),
        "python": platform.python_version(),
    }


def stop_spark(spark) -> None:
    """Stop the session, then the JVM, and wait for it to exit."""
    from pyspark import SparkContext

    spark.stop()
    gw = SparkContext._gateway
    if gw is None:
        return
    proc = getattr(gw, "proc", None)
    gw.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=30)
        except Exception:  # noqa: BLE001 - fall back to killing it
            proc.kill()
            proc.wait()


def run_all(args) -> int:
    """Every workload of BENCHMARK.json, each in its own process; prints
    each workload's result line, then one line with all of them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        print(json.dumps({"workload": w, "returncode": proc.returncode, "result": res}))
        if res is None:
            total["correct"] = False
            continue
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "core" / "zeroed.py").is_file():
        print(f"perfbench: {SRC} does not hold the repro package", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    prepare_env()
    try:
        return bench(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def traced_iteration(w, spark, ds, seed, tracer, jobs, i, problems):
    """One iteration with every layer wrapped; returns (wall, detections,
    per-layer values)."""
    from layers import instrumented
    from metrics import BASELINES, SPAN_METRICS
    from spans import aggregate
    from workloads import f1, run_iteration

    tracer.iteration, tracer.truth = i, ds.error_mask
    j0 = jobs.total()
    with instrumented(tracer), tracer.span("bench.iteration") as root:
        dets = run_iteration(w, spark, ds, seed)
    jobs.drain()
    spans = tracer.iteration_spans(i)
    tracer.resolve_jobs(spans)
    delta = jobs.total() - j0
    attributed = sum(s.jobs for s in spans)
    if attributed != delta:
        problems.append(
            f"iteration {i}: spans hold {attributed} Spark jobs, the session ran {delta}")

    agg = aggregate(spans)
    v = {name: agg.get(span, {}).get(key, 0) for name, span, key, _u, _b in SPAN_METRICS}
    fits = v["training.mlp.fits"]
    v["training.mlp.jobs_per_fit"] = v["training.mlp.spark_jobs"] / fits if fits else 0.0
    v["training.mlp.constant_attrs"] = agg.get("training.mlp", {}).get("attrs", 0) - fits
    lab = agg.get("labeling.label", {})
    labeled = lab.get("cells_labeled", 0)
    v["labeling.label_accuracy"] = lab.get("labels_correct", 0) / labeled if labeled else 0.0
    by_name = {d.name: d for d in dets}
    for b in BASELINES:
        d = by_name.get(b)
        v[f"baselines.{b}.f1"] = f1(d.mask, ds) if d and d.mask is not None else 0.0
    v["trace.unaccounted_s"] = agg["bench.iteration"]["self_s"]
    v["spark.jobs"] = delta
    wall = root.end - root.start
    return wall, dets, v


def bench(args) -> int:
    from pyspark import SparkContext

    from metrics import END_TO_END, PER_LAYER
    from spans import Tracer
    from workloads import WORKLOADS, Checker, iteration_metrics, make_dataset, run_iteration

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]

    # set-up, one cold sample per run: JVM launch and session start, table
    # generation and load into Spark, and one warm-up iteration, which pays
    # for class loading, query compilation, JIT and Python worker start-up
    # so that wall_s does not; the warm-up's outputs are the reference the
    # measured iterations must repeat
    t0 = time.perf_counter()
    spark = start_session()
    jvm_launch_s = time.perf_counter() - t0
    proc = getattr(SparkContext._gateway, "proc", None)
    jvm_pid = proc.pid if proc is not None else 0
    try:
        t1 = time.perf_counter()
        ds = make_dataset(w, args.seed)
        generate_s = time.perf_counter() - t1
        ds.dirty_spark(spark).count()
        env = environment(spark, args)
        jobs = SparkJobs(spark.sparkContext)
        checker = Checker(ds, w.name)
        t1 = time.perf_counter()
        checker.check(run_iteration(w, spark, ds, args.seed), 0)
        warmup_s = time.perf_counter() - t1
        setup_s = time.perf_counter() - t0

        # closed loop; with --trace 1 every second iteration is traced
        tracer = Tracer(jobs)
        untraced, traced = [], []
        start = time.perf_counter()
        i = 0
        while True:
            i += 1
            if args.trace and i % 2 == 0:
                wall, dets, v = traced_iteration(
                    w, spark, ds, args.seed, tracer, jobs, i, checker.problems)
                traced.append({**v, "trace.wall_s": wall})
            else:
                t0 = time.perf_counter()
                dets = run_iteration(w, spark, ds, args.seed)
                wall = time.perf_counter() - t0
                untraced.append(iteration_metrics(dets, ds, wall))
            checker.check(dets, i)
            done = len(untraced) + len(traced)
            enough = done >= MIN_ITERATIONS and (traced or not args.trace)
            if enough and time.perf_counter() - start + wall > args.seconds:
                break
        peak_rss_mb = vm_hwm_mb(os.getpid()) + (vm_hwm_mb(jvm_pid) if jvm_pid else 0.0)
    finally:
        stop_spark(spark)

    med = statistics.median
    untraced_wall = med([m["wall_s"] for m in untraced])
    if not args.trace:
        values = {k: med([m[k] for m in untraced]) for k in untraced[0]}
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {n: {"value": values[n], "unit": u} for n, u, _b in END_TO_END}
    else:
        values = {k: med([v[k] for v in traced]) for k in traced[0]}
        values["datasets.generate_s"] = generate_s
        values["setup.jvm_launch_s"] = jvm_launch_s
        values["setup.warmup_s"] = warmup_s
        values["trace.overhead_s"] = values["trace.wall_s"] - untraced_wall
        metrics = {n: {"value": values[n], "unit": u} for n, u, _b in PER_LAYER}
        trace_file = OUT / f"trace-{w.name}-{args.seed}.json"
        tracer.dump(trace_file, env=env, metrics=values)
        env["trace_file"] = str(trace_file.relative_to(ROOT))

    for p in checker.problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "env": env, "jvm_launch_s": jvm_launch_s, "warmup_s": warmup_s,
        "samples": {"untraced": len(untraced), "traced": len(traced)},
        "untraced_walls": [m["wall_s"] for m in untraced],
    }))
    correct = checker.failed == 0 and not checker.problems
    print(json.dumps({
        "correct": correct, "attempted": checker.attempted,
        "failed": checker.failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
