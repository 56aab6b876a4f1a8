"""Layer-by-layer benchmark of the Q-Graph reproduction's running cost.

    python3 perfbench/run.py --workload trace_cold|adapt_warm \
        [--seed N] [--seconds S] [--trace 0|1]

One process, one Spark ``local[N]`` session (N = min(4, cores)), started
fresh on every run, with a trace cache of its own under ``.work/``. The JVM
runs with the C1 compiler only and a fixed heap: in JVMs that live for two
traces, the C2 compiler's work competes with Spark's tasks for the cores and
its timing spread the timed trace by 0.25 (IQR/median over five seeds)
against 0.065 with C1 only. Before anything is timed the JVM runs one trace
of 128 queries: on ``adapt_warm`` the workload's own, which fills the cache;
on ``trace_cold`` that of another query set, after which the cache is
emptied again. Each run then times exactly one pass; ``--seconds`` is
accepted and has no effect, as a pass takes 10 to 20 s.

Time is reported as CPU seconds, user plus system, of the benchmark process
and every process it starts (the Spark JVM and its children), read from
``/proc``. On a shared virtual machine the pass's wall time grew by about
five times the hypervisor's steal share (adapt_warm: 10 s at no steal, 17 s
at 13%), which no number of runs averages away; CPU time grew less. ``cpu_s``
covers the timed pass; ``setup_s`` covers what comes before it: the session
start, the warm-up trace, and the median of nine in-process repeats of graph
and query generation (and, on ``adapt_warm``, of the trace-cache load). The
pass's wall time and the steal share are printed with the run's environment.

The pass's simulated outputs are checked against a fingerprint: the seed's
entry in ``golden.json`` when there is one, else the first run of that seed
in this checkout (kept under ``.cache/``). The engine's SSSP distances are
also checked against Dijkstra.

``--trace 1`` runs set-up and the pass with spans around every layer
(:mod:`tracer`) and reports per-layer metrics instead of end-to-end ones.
The last line of standard output is the result as one JSON object; the line
before it holds the run's environment and diagnostics.

The simulated latencies are the paper's result and must not change; the
cost of producing them is what this benchmark measures.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(BENCH_DIR, "golden.json")
CACHE = os.path.join(BENCH_DIR, ".cache")  # fingerprints of seeds not in golden.json
SETUP_REPEATS = 9
WARMUP_SEED_OFFSET = 1_000_000  # trace_cold's warm-up traces seed + this
SHUFFLE_PARTITIONS = 16  # as jobs/_session.py, the pipeline's entry point


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["trace_cold", "adapt_warm"])
    p.add_argument("--seed", type=int, default=None,
                   help="query generator seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=1.0,
                   help="accepted for the benchmark driver; a run always times one pass")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def configure_spark_env(work: str, cores: int) -> str:
    """Pin the session before pyspark is imported: local[cores], C1-only JIT
    and a fixed heap, quiet
    logging, no progress bar, and every temp file inside ``work``."""
    local = os.path.join(work, "spark")
    tmp = os.path.join(work, "tmp")
    os.makedirs(local)
    os.makedirs(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = local
    os.environ["TMPDIR"] = tmp
    os.environ["PYSPARK_PYTHON"] = sys.executable
    log4j = os.path.join(BENCH_DIR, "log4j2.properties")
    java_opts = " ".join([
        f"-Djava.io.tmpdir={tmp}", "-XX:-UsePerfData", f"-Dlog4j2.configurationFile=file:{log4j}",
        "-XX:TieredStopAtLevel=1", "-Xms2g",  # see the module docstring
    ])
    os.environ["SPARK_LAUNCHER_OPTS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    master = f"local[{cores}]"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--master", master,
        "--driver-memory", "2g",
        "--driver-java-options", shlex.quote(java_opts),
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "--conf", "spark.ui.retainedJobs=100000",
        "--conf", shlex.quote(f"spark.local.dir={local}"),
        "--conf", shlex.quote(f"spark.sql.warehouse.dir={os.path.join(work, 'warehouse')}"),
        "pyspark-shell",
    ])
    return master


def start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def cpu_s() -> float:
    """CPU seconds, user plus system, of this process and every process it
    started, live or reaped (the Spark JVM and anything the JVM starts)."""
    parent, used = {}, {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:  # exited while listing
            continue
        parent[int(name)] = int(fields[1])
        used[int(name)] = sum(map(int, fields[11:15]))  # utime stime cutime cstime
    me = os.getpid()

    def mine(pid: int) -> bool:
        while pid > 1:
            if pid == me:
                return True
            pid = parent.get(pid, 0)
        return False

    return sum(t for pid, t in used.items() if mine(pid)) / os.sysconf("SC_CLK_TCK")


def steal_total() -> tuple[int, int]:
    """The machine's CPU time stolen by the hypervisor, and in total, in
    ticks, from /proc/stat."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:9]]
    return ticks[7], sum(ticks)


def jvm_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def stop_spark(spark) -> None:
    """Stop the session and wait until the JVM it launched has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = gateway.proc
    spark.stop()
    gateway.shutdown()
    proc.stdin.close()  # the gateway JVM exits on EOF
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def load_json(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def save_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.write("\n")


def mismatches(fp: dict, ref: dict) -> int:
    """Configuration runs whose fingerprint differs from ``ref``; all of
    them when the trace itself differs."""
    if fp["trace"] != ref["trace"]:
        return len(ref["configs"])
    return sum(fp["configs"].get(name) != want for name, want in ref["configs"].items())


def reference(workload: str, seed: int, fp: dict) -> tuple[dict, str]:
    """The fingerprint a run of ``seed`` must match: the entry committed in
    ``golden.json`` when there is one, else the first run of that seed in
    this checkout (kept under ``.cache/``), so that later runs, traced or
    not, must agree with it."""
    golden = load_json(GOLDEN).get(workload, {})
    if str(seed) in golden:
        return golden[str(seed)], "golden.json"
    memo = os.path.join(CACHE, f"{workload}-{seed}.json")
    if not os.path.exists(memo):
        save_json(memo, fp)
    return load_json(memo), "first run of this seed"


def run(args, spark, sc, trace_cache: str, info: dict) -> dict:
    from repro.controller import simulator
    from repro.experiments import trace_for
    from repro.roadnet.datasets import bw_lite

    import workloads as W
    from tracer import JOB_GROUP, Tracer

    wl = W.WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    info["seed"] = seed
    errors: list[str] = []

    def group(name: str) -> None:
        sc.setLocalProperty(JOB_GROUP, name)

    def jobs(name: str) -> int:
        return len(sc.statusTracker().getJobIdsForGroup(name))

    # The first trace in a fresh JVM takes about twice as long as later
    # ones and spreads widely with the host's load, so both workloads time
    # a JVM that has run exactly one trace, untimed: adapt_warm's own cache
    # fill, or for trace_cold a trace of another query set on a cache that
    # is emptied again, so that the timed trace misses.
    group("warmup")
    t0, cpu0 = time.perf_counter(), cpu_s()
    net = bw_lite()
    trace_for(spark, net, wl.queries(net, seed if wl.warm else seed + WARMUP_SEED_OFFSET))
    info["warmup_s"] = time.perf_counter() - t0
    info["warmup_cpu_s"] = cpu_s() - cpu0
    info["warmup_jobs"] = jobs("warmup")
    if not wl.warm:
        shutil.rmtree(trace_cache)
        os.makedirs(trace_cache)

    tracer = Tracer(sc) if args.trace else None

    def span(layer: str):
        return tracer.span(layer) if tracer else contextlib.nullcontext()

    def setup():
        bw_lite.cache_clear()
        with span("roadnet"):
            net = bw_lite()
        with span("queries"):
            qs = wl.queries(net, seed)
        return net, qs, (trace_for(spark, net, qs) if wl.warm else None)

    with tracer or contextlib.nullcontext():
        group("setup")
        setup_times, setup_cpu = [], []
        for _ in range(1 if tracer else SETUP_REPEATS):
            t0, cpu0 = time.perf_counter(), cpu_s()
            net, qs, trace = setup()
            setup_times.append(time.perf_counter() - t0)
            setup_cpu.append(cpu_s() - cpu0)
        if wl.warm and jobs("setup"):
            errors.append("warm trace cache missed in set-up")

        group("pass")
        results = []
        steal0, cpu0 = steal_total(), cpu_s()
        pass_start = time.perf_counter()
        try:
            trace = trace if wl.warm else trace_for(spark, net, qs)
            for cfg in wl.configs:
                with span("simulator"):
                    results.append(simulator.run_experiment(spark, net, qs, trace, cfg))
        except Exception:
            traceback.print_exc()
        pass_end = time.perf_counter()
        pass_cpu_s, steal1 = cpu_s() - cpu0, steal_total()

    # share of the machine's CPU time the hypervisor gave to other guests
    # while the pass ran
    info["steal_frac"] = (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1])

    # ---- correctness, outside the timed pass --------------------------------
    attempted = len(wl.configs)
    if len(results) < attempted:
        failed = attempted - len(results)
        errors.append(f"{failed} configuration runs raised")
    else:
        if not wl.warm and not os.listdir(trace_cache):
            errors.append("cold trace cache was not filled")
        engine_bad = W.engine_errors(net, qs, trace)
        errors += engine_bad[:5]
        fp = W.fingerprint(trace, results)
        ref, info["fingerprint_ref"] = reference(wl.name, seed, fp)
        if seed == wl.default_seed and info["fingerprint_ref"] != "golden.json":
            errors.append(f"golden.json has no entry for {wl.name}'s default seed")
        bad = mismatches(fp, ref)
        if bad:
            errors.append(f"{bad} configuration runs differ from {info['fingerprint_ref']}")
        # a wrong trace makes every configuration run on it wrong
        failed = attempted if engine_bad else bad
        info["fingerprint"] = fp

    info["setup_times_s"] = setup_times
    info["wall_s"] = wall_s = pass_end - pass_start

    if tracer:
        m = tracer.layer_metrics(pass_start, pass_end)
        if wl.warm and (m["engine.spark_jobs"] or m["engine.cache_hits"] != 1):
            errors.append("warm workload did not hit the trace cache exactly once")
        if not wl.warm and not m["engine.spark_jobs"]:
            errors.append("cold workload ran no engine Spark jobs")
        m.update({
            "roadnet.vertices": net.n_vertices,
            "roadnet.edges": net.n_edges,
            "queries.count": len(qs),
            "traced.wall_s": wall_s,
            # set-up and the pass; the warm-up's jobs are in the info line
            "spark.jobs_total": jobs("setup") + jobs("pass") + sum(s.jobs for s in tracer.spans),
        })
    else:
        m = {
            "cpu_s": pass_cpu_s,
            "setup_s": info["spark_start_cpu_s"] + info["warmup_cpu_s"] + statistics.median(setup_cpu),
            "py_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    info["errors"] = errors
    return {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": m,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    work = os.path.join(BENCH_DIR, ".work", f"{args.workload}-{os.getpid()}")
    trace_cache = os.path.join(work, "traces")
    cores = min(4, len(os.sched_getaffinity(0)))
    master = configure_spark_env(work, cores)
    # Read when repro.engine.trace is first imported. The cache lives and
    # dies with the run: a cache kept across runs would let an earlier run
    # of the same seed skip the fill, leaving the JVM cold for the timed
    # pass (15 s vs 26 s per adapt_warm pass).
    os.environ["REPRO_TRACE_CACHE"] = trace_cache
    info: dict = {"workload": args.workload, "nproc": os.cpu_count(), "master": master,
                  "shuffle_partitions": SHUFFLE_PARTITIONS, "fresh_jvm": True}
    try:
        t0, cpu0 = time.perf_counter(), cpu_s()
        spark = start_spark()
        info["spark_start_s"] = time.perf_counter() - t0
        info["spark_start_cpu_s"] = cpu_s() - cpu0
        sc = spark.sparkContext
        info["spark_version"] = spark.version
        info["java_version"] = sc._jvm.System.getProperty("java.version")
        try:
            result = run(args, spark, sc, trace_cache, info)
            jvm_mb = jvm_peak_rss_mb(sc._gateway.proc.pid)
        finally:
            stop_spark(spark)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        result["metrics"]["jvm.peak_rss_mb"] = jvm_mb
    declared = load_json(os.path.join(ROOT, "BENCHMARK.json"))["per_layer" if args.trace else "end_to_end"]
    units = {d["name"]: d["unit"] for d in declared}
    if set(units) != set(result["metrics"]):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {set(units) ^ set(result['metrics'])}")
    result["metrics"] = {
        k: {"value": v, "unit": units[k]} for k, v in sorted(result["metrics"].items())
    }
    print(json.dumps({"info": info}, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
