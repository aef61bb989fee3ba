"""The benchmark's own Spark session, and Spark counters read from outside
the program: job groups, the status store and physical plans.

The driver JVM is launched once per process with a heap sized from
``/proc/meminfo`` (half the machine, clamped to 2–8 GiB) and with every
scratch directory inside the benchmark's output directory. Sessions can
then be stopped and started again on the same JVM, which is how set-up
is repeated within one run.
"""
from __future__ import annotations

import os
import re
import shlex
import subprocess


def driver_memory() -> str:
    """Half of MemTotal in whole GiB, clamped to [2, 8]."""
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    g = int(line.split()[1]) // 2097152
                    return f"{min(8, max(2, g))}g"
    except OSError:
        pass
    return "2g"


def configure_jvm(cores: int, scratch: str) -> None:
    """Set the pre-launch JVM arguments; must run before pyspark starts
    its gateway (``spark.driver.memory`` is not honoured afterwards)."""
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    # Read by every JVM the launch starts, the spark-submit launcher too:
    # no hsperfdata files, and temporary files inside the scratch tree.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={shlex.quote(tmp)}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory {driver_memory()} pyspark-shell"
    )


def start_session(conf: dict, scratch: str):
    from pyspark.sql import SparkSession

    b = SparkSession.builder.appName("perfbench")
    for k, v in conf.items():
        b = b.config(k, v)
    b = b.config("spark.local.dir", os.path.join(scratch, "spark-local"))
    b = b.config("spark.sql.warehouse.dir", os.path.join(scratch, "warehouse"))
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def shutdown(spark) -> None:
    """Stop the session, then the JVM gateway, and wait for the JVM."""
    from pyspark import SparkContext

    if spark is not None:
        spark.stop()
    gw = SparkContext._gateway
    if gw is None:
        return
    proc = getattr(gw, "proc", None)
    gw.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# ---------------------------------------------------------------- counters
_NODE = re.compile(r"^[\s:|+\-]*(?:\*\(\d+\)\s*)?([A-Za-z]+)")


def plan_counts(df) -> dict:
    """Exchange and join nodes in a DataFrame's physical plan, read
    before execution (the adaptive plan's initial form)."""
    plan = df._jdf.queryExecution().executedPlan().toString()
    ex = joins = 0
    for line in plan.splitlines():
        m = _NODE.match(line)
        if not m:
            continue
        node = m.group(1)
        if node.endswith("Exchange") and node != "ReusedExchange":
            ex += 1
        elif node.endswith("Join") or node == "CartesianProduct":
            joins += 1
    return {"exchanges": ex, "joins": joins}


def group_counters(sc, group: str) -> dict:
    """Jobs, completed stages, tasks, executor run time and shuffle bytes
    of one job group. Call ``drain`` first so the store is complete."""
    tracker = sc.statusTracker()
    store = sc._jsc.sc().statusStore()
    jobs = sorted(tracker.getJobIdsForGroup(group))
    stages = set()
    for j in jobs:
        info = tracker.getJobInfo(j)
        if info is not None:
            stages.update(info.stageIds)
    out = {"jobs": len(jobs), "stages": 0, "tasks": 0, "executor_run_s": 0.0,
           "shuffle_write_bytes": 0, "shuffle_read_bytes": 0}
    for s in sorted(stages):
        st = store.lastStageAttempt(s)
        if st.status().toString() != "COMPLETE":
            continue
        out["stages"] += 1
        out["tasks"] += st.numTasks()
        out["executor_run_s"] += st.executorRunTime() / 1000.0
        out["shuffle_write_bytes"] += st.shuffleWriteBytes()
        out["shuffle_read_bytes"] += st.shuffleReadBytes()
    return out


def drain(sc) -> None:
    """Wait until the listener bus has delivered every event to the
    status store."""
    sc._jsc.sc().listenerBus().waitUntilEmpty()
