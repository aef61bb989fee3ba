"""Print what the Spark engine does for each suite program, to diff two
versions of the compiler: a change that should leave the generated
queries alone must leave this output byte-identical.

For the 18 suite programs at ``tiny`` size, compiled with ``fuse`` on and
off, and for KMeans and PageRank at ``num_steps=4``, it prints:

* every ``spark.sql`` text, in order;
* the number of Spark jobs the run and the collection of its outputs
  launched;
* the number of ``localCheckpoint`` calls;
* a digest of the outputs (arrays as sorted dicts, then ``repr``);
* the exchange and join nodes in each output array's executed plan, so
  that a change that must alter the SQL text can show that the physical
  shape stayed the same, and its whole-stage codegen subtrees: each is
  one Java class that Spark compiles when the plan runs, and that its
  codegen cache may evict between runs.

Spark runs on ``local[2]`` (unless ``PYSPARK_SUBMIT_ARGS`` names another
master; the first line of the output shows it) with 8 shuffle partitions
and adaptive query execution off, so job counts repeat from run to run.

Run: ``python jobs/sql_compare.py > out.txt`` from the repository root,
once per version, and diff the two files.
"""
import hashlib
import os
import re
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

os.environ["SPARK_MASTER"] = "local[2]"
import conftest  # noqa: E402  (sets the master and the driver's memory before the JVM starts)

from pyspark.sql import SparkSession  # noqa: E402

from repro.core import ast as A  # noqa: E402
from repro.core.convert import df_to_dict  # noqa: E402
from repro.core.pipeline import compile_program, run_program  # noqa: E402
from repro.programs.suite import BY_NAME, PROGRAMS, build_envs  # noqa: E402

LOOPS = {"KMeans": 4, "PageRank": 4}  # num_steps of the looped runs


def session() -> SparkSession:
    spark = conftest.make_spark("sql_compare")
    spark.conf.set("spark.sql.shuffle.partitions", 8)
    spark.conf.set("spark.sql.adaptive.enabled", False)
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def digest(outs: dict, types: dict) -> str:
    """A digest of the output values: arrays as dicts sorted by key."""
    text = repr([
        (k, sorted(df_to_dict(v, types[k].ndims).items(), key=repr)
         if isinstance(types.get(k), A.TArray) else v)
        for k, v in sorted(outs.items())
    ])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


_NODE = re.compile(r"[\s:|+\-]*(?:\*\((\d+)\)\s*)?([A-Za-z]+)")


def plan_shape(df) -> str:
    """``exchanges E joins J codegen C`` of a DataFrame's executed plan:
    C counts its whole-stage codegen subtrees (the ``*(n)`` ids)."""
    plan = df._jdf.queryExecution().executedPlan().toString()
    nodes = [m.groups() for ln in plan.splitlines() if (m := _NODE.match(ln))]
    ex = sum(n.endswith("Exchange") and n != "ReusedExchange" for _, n in nodes)
    joins = sum(n.endswith("Join") or n == "CartesianProduct" for _, n in nodes)
    codegen = len({i for i, _ in nodes if i is not None})
    return f"exchanges {ex} joins {joins} codegen {codegen}"


def run(spark, prog, fuse: bool, steps=None):
    """The SQL texts, job count, checkpoint count, output digest and
    output plan shapes of one run of ``prog``."""
    spark_env, _, types = build_envs(prog, "tiny", spark)
    if steps is not None:
        spark_env["num_steps"] = steps
    comp = compile_program(prog.source, types, fuse=fuse)
    sqls, checkpoints = [], [0]
    frame = type(spark.range(0))  # the session's DataFrame class
    sql, local_checkpoint = SparkSession.sql, frame.localCheckpoint

    def counting_sql(self, text, *args, **kwargs):
        sqls.append(text)
        return sql(self, text, *args, **kwargs)

    def counting_checkpoint(self, *args, **kwargs):
        checkpoints[0] += 1
        return local_checkpoint(self, *args, **kwargs)

    sc = spark.sparkContext
    group = f"{prog.name}/{fuse}/{steps}"
    sc.setJobGroup(group, group)
    SparkSession.sql, frame.localCheckpoint = counting_sql, counting_checkpoint
    try:
        env = run_program(comp, spark_env, spark)
    finally:
        SparkSession.sql, frame.localCheckpoint = sql, local_checkpoint
    out = digest({k: env[k] for k in prog.outputs}, comp.types)
    sc._jsc.sc().listenerBus().waitUntilEmpty()  # the status store has every job
    jobs = len(sc.statusTracker().getJobIdsForGroup(group))
    shapes = {k: plan_shape(env[k]) for k in prog.outputs if isinstance(comp.types.get(k), A.TArray)}
    return sqls, jobs, checkpoints[0], out, shapes


def main():
    spark = session()
    print(f"master {spark.sparkContext.master}")
    runs = [(p, fuse, None) for p in PROGRAMS for fuse in (True, False)]
    runs += [(BY_NAME[n], True, s) for n, s in LOOPS.items()]
    for prog, fuse, steps in runs:
        sqls, jobs, checkpoints, out, shapes = run(spark, prog, fuse, steps)
        print(f"== {prog.name} fuse={fuse}" + (f" num_steps={steps}" if steps else ""))
        for i, text in enumerate(sqls):
            print(f"-- sql {i}: {text}")
        print(f"jobs {jobs}  checkpoints {checkpoints}  sql {len(sqls)}  outputs {out}")
        for k, shape in shapes.items():
            print(f"plan {k}: {shape}")
    spark.stop()


if __name__ == "__main__":
    main()
