import os
import sys


def _driver_mem() -> str:
    """Heap for the Spark driver JVM: half of MemTotal in whole GiB,
    clamped to 2–8 GiB, unless SPARK_DRIVER_MEM overrides it.

    ``spark.driver.memory`` is read at JVM launch, not from SparkConf, so
    it must be in PYSPARK_SUBMIT_ARGS before pyspark is imported anywhere
    — this runs at conftest import, which pytest loads before any test
    module.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "meminfo"
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    return f"{min(8, max(2, int(line.split()[1]) // 2097152))}g"
    except (OSError, ValueError):
        pass
    return "2g"


os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    f"--conf spark.driver.host=127.0.0.1 "
    f"--conf spark.ui.enabled=false "
    "pyspark-shell",
)

import pytest  # noqa: E402
from pyspark.sql import SparkSession  # noqa: E402


def make_spark(app: str) -> SparkSession:
    """A local-mode SparkSession, shared by the tests and the
    ``jobs/paper_tables.py`` harness.

    Master and driver memory come from ``PYSPARK_SUBMIT_ARGS`` (set above,
    pre-JVM-launch). Per-session configs that *are* honoured post-launch
    (shuffle partitions, Arrow, broadcast threshold) are set here.
    Broadcast joins are disabled so papers about shuffle/join algorithms
    actually exercise the shuffle path at SF~=0.1; a reproduction that
    wants a broadcast join sets the threshold back for that query.
    """
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session."""
    s = make_spark("repro")
    # One line in the test log that records the driver heap and where
    # it came from.
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
