"""Shared SparkSession builder for the spark-submit job entrypoints
(mirrors the conftest fixture configuration, including the pre-JVM
driver-memory setup: ``spark.driver.memory`` is only honoured in
``PYSPARK_SUBMIT_ARGS`` before pyspark is imported)."""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))


def _driver_mem() -> str:
    """Half of MemTotal in whole GiB, clamped to 2–8 GiB."""
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
    "--conf spark.driver.host=127.0.0.1 "
    "--conf spark.ui.enabled=false "
    "pyspark-shell",
)

from pyspark.sql import SparkSession  # noqa: E402


def get_spark(app: str) -> SparkSession:
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions",
                os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def fmt(x, digits=2):
    if x is None:
        return ""
    if x == float("inf"):
        return ">19 h"
    if isinstance(x, str):
        return x
    return f"{x:.{digits}f}"


def print_table(title, headers, rows):
    print(f"\n## {title}\n")
    print("| " + " | ".join(headers) + " |")
    print("|" + "|".join("---" for _ in headers) + "|")
    for r in rows:
        print("| " + " | ".join(str(c) for c in r) + " |")
