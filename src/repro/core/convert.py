"""Conversions between the backend's DataFrame arrays and the
interpreter's dict arrays, plus result canonicalization for tests."""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from . import ast as A
from .backend import array_schema, py_value


def df_to_dict(df: DataFrame, ndims: int) -> dict:
    """Array DataFrame ``(_k1.._kn, _v)`` → Python dict."""
    out = {}
    for row in df.collect():
        key = tuple(row[j] for j in range(ndims))
        out[key if ndims > 1 else key[0]] = py_value(row[ndims])
    return out


def dict_to_df(spark: SparkSession, d: dict, arr_type: A.TArray) -> DataFrame:
    """Python dict → array DataFrame with the canonical schema."""
    rows = []
    for k, v in d.items():
        key = k if isinstance(k, tuple) else (k,)
        rows.append(tuple(key) + (v,))
    return spark.createDataFrame(rows, array_schema(arr_type))


def approx_dict_equal(a: dict, b: dict, tol: float = 1e-6) -> bool:
    """Compare two array dicts with float tolerance (tuples recursed)."""
    if set(a) != set(b):
        return False

    def eq(x, y):
        if isinstance(x, tuple) and isinstance(y, tuple):
            return len(x) == len(y) and all(eq(p, q) for p, q in zip(x, y))
        if isinstance(x, float) or isinstance(y, float):
            return abs(x - y) <= tol * max(1.0, abs(x), abs(y))
        return x == y

    return all(eq(a[k], b[k]) for k in a)
