"""Synthetic array datasets for the 18 loop programs (paper Section 6).

Each generator returns an ``ArrayData`` carrying a pandas frame with key
columns ``_k1.._kn`` plus one or more value columns; ``.df(spark)``
packs it into the backend's array representation (multi-column values
become a struct ``_v``), and ``.dict()`` into the interpreter's dict
representation. Generators are deterministic in ``seed``, so every
engine and the DuckDB oracle see identical input.
"""
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as _F

from repro.core import ast as _A


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _basic_type_of(dtype) -> "_A.TBasic":
    k = str(dtype)
    if k.startswith("int") or k.startswith("uint"):
        return _A.TBasic("long")
    if k.startswith("float"):
        return _A.TBasic("double")
    if k == "bool":
        return _A.TBasic("bool")
    return _A.TBasic("string")


@dataclass
class ArrayData:
    """A generated sparse array: pandas storage + both runtime views."""

    pdf: "pd.DataFrame"
    ndims: int
    val_cols: list
    record: bool = False  # True: named record fields; False: tuple/scalar

    def arr_type(self) -> "_A.TArray":
        vts = [_basic_type_of(self.pdf[c].dtype) for c in self.val_cols]
        if len(self.val_cols) == 1 and not self.record:
            elem = vts[0]
        elif self.record:
            elem = _A.TRecord(tuple(zip(self.val_cols, vts)))
        else:
            elem = _A.TTuple(tuple(vts))
        key = _basic_type_of(self.pdf["_k1"].dtype)
        return _A.TArray(self.ndims, elem, key)

    def df(self, spark: SparkSession) -> DataFrame:
        sdf = spark.createDataFrame(self.pdf)
        keys = [f"_k{i + 1}" for i in range(self.ndims)]
        if len(self.val_cols) == 1 and not self.record:
            return sdf.select(*keys, _F.col(self.val_cols[0]).alias("_v"))
        names = (
            self.val_cols
            if self.record
            else [f"_{i + 1}" for i in range(len(self.val_cols))]
        )
        struct = _F.struct(
            *[_F.col(c).alias(n) for c, n in zip(self.val_cols, names)]
        )
        return sdf.select(*keys, struct.alias("_v"))

    def dict(self) -> dict:
        keys = list(
            zip(*[self.pdf[f"_k{i + 1}"].tolist() for i in range(self.ndims)])
        )
        if self.ndims == 1:
            keys = [k[0] for k in keys]
        cols = [self.pdf[c].tolist() for c in self.val_cols]
        if len(self.val_cols) == 1 and not self.record:
            vals = cols[0]
        elif self.record:
            vals = [
                dict(zip(self.val_cols, row)) for row in zip(*cols)
            ]
        else:
            vals = list(zip(*cols))
        return dict(zip(keys, vals))


def doubles(n: int, *, seed: int = 0, lo: float = 0.0, hi: float = 1000.0) -> ArrayData:
    """Vector of random doubles (Conditional Sum/Count, Sum, Average)."""
    g = _rng(seed)
    return ArrayData(
        pd.DataFrame({"_k1": np.arange(n), "v": g.random(n) * (hi - lo) + lo}),
        1,
        ["v"],
    )


def words(n: int, *, n_distinct: int = 1000, seed: int = 1) -> ArrayData:
    """Vector of random 4-char strings with ``n_distinct`` distinct
    values (Equal, String Match, Word Count, Equal Frequency)."""
    g = _rng(seed)
    vocab = np.array([f"k{i:03d}" for i in range(n_distinct)])
    vocab[:3] = ["key1", "key2", "key3"]
    return ArrayData(
        pd.DataFrame({"_k1": np.arange(n), "v": vocab[g.integers(0, n_distinct, n)]}),
        1,
        ["v"],
    )


def equal_words(n: int, *, value: str = "same") -> ArrayData:
    """All-equal string vector (the Equal program's positive case)."""
    return ArrayData(
        pd.DataFrame({"_k1": np.arange(n), "v": np.full(n, value)}), 1, ["v"]
    )


def pixels(n: int, *, seed: int = 2) -> ArrayData:
    """RGB pixel records (Histogram)."""
    g = _rng(seed)
    return ArrayData(
        pd.DataFrame(
            {
                "_k1": np.arange(n),
                "red": g.integers(0, 256, n),
                "green": g.integers(0, 256, n),
                "blue": g.integers(0, 256, n),
            }
        ),
        1,
        ["red", "green", "blue"],
        record=True,
    )


def linreg_points(n: int, *, seed: int = 3) -> ArrayData:
    """2-D points ``(x+dx, x-dx)`` with x∈[0,1000), dx∈[0,10) — the
    paper's Linear Regression dataset."""
    g = _rng(seed)
    x = g.random(n) * 1000
    dx = g.random(n) * 10
    return ArrayData(
        pd.DataFrame({"_k1": np.arange(n), "x": x + dx, "y": x - dx}),
        1,
        ["x", "y"],
    )


def gb_pairs(n: int, *, dup: int = 10, seed: int = 4) -> ArrayData:
    """Records (K, A) with ~``dup`` duplicates per key (Group-By)."""
    g = _rng(seed)
    return ArrayData(
        pd.DataFrame(
            {
                "_k1": np.arange(n),
                "K": g.integers(0, max(1, n // dup), n),
                "A": g.random(n),
            }
        ),
        1,
        ["K", "A"],
        record=True,
    )


def dense_matrix(n: int, m: int, *, seed: int = 5, lo: float = 0.0, hi: float = 10.0) -> ArrayData:
    """Dense matrix stored sparsely: all n*m elements, random order,
    values in [lo, hi) (Matrix Addition/Multiplication, PCA)."""
    g = _rng(seed)
    ii, jj = np.meshgrid(np.arange(n), np.arange(m), indexing="ij")
    perm = g.permutation(n * m)
    return ArrayData(
        pd.DataFrame(
            {
                "_k1": ii.ravel()[perm],
                "_k2": jj.ravel()[perm],
                "v": g.random(n * m) * (hi - lo) + lo,
            }
        ),
        2,
        ["v"],
    )


def rmat_edges(n_vertices: int, n_edges: int, *, seed: int = 6,
               a: float = 0.30, b: float = 0.25, c: float = 0.25) -> ArrayData:
    """RMAT graph (Kronecker parameters a=0.30 b=0.25 c=0.25 d=0.20,
    the paper's PageRank generator [11]); boolean adjacency matrix,
    duplicate edges removed."""
    g = _rng(seed)
    levels = int(np.ceil(np.log2(max(2, n_vertices))))
    n_try = int(n_edges * 1.3) + 16
    probs = np.array([a, b, c, 1.0 - a - b - c])
    quad = g.choice(4, size=(n_try, levels), p=probs)
    ibits = (quad >= 2).astype(np.int64)  # quadrants 2,3 set the row bit
    jbits = (quad % 2).astype(np.int64)  # quadrants 1,3 set the col bit
    weights = 1 << np.arange(levels - 1, -1, -1, dtype=np.int64)
    src = (ibits * weights).sum(axis=1) % n_vertices
    dst = (jbits * weights).sum(axis=1) % n_vertices
    pdf = pd.DataFrame({"_k1": src, "_k2": dst}).drop_duplicates().head(n_edges)
    pdf = pdf.reset_index(drop=True)
    pdf["v"] = True
    return ArrayData(pdf, 2, ["v"])


def kmeans_points(n: int, *, grid: int = 10, seed: int = 7) -> ArrayData:
    """Random points inside a grid of unit squares with top-left corners
    (i*2+1, j*2+1) — the paper's K-Means dataset (100 true centroids)."""
    g = _rng(seed)
    sq = g.integers(0, grid * grid, n)
    si, sj = sq // grid, sq % grid
    return ArrayData(
        pd.DataFrame(
            {
                "_k1": np.arange(n),
                "x": si * 2 + 1 + g.random(n),
                "y": sj * 2 + 1 + g.random(n),
            }
        ),
        1,
        ["x", "y"],
    )


def kmeans_centroids(*, grid: int = 10) -> ArrayData:
    """Initial centroids (i*2+1.2, j*2+1.2)."""
    idx = np.arange(grid * grid)
    si, sj = idx // grid, idx % grid
    return ArrayData(
        pd.DataFrame(
            {
                "_k1": idx,
                "x": (si * 2 + 1.2).astype("float64"),
                "y": (sj * 2 + 1.2).astype("float64"),
            }
        ),
        1,
        ["x", "y"],
    )


def ratings(n: int, m: int, *, frac: float = 0.1, seed: int = 8) -> ArrayData:
    """Sparse rating matrix: ``frac`` of the n*m cells provided, integer
    values 1..5 stored as doubles (Matrix Factorization's R)."""
    g = _rng(seed)
    k = max(1, int(n * m * frac))
    cells = g.choice(n * m, size=k, replace=False)
    return ArrayData(
        pd.DataFrame(
            {
                "_k1": cells // m,
                "_k2": cells % m,
                "v": g.integers(1, 6, k).astype("float64"),
            }
        ),
        2,
        ["v"],
    )


def factor_matrix(n: int, l: int, *, seed: int = 9) -> ArrayData:
    """Dense factor matrix (n×l) with values in [0,1) (MF's P'/Q')."""
    g = _rng(seed)
    ii, jj = np.meshgrid(np.arange(n), np.arange(l), indexing="ij")
    return ArrayData(
        pd.DataFrame(
            {"_k1": ii.ravel(), "_k2": jj.ravel(), "v": g.random(n * l)}
        ),
        2,
        ["v"],
    )
