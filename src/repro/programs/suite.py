"""The paper's 18 benchmark programs (Section 6, Appendix B), written
in our loop language, with input generators at two sizes:

* ``tiny``  — unit-test scale, small enough for the literal loop
  interpreter (the PageRank/MatMul loops are O(N²)/O(N³) when run
  literally);
* ``bench`` — Table 2 scale, sized so ``jobs/paper_tables.py`` runs in
  about 22 minutes on 4 cores.

Each program declares which paper tables it appears in and which state
variables constitute its result.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro import synth_data as sd


@dataclass
class Program:
    name: str
    source: str
    make_inputs: Callable[[str], dict]  # size ("tiny"|"bench") → env spec
    outputs: list  # names of result state variables
    tables: tuple = ()  # which paper tables list this program
    paper_t1: Optional[dict] = None  # Table 1 row (secs): mold/casper/diablo
    paper_t2: Optional[dict] = None  # Table 2 row (secs): par/seq
    float_outputs: bool = True


# ------------------------------------------------------------- sources
SUM_SRC = """
var sum: double = 0.0;
for v in V do sum += v;
"""

COUNT_SRC = """
var cnt: long = 0;
for v in V do cnt += 1;
"""

AVERAGE_SRC = """
var sum: double = 0.0;
var cnt: long = 0;
for v in V do { sum += v; cnt += 1; };
var avg: double = 0.0;
avg := sum / cnt;
"""

COND_COUNT_SRC = """
var cnt: long = 0;
for v in V do if (v < 100.0) cnt += 1;
"""

COND_SUM_SRC = """
var sum: double = 0.0;
for v in V do if (v < 100.0) sum += v;
"""

EQUAL_SRC = """
var first: string = "";
first := W[0];
var eq: bool = true;
for w in W do eq &&= (w == first);
"""

EQUAL_FREQ_SRC = """
var C: map[string, long] = map();
for w in W do C[w] += 1;
var mx: long = 0;
var mn: long = 1000000000000;
for c in C do { mx max= c; mn min= c; };
var eqf: bool = false;
eqf := mx == mn;
"""

STRING_MATCH_SRC = """
var b1: bool = false;
var b2: bool = false;
var b3: bool = false;
for w in W do {
  if (w == "key1") b1 ||= true;
  if (w == "key2") b2 ||= true;
  if (w == "key3") b3 ||= true;
};
"""

WORD_COUNT_SRC = """
var C: map[string, long] = map();
for w in W do C[w] += 1;
"""

HISTOGRAM_SRC = """
var R: map[long, long] = map();
var G: map[long, long] = map();
var B: map[long, long] = map();
for p in P do {
  R[p.red] += 1;
  G[p.green] += 1;
  B[p.blue] += 1;
};
"""

GROUP_BY_SRC = """
var C: vector[double] = vector();
for v in V do C[v.K] += v.A;
"""

LINREG_SRC = """
var sum_x: double = 0.0;
var sum_y: double = 0.0;
var x_bar: double = 0.0;
var y_bar: double = 0.0;
var xx_bar: double = 0.0;
var yy_bar: double = 0.0;
var xy_bar: double = 0.0;
var slope: double = 0.0;
var intercept: double = 0.0;
for p in P do {
  sum_x += p._1;
  sum_y += p._2;
};
x_bar := sum_x / n;
y_bar := sum_y / n;
for p in P do {
  xx_bar += (p._1 - x_bar) * (p._1 - x_bar);
  yy_bar += (p._2 - y_bar) * (p._2 - y_bar);
  xy_bar += (p._1 - x_bar) * (p._2 - y_bar);
};
slope := xy_bar / xx_bar;
intercept := y_bar - slope * x_bar;
"""

MATADD_SRC = """
var R: matrix[double] = matrix();
for i = 0, n-1 do
  for j = 0, n-1 do
    R[i, j] := M[i, j] + N[i, j];
"""

MATMUL_SRC = """
var R: matrix[double] = matrix();
for i = 0, n-1 do
  for j = 0, n-1 do {
    R[i, j] := 0.0;
    for k = 0, n-1 do
      R[i, j] += M[i, k] * N[k, j];
  };
"""

PCA_SRC = """
var mean: vector[double] = vector();
var cov: matrix[double] = matrix();
for i = 0, n-1 do
  for j = 0, m-1 do
    mean[j] += M[i, j] / n;
for i = 0, n-1 do
  for j = 0, m-1 do
    for k = 0, m-1 do
      cov[j, k] += (M[i, j] - mean[j]) * (M[i, k] - mean[k]) / (n - 1.0);
"""

PAGERANK_SRC = """
var C: vector[long] = vector();
var P: vector[double] = vector();
for i = 0, N-1 do {
  C[i] := 0;
  P[i] := 1.0 / N;
};
for i = 0, N-1 do
  for j = 0, N-1 do
    if (E[i, j]) C[i] += 1;
var k: long = 0;
while (k < num_steps) {
  k += 1;
  var Q: matrix[double] = matrix();
  for i = 0, N-1 do
    for j = 0, N-1 do
      if (E[i, j]) Q[i, j] := P[i];
  for i = 0, N-1 do
    P[i] := (1.0 - b) / N;
  for i = 0, N-1 do
    for j = 0, N-1 do
      P[i] += b * Q[j, i] / C[j];
};
"""

KMEANS_SRC = """
var steps: long = 0;
while (steps < num_steps) {
  steps += 1;
  var closest: vector[(long, double)] = vector();
  var avg: vector[(double, double, long)] = vector();
  for i = 0, N-1 do {
    for j = 0, K-1 do
      closest[i] argmin= (j, dist2(P[i], C[j]));
    avg[closest[i]._1] += (P[i]._1, P[i]._2, 1);
  };
  for j = 0, K-1 do
    C[j] := (avg[j]._1 / avg[j]._3, avg[j]._2 / avg[j]._3);
};
"""

MATFACT_SRC = """
var pq: matrix[double] = matrix();
var err: matrix[double] = matrix();
for i = 0, n-1 do
  for j = 0, m-1 do {
    pq[i, j] := 0.0;
    for k = 0, l-1 do
      pq[i, j] += Pp[i, k] * Qp[k, j];
    err[i, j] := R[i, j] - pq[i, j];
    for k = 0, l-1 do {
      P[i, k] += a * (2.0 * err[i, j] * Qp[k, j] - b * Pp[i, k]);
      Q[k, j] += a * (2.0 * err[i, j] * Pp[i, k] - b * Qp[k, j]);
    };
  };
"""


# ------------------------------------------------------- input builders
def _flat(gen, n_tiny, n_bench, **kw):
    def make(size):
        n = n_tiny if size == "tiny" else n_bench
        return {"V": gen(n, **kw)}

    return make


def _words(n_tiny, n_bench, **kw):
    def make(size):
        n = n_tiny if size == "tiny" else n_bench
        return {"W": sd.words(n, **kw)}

    return make


def _equal_inputs(size):
    n = 60 if size == "tiny" else 8_000_000
    return {"W": sd.equal_words(n)}


def _pixels_inputs(size):
    n = 80 if size == "tiny" else 4_000_000
    return {"P": sd.pixels(n)}


def _gb_inputs(size):
    n = 100 if size == "tiny" else 2_000_000
    return {"V": sd.gb_pairs(n)}


def _linreg_inputs(size):
    n = 100 if size == "tiny" else 5_000_000
    return {"P": sd.linreg_points(n), "n": float(n)}


def _matadd_inputs(size):
    n = 8 if size == "tiny" else 1000
    return {
        "M": sd.dense_matrix(n, n, seed=10),
        "N": sd.dense_matrix(n, n, seed=11),
        "n": n,
    }


def _matmul_inputs(size):
    n = 6 if size == "tiny" else 150
    return {
        "M": sd.dense_matrix(n, n, seed=12),
        "N": sd.dense_matrix(n, n, seed=13),
        "n": n,
    }


def _pca_inputs(size):
    n, m = (12, 4) if size == "tiny" else (2000, 10)
    return {"M": sd.dense_matrix(n, m, seed=14), "n": n, "m": m}


def _pagerank_inputs(size):
    if size == "tiny":
        nv, ne = 25, 80
    else:
        nv, ne = 150_000, 1_500_000
    return {
        "E": sd.rmat_edges(nv, ne),
        "N": nv,
        "b": 0.85,
        "num_steps": 1,
    }


def _kmeans_inputs(size):
    n = 60 if size == "tiny" else 40_000
    return {
        "P": sd.kmeans_points(n),
        "C": sd.kmeans_centroids(),
        "N": n,
        "K": 100,
        "num_steps": 1,
    }


def _matfact_inputs(size):
    n = 8 if size == "tiny" else 1600
    l = 2
    return {
        "R": sd.ratings(n, n, seed=20),
        "Pp": sd.factor_matrix(n, l, seed=21),
        "Qp": sd.factor_matrix(l, n, seed=22),
        "P": sd.factor_matrix(n, l, seed=21),
        "Q": sd.factor_matrix(l, n, seed=22),
        "n": n,
        "m": n,
        "l": l,
        "a": 0.002,
        "b": 0.02,
    }


# Paper numbers (Table 1: compile secs; Table 2: par/seq secs).
PROGRAMS = [
    Program("Sum", SUM_SRC, _flat(sd.doubles, 50, 2_000_000), ["sum"],
            ("t1",), paper_t1={"mold": None, "casper": 10.25, "diablo": 5.00}),
    Program("Count", COUNT_SRC, _flat(sd.doubles, 50, 2_000_000), ["cnt"],
            ("t1",), paper_t1={"mold": None, "casper": 9.75, "diablo": 5.75}),
    Program("Average", AVERAGE_SRC, _flat(sd.doubles, 50, 2_000_000),
            ["sum", "cnt", "avg"], ("t1",),
            paper_t1={"mold": None, "casper": 172.25, "diablo": 5.75}),
    Program("Conditional Count", COND_COUNT_SRC, _flat(sd.doubles, 50, 2_000_000),
            ["cnt"], ("t1",),
            paper_t1={"mold": None, "casper": 20.25, "diablo": 5.75}),
    Program("Conditional Sum", COND_SUM_SRC, _flat(sd.doubles, 50, 4_000_000),
            ["sum"], ("t1", "t2"),
            paper_t1={"mold": None, "casper": 18.75, "diablo": 5.25},
            paper_t2={"par": 19.6, "seq": 40.6}),
    Program("Equal", EQUAL_SRC, _equal_inputs, ["eq"], ("t1", "t2"),
            paper_t1={"mold": None, "casper": 11.25, "diablo": 5.75},
            paper_t2={"par": 9.2, "seq": 33.2}),
    Program("Equal Frequency", EQUAL_FREQ_SRC, _words(80, 1_000_000),
            ["eqf", "mx", "mn"], ("t1",),
            paper_t1={"mold": None, "casper": 778.00, "diablo": 5.75}),
    Program("String Match", STRING_MATCH_SRC, _words(80, 6_000_000),
            ["b1", "b2", "b3"], ("t1", "t2"),
            paper_t1={"mold": 68, "casper": 806.00, "diablo": 8.50},
            paper_t2={"par": 8.3, "seq": 32.6}),
    Program("Word Count", WORD_COUNT_SRC, _words(80, 8_000_000), ["C"],
            ("t1", "t2"),
            paper_t1={"mold": 11, "casper": 102.25, "diablo": 6.50},
            paper_t2={"par": 57.1, "seq": 69.4}),
    Program("Histogram", HISTOGRAM_SRC, _pixels_inputs, ["R", "G", "B"],
            ("t1", "t2"),
            paper_t1={"mold": 233, "casper": 10272.00, "diablo": 9.00},
            paper_t2={"par": 8.2, "seq": 30.6}),
    Program("Group-By", GROUP_BY_SRC, _gb_inputs, ["C"], ("t2",),
            paper_t2={"par": 56.6, "seq": 51.9}),
    Program("Linear Regression", LINREG_SRC, _linreg_inputs,
            ["slope", "intercept"], ("t1", "t2"),
            paper_t1={"mold": 28, "casper": float("inf"), "diablo": 8.75},
            paper_t2={"par": 13.5, "seq": 39.0}),
    Program("Matrix Addition", MATADD_SRC, _matadd_inputs, ["R"], ("t2",),
            paper_t2={"par": 0.13, "seq": 216.0}),
    Program("Matrix Multiplication", MATMUL_SRC, _matmul_inputs, ["R"],
            ("t1", "t2"),
            paper_t1={"mold": 40, "casper": None, "diablo": 8.25},
            paper_t2={"par": 20.8, "seq": 137.8}),
    Program("PCA", PCA_SRC, _pca_inputs, ["mean", "cov"], ("t1",),
            paper_t1={"mold": 66, "casper": None, "diablo": 13.25}),
    Program("PageRank", PAGERANK_SRC, _pagerank_inputs, ["P", "C"],
            ("t1", "t2"),
            paper_t1={"mold": None, "casper": None, "diablo": 9.50},
            paper_t2={"par": 10.9, "seq": 44.9}),
    Program("KMeans", KMEANS_SRC, _kmeans_inputs, ["C"], ("t1", "t2"),
            paper_t1={"mold": 340, "casper": None, "diablo": 9.75},
            paper_t2={"par": 32.6, "seq": 26.2}),
    Program("Matrix Factorization", MATFACT_SRC, _matfact_inputs, ["P", "Q"],
            ("t1", "t2"),
            paper_t1={"mold": None, "casper": None, "diablo": 14.50},
            paper_t2={"par": 13.2, "seq": 22.7}),
]

BY_NAME = {p.name: p for p in PROGRAMS}


def build_envs(prog: Program, size: str, spark=None):
    """Materialize a program's inputs.

    Returns (spark_env, dict_env, extern_types): the same data as
    DataFrames for the Spark backend and as dicts for the sequential
    backends, plus the extern type declarations for the compiler.
    """
    spec = prog.make_inputs(size)
    spark_env, dict_env, types = {}, {}, {}
    for k, v in spec.items():
        if isinstance(v, sd.ArrayData):
            if spark is not None:
                spark_env[k] = v.df(spark)
            dict_env[k] = v.dict()
            types[k] = v.arr_type()
        else:
            spark_env[k] = v
            dict_env[k] = v
    return spark_env, dict_env, types
