"""Seeded inputs for the suite programs.

``suite.Program.make_inputs`` fixes its generator seeds, so the
benchmark builds each program's input state itself from the same
``repro.synth_data`` generators, with seeds derived from the benchmark's
``--seed`` and sizes taken from ``settings.json``. A size is one number,
or a list for programs with two size parameters (PCA: rows, columns;
PageRank: vertices, edges).
"""
from __future__ import annotations

from repro import synth_data as sd


def _doubles(n, s):
    return {"V": sd.doubles(n, seed=s)}


def _words(n, s):
    return {"W": sd.words(n, seed=s)}


def _equal(n, s):
    # Equal's input is one repeated word by definition; nothing to seed.
    return {"W": sd.equal_words(n)}


def _histogram(n, s):
    return {"P": sd.pixels(n, seed=s)}


def _group_by(n, s):
    return {"V": sd.gb_pairs(n, seed=s)}


def _linreg(n, s):
    return {"P": sd.linreg_points(n, seed=s), "n": float(n)}


def _square_pair(n, s):
    return {
        "M": sd.dense_matrix(n, n, seed=s),
        "N": sd.dense_matrix(n, n, seed=s + 1),
        "n": n,
    }


def _pca(size, s):
    n, m = size
    return {"M": sd.dense_matrix(n, m, seed=s), "n": n, "m": m}


def _pagerank(size, s):
    nv, ne = size
    return {"E": sd.rmat_edges(nv, ne, seed=s), "N": nv, "b": 0.85, "num_steps": 1}


def _kmeans(n, s):
    return {
        "P": sd.kmeans_points(n, seed=s),
        "C": sd.kmeans_centroids(),
        "N": n,
        "K": 100,
        "num_steps": 1,
    }


def _matfact(n, s):
    l = 2
    pp = sd.factor_matrix(n, l, seed=s + 1)
    qp = sd.factor_matrix(l, n, seed=s + 2)
    return {
        "R": sd.ratings(n, n, seed=s),
        "Pp": pp, "Qp": qp, "P": pp, "Q": qp,
        "n": n, "m": n, "l": l, "a": 0.002, "b": 0.02,
    }


BUILDERS = {
    "Sum": _doubles,
    "Count": _doubles,
    "Average": _doubles,
    "Conditional Count": _doubles,
    "Conditional Sum": _doubles,
    "Equal": _equal,
    "Equal Frequency": _words,
    "String Match": _words,
    "Word Count": _words,
    "Histogram": _histogram,
    "Group-By": _group_by,
    "Linear Regression": _linreg,
    "Matrix Addition": _square_pair,
    "Matrix Multiplication": _square_pair,
    "PCA": _pca,
    "PageRank": _pagerank,
    "KMeans": _kmeans,
    "Matrix Factorization": _matfact,
}


def make_inputs(name: str, size, seed: int) -> dict:
    """Input spec (name → ``ArrayData`` or scalar) for one program.

    Each program gets its own seed range so that two programs of one
    workload never share generated data by accident.
    """
    size = tuple(size) if isinstance(size, list) else size
    index = list(BUILDERS).index(name)
    return BUILDERS[name](size, seed * 1000 + index * 10)


def input_rows(spec: dict) -> int:
    """Rows of the largest input array (Table 2's "input rows" column)."""
    return max((len(v.pdf) for v in spec.values() if isinstance(v, sd.ArrayData)), default=0)
