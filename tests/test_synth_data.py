"""Data generators: determinism, shapes, distributions."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.core import ast as A


def test_doubles_deterministic():
    a, b = sd.doubles(100, seed=7), sd.doubles(100, seed=7)
    assert a.pdf.equals(b.pdf)


def test_doubles_range():
    d = sd.doubles(1000, lo=5.0, hi=10.0)
    assert d.pdf["v"].between(5.0, 10.0).all()


def test_words_vocab():
    w = sd.words(5000, n_distinct=50)
    assert w.pdf["v"].nunique() <= 50
    assert w.pdf["v"].str.len().max() == 4


def test_words_contains_match_keys():
    w = sd.words(100000, n_distinct=1000)
    assert {"key1", "key2", "key3"} <= set(w.pdf["v"].unique())


def test_equal_words_all_equal():
    w = sd.equal_words(100)
    assert w.pdf["v"].nunique() == 1


def test_pixels_record_type():
    p = sd.pixels(10)
    t = p.arr_type()
    assert isinstance(t.elem, A.TRecord)
    assert [n for n, _ in t.elem.fields] == ["red", "green", "blue"]
    assert p.pdf["red"].between(0, 255).all()


def test_linreg_points_structure():
    p = sd.linreg_points(100)
    # (x+dx, x−dx): first component always >= second
    assert (p.pdf["x"] >= p.pdf["y"]).all()


def test_gb_pairs_duplicates():
    g = sd.gb_pairs(10000, dup=10)
    assert g.pdf["K"].nunique() <= 1000 + 1


def test_dense_matrix_complete():
    m = sd.dense_matrix(10, 7)
    assert len(m.pdf) == 70
    assert set(zip(m.pdf["_k1"], m.pdf["_k2"])) == {
        (i, j) for i in range(10) for j in range(7)
    }


def test_dense_matrix_random_order():
    m = sd.dense_matrix(20, 20)
    ordered = sorted(zip(m.pdf["_k1"], m.pdf["_k2"]))
    assert list(zip(m.pdf["_k1"], m.pdf["_k2"])) != ordered


def test_rmat_no_duplicate_edges():
    e = sd.rmat_edges(100, 300)
    assert not e.pdf.duplicated(["_k1", "_k2"]).any()
    assert e.pdf["_k1"].max() < 100 and e.pdf["_k2"].max() < 100


def test_rmat_skew():
    # RMAT with a=0.30 concentrates edges on low-numbered vertices
    # P(top half) = a + b = 0.55 per level before dedup; allow slack
    e = sd.rmat_edges(1024, 4000)
    low = (e.pdf["_k1"] < 512).mean()
    assert low > 0.52


def test_kmeans_points_in_grid():
    p = sd.kmeans_points(500)
    assert p.pdf["x"].between(1.0, 21.0).all()
    assert p.pdf["y"].between(1.0, 21.0).all()


def test_kmeans_centroids_count():
    c = sd.kmeans_centroids()
    assert len(c.pdf) == 100
    assert c.pdf["x"].iloc[0] == 1.2


def test_ratings_sparsity_and_values():
    r = sd.ratings(50, 50, frac=0.1)
    assert len(r.pdf) == 250
    assert r.pdf["v"].between(1, 5).all()


def test_factor_matrix_shape():
    f = sd.factor_matrix(10, 3)
    assert len(f.pdf) == 30


def test_array_data_dict_scalar():
    d = sd.doubles(5).dict()
    assert set(d) == set(range(5)) and isinstance(d[0], float)


def test_array_data_dict_tuple():
    d = sd.linreg_points(3).dict()
    assert isinstance(d[0], tuple) and len(d[0]) == 2


def test_array_data_dict_record():
    d = sd.pixels(3).dict()
    assert isinstance(d[0], dict) and set(d[0]) == {"red", "green", "blue"}


def test_array_data_dict_matrix_keys():
    d = sd.dense_matrix(3, 3).dict()
    assert (0, 0) in d


def test_array_data_spark_roundtrip(spark):
    from repro.core.convert import df_to_dict

    ad = sd.gb_pairs(20)
    got = df_to_dict(ad.df(spark), 1)
    want = ad.dict()
    assert got == want


def test_array_data_spark_tuple_roundtrip(spark):
    from repro.core.convert import df_to_dict

    ad = sd.linreg_points(10)
    got = df_to_dict(ad.df(spark), 1)
    assert got == ad.dict()
