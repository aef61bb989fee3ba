"""DuckDB oracle checks: query-shaped program results are verified
against independent SQL over the same inputs (not just engine
agreement)."""
import pytest
from pyspark.sql import functions as F

from repro.core.pipeline import compile_program, run_program
from repro.oracle import assert_equivalent
from repro.programs.suite import BY_NAME, build_envs


@pytest.fixture(scope="module")
def ran(spark):
    """Run the query-shaped programs once at tiny scale; keep the raw
    pandas inputs for the oracle."""
    out = {}
    for name in [
        "Word Count",
        "Histogram",
        "Group-By",
        "Matrix Addition",
        "Matrix Multiplication",
        "Conditional Sum",
        "Linear Regression",
        "PageRank",
        "PCA",
    ]:
        prog = BY_NAME[name]
        spec = prog.make_inputs("tiny")
        spark_env, _, types = build_envs(prog, "tiny", spark)
        compiled = compile_program(prog.source, types)
        env = run_program(compiled, spark_env, spark)
        out[name] = (spec, env)
    return out


def test_word_count_oracle(ran):
    spec, env = ran["Word Count"]
    got = env["C"].select(
        F.col("_k1").alias("w"), F.col("_v").alias("c")
    )
    assert_equivalent(
        got, "select v as w, count(*) as c from W group by v", W=spec["W"].pdf
    )


def test_histogram_oracle(ran):
    spec, env = ran["Histogram"]
    for out_name, col in [("R", "red"), ("G", "green"), ("B", "blue")]:
        got = env[out_name].select(
            F.col("_k1").alias("k"), F.col("_v").alias("c")
        )
        assert_equivalent(
            got,
            f"select {col} as k, count(*) as c from P group by {col}",
            P=spec["P"].pdf,
        )


def test_group_by_oracle(ran):
    spec, env = ran["Group-By"]
    got = env["C"].select(F.col("_k1").alias("k"), F.col("_v").alias("s"))
    assert_equivalent(
        got, "select K as k, sum(A) as s from V group by K", V=spec["V"].pdf
    )


def test_matrix_addition_oracle(ran):
    spec, env = ran["Matrix Addition"]
    got = env["R"].select(
        F.col("_k1").alias("i"), F.col("_k2").alias("j"), F.col("_v").alias("v")
    )
    assert_equivalent(
        got,
        """
        select M._k1 as i, M._k2 as j, M.v + N.v as v
        from M join N on M._k1 = N._k1 and M._k2 = N._k2
        """,
        M=spec["M"].pdf,
        N=spec["N"].pdf,
    )


def test_matrix_multiplication_oracle(ran):
    spec, env = ran["Matrix Multiplication"]
    got = env["R"].select(
        F.col("_k1").alias("i"), F.col("_k2").alias("j"), F.col("_v").alias("v")
    )
    assert_equivalent(
        got,
        """
        select M._k1 as i, N._k2 as j, sum(M.v * N.v) as v
        from M join N on M._k2 = N._k1
        group by M._k1, N._k2
        """,
        M=spec["M"].pdf,
        N=spec["N"].pdf,
    )


def test_conditional_sum_oracle(ran, spark):
    spec, env = ran["Conditional Sum"]
    got = spark.createDataFrame([(float(env["sum"]),)], "s double")
    assert_equivalent(
        got, "select sum(v) as s from V where v < 100.0", V=spec["V"].pdf
    )


def test_linear_regression_oracle(ran, spark):
    spec, env = ran["Linear Regression"]
    got = spark.createDataFrame(
        [(float(env["slope"]), float(env["intercept"]))], "slope double, intercept double"
    )
    assert_equivalent(
        got,
        "select regr_slope(y, x) as slope, regr_intercept(y, x) as intercept from P",
        P=spec["P"].pdf,
    )


def test_pagerank_outdegree_oracle(ran):
    spec, env = ran["PageRank"]
    nv = spec["N"]
    got = env["C"].select(F.col("_k1").alias("k"), F.col("_v").alias("c"))
    assert_equivalent(
        got,
        f"""
        select g.range as k, coalesce(e.cnt, 0) as c
        from range(0, {nv}) g
        left join (select _k1, count(*) as cnt from E group by _k1) e
          on g.range = e._k1
        """,
        E=spec["E"].pdf,
    )


def test_pagerank_rank_oracle(ran):
    """One full PageRank step checked against SQL over the edge list."""
    spec, env = ran["PageRank"]
    nv, b = spec["N"], spec["b"]
    got = env["P"].select(F.col("_k1").alias("k"), F.col("_v").alias("p"))
    assert_equivalent(
        got,
        f"""
        with deg as (select _k1 as u, count(*) as c from E group by _k1),
        contrib as (
          select E._k2 as k, sum((1.0 / {nv}) / deg.c) as m
          from E join deg on E._k1 = deg.u
          group by E._k2
        )
        select g.range as k, (1.0 - {b}) / {nv} + {b} * coalesce(m, 0.0) as p
        from range(0, {nv}) g left join contrib on g.range = contrib.k
        """,
        E=spec["E"].pdf,
    )


def test_pca_mean_oracle(ran):
    spec, env = ran["PCA"]
    n = spec["n"]
    got = env["mean"].select(F.col("_k1").alias("j"), F.col("_v").alias("m"))
    assert_equivalent(
        got,
        f"select _k2 as j, sum(v) / {n} as m from M group by _k2",
        M=spec["M"].pdf,
    )


def test_pca_cov_oracle(ran):
    spec, env = ran["PCA"]
    n = spec["n"]
    got = env["cov"].select(
        F.col("_k1").alias("j"), F.col("_k2").alias("k"), F.col("_v").alias("c")
    )
    assert_equivalent(
        got,
        f"""
        with mean as (select _k2 as j, sum(v) / {n} as m from M group by _k2)
        select a._k2 as j, b._k2 as k,
               sum((a.v - ma.m) * (b.v - mb.m)) / ({n} - 1.0) as c
        from M a
        join M b on a._k1 = b._k1
        join mean ma on ma.j = a._k2
        join mean mb on mb.j = b._k2
        group by a._k2, b._k2
        """,
        M=spec["M"].pdf,
    )
