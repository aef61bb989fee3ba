"""End-to-end soundness tests: for every suite program, the DIABLO
translation run on Spark and the sequential-bulk backend must agree
with the literal loop interpreter (the paper's Theorem A.1)."""
import pytest

from repro.core import ast as A
from repro.core.convert import approx_dict_equal, df_to_dict, dict_to_df
from repro.core.interp import interpret
from repro.core.pipeline import compile_program, run_program
from repro.core.seq_backend import run_program_seq
from repro.programs.suite import PROGRAMS, build_envs


@pytest.fixture(scope="module")
def results(spark):
    """Compile and run every program once at tiny scale on all engines."""
    out = {}
    for prog in PROGRAMS:
        spark_env, dict_env, types = build_envs(prog, "tiny", spark)
        compiled = compile_program(prog.source, types)
        out[prog.name] = {
            "compiled": compiled,
            "interp": interpret(prog.source, dict_env),
            "seq": run_program_seq(compiled, dict_env),
            "spark": run_program(compiled, spark_env, spark),
        }
    return out


def _check(res, compiled, out):
    t = compiled.types.get(out)
    if isinstance(t, A.TArray):
        want = res["interp"][out]
        got_spark = df_to_dict(res["spark"][out], t.ndims)
        got_seq = res["seq"][out]
        assert approx_dict_equal(got_spark, want), (
            f"spark != interp for {out}: "
            f"{sorted(got_spark.items())[:4]} vs {sorted(want.items())[:4]}"
        )
        assert approx_dict_equal(got_seq, want), f"seq != interp for {out}"
    else:
        w = res["interp"][out]
        g, s = res["spark"][out], res["seq"][out]
        if isinstance(w, float):
            assert abs(g - w) <= 1e-6 * max(1.0, abs(w)), (out, g, w)
            assert abs(s - w) <= 1e-6 * max(1.0, abs(w)), (out, s, w)
        else:
            assert g == w and s == w, (out, g, s, w)


@pytest.mark.parametrize("prog", PROGRAMS, ids=lambda p: p.name)
def test_program_all_outputs(results, prog):
    res = results[prog.name]
    for out in prog.outputs:
        _check(res, res["compiled"], out)


@pytest.mark.parametrize("prog", PROGRAMS, ids=lambda p: p.name)
def test_program_compiles_deterministically(prog):
    from repro.core.comprehension import show
    from repro.programs.suite import build_envs as be

    _, _, types = be(prog, "tiny", None)
    c1 = compile_program(prog.source, types)
    c2 = compile_program(prog.source, types)
    # fresh names differ, but the code shape (statement kinds and
    # comprehension sizes) must be identical
    assert [type(s).__name__ for s in c1.code] == [
        type(s).__name__ for s in c2.code
    ]


# -------- targeted semantic spot-checks beyond engine agreement --------
def test_equal_is_true_on_equal_data(results):
    assert results["Equal"]["spark"]["eq"] is True


def test_string_match_matches_membership(results):
    from repro.programs.suite import BY_NAME

    r = results["String Match"]["spark"]
    words = set(BY_NAME["String Match"].make_inputs("tiny")["W"].pdf["v"])
    assert r["b1"] == ("key1" in words)
    assert r["b2"] == ("key2" in words)
    assert r["b3"] == ("key3" in words)


def test_linreg_recovers_line(spark):
    """y = x on noise-free input → slope 1, intercept 0."""
    import pandas as pd
    import numpy as np
    from repro import synth_data as sd
    from repro.programs.suite import BY_NAME

    prog = BY_NAME["Linear Regression"]
    n = 200
    g = np.random.default_rng(0)
    x = g.random(n) * 100
    ad = sd.ArrayData(
        pd.DataFrame({"_k1": np.arange(n), "x": x, "y": 2.0 * x + 3.0}),
        1,
        ["x", "y"],
    )
    compiled = compile_program(prog.source, {"P": ad.arr_type()})
    env = run_program(compiled, {"P": ad.df(spark), "n": float(n)}, spark)
    assert abs(env["slope"] - 2.0) < 1e-6
    assert abs(env["intercept"] - 3.0) < 1e-6


def test_kmeans_moves_centroids_toward_squares(results):
    # after one step every centroid with assigned points moves inside
    # its square: coordinates stay within the 10x10 grid bounds
    C = df_to_dict(results["KMeans"]["spark"]["C"], 1)
    for j, (cx, cy) in C.items():
        assert 0.0 <= cx <= 22.0 and 0.0 <= cy <= 22.0


def test_pagerank_mass_conserved(results):
    P = df_to_dict(results["PageRank"]["spark"]["P"], 1)
    # ranks are positive and bounded
    assert all(0.0 < v < 1.5 for v in P.values())


def test_matfact_moves_toward_r(results):
    # after one gradient step the factors changed from their inits
    res = results["Matrix Factorization"]
    P = df_to_dict(res["spark"]["P"], 2)
    from repro.programs.suite import BY_NAME, build_envs

    _, dict_env, _ = build_envs(BY_NAME["Matrix Factorization"], "tiny", None)
    assert P != dict_env["Pp"]


def test_histogram_counts_sum_to_n(results):
    R = df_to_dict(results["Histogram"]["spark"]["R"], 1)
    assert sum(R.values()) == 80  # tiny pixel count


def test_word_count_totals(results):
    C = df_to_dict(results["Word Count"]["spark"]["C"], 1)
    assert sum(C.values()) == 80


# -------- loops over several iterations: lineage across checkpoints --------
@pytest.mark.parametrize("name", ["KMeans", "PageRank"])
def test_four_iterations_all_engines_agree(spark, name):
    from repro.programs.suite import BY_NAME

    prog = BY_NAME[name]
    spark_env, dict_env, types = build_envs(prog, "tiny", spark)
    spark_env["num_steps"] = dict_env["num_steps"] = 4
    compiled = compile_program(prog.source, types)
    res = {
        "interp": interpret(prog.source, dict_env),
        "seq": run_program_seq(compiled, dict_env),
        "spark": run_program(compiled, spark_env, spark),
    }
    for out in prog.outputs:
        _check(res, compiled, out)


def test_per_iteration_array_is_an_output(spark):
    # D is re-initialised in every iteration (no checkpoint); V carries
    # state across iterations; both are read after the loop
    src = """
    var k: long = 0;
    var D: vector[double] = vector();
    while (k < 3) {
      k += 1;
      var D: vector[double] = vector();
      for i = 0, 4 do D[i] := V[i] * 2.0;
      for i = 0, 4 do V[i] += D[i];
    };
    """
    vec = A.TArray(1, A.TBasic("double"))
    data = {"V": {i: float(i) for i in range(5)}}
    compiled = compile_program(src, {"V": vec})
    res = {
        "interp": interpret(src, data),
        "seq": run_program_seq(compiled, data),
        "spark": run_program(
            compiled, {"V": dict_to_df(spark, data["V"], vec)}, spark
        ),
    }
    for out in ("D", "V", "k"):
        _check(res, compiled, out)
    assert res["interp"]["V"] == {i: 27.0 * i for i in range(5)}
