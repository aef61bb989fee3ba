"""The Spark backend's SQL lowering: one query per statement, literals
that keep their value and type, persisted inputs read from cache, no
temporary views left behind, and loud errors with the query."""
import math

import pytest
from pyspark import StorageLevel
from pyspark.sql import SparkSession

from repro.core import ast as A
from repro.core.backend import BackendError, run_code
from repro.core.comprehension import (
    Comp,
    Generator,
    Merge,
    Proj,
    PTuple,
    PVar,
    StateRef,
    TupleT,
    Var,
    show,
)
from repro.core.convert import df_to_dict, dict_to_df
from repro.core.interp import interpret
from repro.core.pipeline import compile_program, run_program
from repro.core.seq_backend import run_program_seq
from repro.core.translate import TAssign, TWhile, statements
from repro.programs.suite import BY_NAME, PROGRAMS, build_envs

VEC_D = A.TArray(1, A.TBasic("double"))
VEC_L = A.TArray(1, A.TBasic("long"))
VEC_S = A.TArray(1, A.TBasic("string"))
VEC_LD = A.TArray(1, A.TTuple((A.TBasic("long"), A.TBasic("double"))))

# quote, backslash, braces and a "${…}" Spark would otherwise substitute
ODD = "it's {x} \\ ${HOME} {}"


def three_engines(spark, src, env, types):
    """Run ``src`` on the interpreter, seq and Spark; return the three
    final environments with arrays as dicts."""
    comp = compile_program(src, types)
    sp_env = {k: dict_to_df(spark, v, types[k]) if k in types else v for k, v in env.items()}
    out = run_program(comp, sp_env, spark)
    spark_out = {
        k: df_to_dict(v, comp.types[k].ndims) if isinstance(comp.types.get(k), A.TArray) else v
        for k, v in out.items()
    }
    return interpret(src, env), run_program_seq(comp, env), spark_out


def _same(a, b):
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b and type(a) is type(b)


@pytest.mark.parametrize(
    "src,env,types,out,want",
    [
        ('var n: long = 0; for w in W do if (w == "' + ODD + '") n += 1;',
         {"W": {0: ODD, 1: "it's", 2: ODD}}, {"W": VEC_S}, "n", 2),
        ("var n: long = 0; for w in W do if (w == s) n += 1;",
         {"W": {0: ODD, 1: "x", 2: ODD}, "s": ODD}, {"W": VEC_S}, "n", 2),
        ("var m: double = 0.0; for v in V do if (v > 1e-05) m += v;",
         {"V": {0: 1e-06, 1: 2e-05, 2: 1.0}}, {"V": VEC_D}, "m", 1.00002),
        ("var n: long = 0; for v in V do if (v > lo && v < hi && v != z) n += 1;",
         {"V": {0: 1.0, 1: -3.0}, "lo": float("-inf"), "hi": float("inf"), "z": float("nan")},
         {"V": VEC_D}, "n", 2),
        ("var R: vector[double] = vector(); for i = 0, 1 do R[i] := z;",
         {"z": float("nan")}, {}, "R", {0: float("nan"), 1: float("nan")}),
        ("var s: long = 0; for v in V do s += v * 3000000000;",
         {"V": {0: 1, 1: 2}}, {"V": VEC_L}, "s", 9_000_000_000),
        ("var s: long = 0; for v in V do s += v * big;",
         {"V": {0: 1, 1: 2}, "big": 2**40}, {"V": VEC_L}, "s", 3 * 2**40),
        ("var s: double = 0.0; for v in V do if (v >= p._1) s += v * p._2;",
         {"V": {0: 1, 1: 2, 2: 3}, "p": (2, 5.0)}, {"V": VEC_L}, "s", 25.0),
        ("var s: double = 0.0; for v in V do if (v >= q.lo) s += v * q.w;",
         {"V": {0: 1, 1: 2, 2: 3}, "q": {"lo": 2, "w": 5.0}}, {"V": VEC_L}, "s", 25.0),
        ("var T: vector[(long, double)] = vector(); for i = 0, 1 do T[i] := p;",
         {"p": (2, 5.0)}, {}, "T", {0: (2, 5.0), 1: (2, 5.0)}),
    ],
    ids=["string-const", "string-state", "1e-05", "inf-nan-state", "nan-into-array",
         "long-const", "long-state", "tuple-state", "record-state", "tuple-into-array"],
)
def test_literals_keep_value_and_type(spark, src, env, types, out, want):
    interp, seq, sp = three_engines(spark, src, env, types)
    assert _same(interp[out], want)
    assert _same(seq[out], want)
    assert _same(sp[out], want)


def test_long_product_stays_long(spark):
    # Spark SQL has no product aggregate; F.product made this 6.0
    src = "var p: long = 1; for v in V do p *= v;"
    for env in three_engines(spark, src, {"V": {0: 1, 1: 2, 2: 3}}, {"V": VEC_L}):
        assert env["p"] == 6 and type(env["p"]) is int


def test_grouped_long_product_stays_long(spark):
    src = "var P: vector[long] = vector(); for v in V do P[v % 2] *= v;"
    for env in three_engines(spark, src, {"V": {0: 1, 1: 2, 2: 3, 3: 4}}, {"V": VEC_L}):
        assert _same(env["P"], {0: 8, 1: 3})


@pytest.mark.parametrize("src,env,types,out,want", [
    ("var a: long = 100000; var b: long = 100000; var s: long = 0; for v in V do s += a * b;",
     {"V": {0: 1, 1: 2}}, {"V": VEC_L}, "s", 20_000_000_000),
    ("var a: long = 100000; var W: vector[long] = vector(); for i = 0, 1 do W[i] := a * a;",
     {}, {}, "W", {0: 10_000_000_000, 1: 10_000_000_000}),
], ids=["scalar", "array"])
def test_long_state_in_the_int32_range_multiplies_in_64_bits(spark, src, env, types, out, want):
    # an integer literal is a BIGINT: two INTs would overflow in 32 bits
    for res in three_engines(spark, src, env, types):
        assert _same(res[out], want)


@pytest.mark.parametrize("V,d,t", [
    ({0: -4, 1: -3, 2: -1, 3: 2, 4: 7}, 3, VEC_L),
    ({0: 7, 1: -7, 2: 6, 3: -2, 4: 1}, -3, VEC_L),
    ({0: -7.5, 1: 7.5, 2: -4.0, 3: 0.5, 4: 3.0}, 2.0, VEC_D),
    ({0: -7.5, 1: 7.5, 2: -4.0, 3: 0.5, 4: 3.0}, -2.0, VEC_D),
], ids=["negative-long-mod-3", "long-mod-minus-3", "double-mod-2", "double-mod-minus-2"])
def test_mod_is_floored(spark, V, d, t):
    # SQL's % truncates and pmod(7, -3) is 1; Python's 7 % -3 is -2
    src = f"var R: {'vector[long]' if t is VEC_L else 'vector[double]'} = vector(); " \
          "for i = 0, 4 do R[i] := V[i] % d;"
    want = {i: v % d for i, v in V.items()}
    for env in three_engines(spark, src, {"V": V, "d": d}, {"V": t}):
        assert _same(env["R"], want)


@pytest.mark.parametrize("a,want", [(7, 3.5), (-7, -3.5)], ids=["7/2", "-7/2"])
def test_constant_division_is_true_division(spark, a, want):
    # a folded constant must divide as every engine does: 7 / 2 is 3.5
    src = f"var x: double = 0.0; var R: vector[double] = vector(); " \
          f"x := {a} / 2; for i = 0, 1 do R[i] := {a} / 2;"
    for env in three_engines(spark, src, {}, {}):
        assert _same(env["x"], want) and _same(env["R"], {0: want, 1: want})


# ------------------------------------------------- cache and catalog
def _temp_views(spark):
    return {t.name for t in spark.catalog.listTables() if t.isTemporary}


def test_generated_plan_reads_persisted_input_from_cache(spark):
    V = dict_to_df(spark, {i: float(i) for i in range(10)}, VEC_D).persist()
    try:
        V.count()
        src = "var R: vector[double] = vector(); for i = 0, 9 do R[i] := V[i] * 2.0;"
        env = run_program(compile_program(src, {"V": VEC_D}), {"V": V}, spark)
        plan = env["R"]._jdf.queryExecution().withCachedData().toString()
        assert "InMemoryRelation" in plan
        # registering and dropping the query's views leaves V cached
        assert V.storageLevel != StorageLevel.NONE
        assert df_to_dict(env["R"], 1) == {i: 2.0 * i for i in range(10)}
    finally:
        V.unpersist()


def test_run_program_leaves_no_temp_views(spark):
    before = _temp_views(spark)
    prog = BY_NAME["KMeans"]
    spark_env, _, types = build_envs(prog, "tiny", spark)
    run_program(compile_program(prog.source, types), spark_env, spark)
    # a constant-key lookup runs a query of its own
    M = dict_to_df(spark, {(1, 2): 5.0}, A.TArray(2, A.TBasic("double")))
    run_program(
        compile_program("M[1, 2] += 1.0;", {"M": A.TArray(2, A.TBasic("double"))}),
        {"M": M}, spark,
    )
    assert _temp_views(spark) == before


# ------------------------------------------------- one query per statement
@pytest.fixture
def sql_calls(monkeypatch):
    calls = []
    orig = SparkSession.sql

    def counting(self, *args, **kwargs):
        calls.append(args[0])
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(SparkSession, "sql", counting)
    return calls


def _queries_per_statement(spark, sql_calls, name):
    """Run a suite program statement by statement, loop bodies once;
    yield each statement, whether it assigns an array and how many SQL
    queries it issued."""
    prog = BY_NAME[name]
    spark_env, _, types = build_envs(prog, "tiny", spark)
    comp = compile_program(prog.source, types)

    def flat(code):
        for st in code:
            if isinstance(st, TWhile):
                yield from flat(st.body)
            else:
                yield st

    env = dict(spark_env)
    for st in flat(comp.code):
        sql_calls.clear()
        env = run_code([st], env, spark, comp.types)
        yield st, isinstance(comp.types.get(st.name), A.TArray), len(sql_calls)


@pytest.mark.parametrize("name", ["Word Count", "KMeans"])
def test_each_array_statement_is_one_query(spark, sql_calls, name):
    seen = 0
    for st, is_array, n in _queries_per_statement(spark, sql_calls, name):
        if is_array:
            seen += 1
            assert n == 1, (st.name, n)
        elif isinstance(st, TAssign) and not any(
            isinstance(q, Generator) for q in getattr(st.term, "quals", ())
        ):
            assert n == 0, (st.name, n)  # e.g. KMeans's steps += 1
    assert seen >= 2


def _fresh_merges(prog) -> bool:
    types = build_envs(prog, "tiny")[2]
    return any(getattr(st, "fresh", False)
               for st in statements(compile_program(prog.source, types).code))


@pytest.mark.parametrize("name", [p.name for p in PROGRAMS if _fresh_merges(p)])
def test_statement_by_statement_run_issues_the_same_queries(spark, sql_calls, name):
    # a traced run executes one top-level statement at a time: a merge's
    # freshness must travel with the statement, not with the run
    prog = BY_NAME[name]
    spark_env, _, types = build_envs(prog, "tiny", spark)
    comp = compile_program(prog.source, types)
    run_program(comp, spark_env, spark)
    whole = list(sql_calls)
    sql_calls.clear()
    env = dict(spark_env)
    for st in comp.code:
        env = run_code([st], env, spark, comp.types)
    assert whole and sql_calls == whole


def test_generator_free_scalar_statement_issues_no_query(spark, sql_calls):
    env = run_program(compile_program("var k: long = 0; k += 1;", {}), {}, spark)
    assert env["k"] == 1 and sql_calls == []


# ------------------------------------------------- loud errors
def test_rejected_query_names_statement_and_sql(spark):
    before = _temp_views(spark)
    term = Merge(StateRef("R"), Comp(TupleT((Var("i"), Proj(Var("v"), "_3"))), (
        Generator(PTuple((PVar("i"), PVar("v"))), StateRef("V")),
    )))
    env = {"V": dict_to_df(spark, {0: (1, 2.0)}, VEC_LD), "R": dict_to_df(spark, {}, VEC_LD)}
    with pytest.raises(BackendError) as err:
        run_code([TAssign("R", term)], env, spark, {"V": VEC_LD, "R": VEC_LD})
    msg = str(err.value)
    assert show(term) in msg
    assert "SELECT" in msg and "`_3`" in msg
    assert _temp_views(spark) == before
