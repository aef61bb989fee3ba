"""Spark DataFrame backend units: each construct in isolation."""
import pytest

from repro.core import ast as A
from repro.core.backend import empty_array, spark_type
from repro.core.convert import df_to_dict, dict_to_df
from repro.core.pipeline import compile_program, run_program

VEC_D = A.TArray(1, A.TBasic("double"))
VEC_L = A.TArray(1, A.TBasic("long"))
VEC_S = A.TArray(1, A.TBasic("double"), A.TBasic("string"))
MAT_D = A.TArray(2, A.TBasic("double"))


def run(spark, src, env, types):
    comp = compile_program(src, types)
    sp_env = {
        k: dict_to_df(spark, v, types[k]) if isinstance(v, dict) else v
        for k, v in env.items()
    }
    return comp, run_program(comp, sp_env, spark)


def test_spark_type_mapping():
    import pyspark.sql.types as T

    assert spark_type(A.TBasic("long")) == T.LongType()
    assert spark_type(A.TBasic("double")) == T.DoubleType()
    st = spark_type(A.TTuple((A.TBasic("long"), A.TBasic("double"))))
    assert [f.name for f in st.fields] == ["_1", "_2"]
    rt = spark_type(A.TRecord((("red", A.TBasic("long")),)))
    assert rt.fields[0].name == "red"


def test_empty_array_schema(spark):
    df = empty_array(spark, A.TArray(2, A.TBasic("double")))
    assert df.columns == ["_k1", "_k2", "_v"] and df.count() == 0


def test_empty_map_string_key(spark):
    df = empty_array(spark, VEC_S)
    assert str(df.schema["_k1"].dataType) == "StringType()"


def test_merge_prefers_new(spark):
    # V ⊲ {(i, W[i])}: a full outer join of V with W's rows
    env = {"V": {0: 1.0, 1: 2.0}, "W": {1: 99.0, 2: 3.0}}
    _, out = run(spark, "for i = 0, 2 do V[i] := W[i];", env, {"V": VEC_D, "W": VEC_D})
    assert df_to_dict(out["V"], 1) == {0: 1.0, 1: 99.0, 2: 3.0}


def test_merge_matrix_keys(spark):
    env = {"M": {(0, 0): 1.0}, "N": {(0, 0): 5.0, (1, 1): 2.0}}
    src = "for i = 0, 1 do for j = 0, 1 do M[i, j] := N[i, j];"
    _, out = run(spark, src, env, {"M": MAT_D, "N": MAT_D})
    assert df_to_dict(out["M"], 2) == {(0, 0): 5.0, (1, 1): 2.0}


def test_range_generator(spark):
    _, env = run(spark, "var V: vector[long] = vector(); for i = 2, 5 do V[i] := i;", {}, {})
    assert df_to_dict(env["V"], 1) == {2: 2, 3: 3, 4: 4, 5: 5}


def test_scalar_total_aggregation(spark):
    _, env = run(
        spark,
        "var s: double = 0.0; for v in V do s += v;",
        {"V": {i: float(i) for i in range(10)}},
        {"V": VEC_D},
    )
    assert env["s"] == 45.0


def test_empty_aggregation_yields_identity(spark):
    _, env = run(
        spark,
        "var s: double = 5.0; for v in V do if (v > 100.0) s += v;",
        {"V": {0: 1.0}},
        {"V": VEC_D},
    )
    assert env["s"] == 5.0  # 5.0 + identity


def test_equijoin_from_conditions(spark):
    _, env = run(
        spark,
        "var R: vector[double] = vector(); for i = 0, 4 do R[i] := A[i] * B[i];",
        {
            "A": {i: float(i) for i in range(5)},
            "B": {i: 2.0 for i in range(5)},
        },
        {"A": VEC_D, "B": VEC_D},
    )
    assert df_to_dict(env["R"], 1) == {i: 2.0 * i for i in range(5)}


def test_groupby_aggregation(spark):
    _, env = run(
        spark,
        "var C: vector[long] = vector(); for i = 0, 9 do C[K[i]] += 1;",
        {"K": {i: i % 3 for i in range(10)}},
        {"K": VEC_L},
    )
    assert df_to_dict(env["C"], 1) == {0: 4, 1: 3, 2: 3}


def test_outer_lookup_keeps_existing(spark):
    # C starts non-empty: increments add to the existing values
    _, env = run(
        spark,
        "for i = 0, 2 do C[0] += V[i];",
        {"C": {0: 100}, "V": {0: 1, 1: 2, 2: 3}},
        {"C": VEC_L, "V": VEC_L},
    )
    assert df_to_dict(env["C"], 1) == {0: 106}


def test_string_keys(spark):
    _, env = run(
        spark,
        "var s: double = 0.0; s := V[\"a\"];",
        {"V": {"a": 42.0}},
        {"V": VEC_S},
    )
    assert env["s"] == 42.0


def test_scalar_assign_from_lookup(spark):
    _, env = run(
        spark,
        "var x: double = 0.0; x := V[3];",
        {"V": {3: 7.5}},
        {"V": VEC_D},
    )
    assert env["x"] == 7.5


def test_scalar_assign_missing_keeps_old(spark):
    _, env = run(
        spark,
        "var x: double = 1.25; x := V[99];",
        {"V": {3: 7.5}},
        {"V": VEC_D},
    )
    assert env["x"] == 1.25


def test_constant_index_assignment(spark):
    _, env = run(spark, "V[1] := 10.0;", {"V": {0: 1.0}}, {"V": VEC_D})
    assert df_to_dict(env["V"], 1) == {0: 1.0, 1: 10.0}


def test_sequential_if_false_is_noop(spark):
    _, env = run(spark, "var x: long = 3; if (x > 5) x := 0;", {}, {})
    assert env["x"] == 3


def test_while_loop_with_array(spark):
    _, env = run(
        spark,
        """
        var k: long = 0;
        while (k < 3) {
          k += 1;
          for i = 0, 2 do V[i] += 1.0;
        };
        """,
        {"V": {0: 0.0, 1: 0.0, 2: 0.0}},
        {"V": VEC_D},
    )
    assert df_to_dict(env["V"], 1) == {0: 3.0, 1: 3.0, 2: 3.0}


def test_min_max_group_monoids(spark):
    _, env = run(
        spark,
        """
        var mn: vector[double] = vector();
        var mx: vector[double] = vector();
        for i = 0, 5 do {
          mn[K[i]] min= V[i];
          mx[K[i]] max= V[i];
        };
        """,
        {
            "K": {i: i % 2 for i in range(6)},
            "V": {i: float(i * 10) for i in range(6)},
        },
        {"K": VEC_L, "V": VEC_D},
    )
    assert df_to_dict(env["mn"], 1) == {0: 0.0, 1: 10.0}
    assert df_to_dict(env["mx"], 1) == {0: 40.0, 1: 50.0}


def test_argmin_groupby(spark):
    _, env = run(
        spark,
        """
        var c: vector[(long, double)] = vector();
        for i = 0, 1 do
          for j = 0, 2 do
            c[i] argmin= (j, D[i, j]);
        """,
        {"D": {(0, 0): 5.0, (0, 1): 1.0, (0, 2): 9.0,
               (1, 0): 2.0, (1, 1): 8.0, (1, 2): 0.5}},
        {"D": MAT_D},
    )
    assert df_to_dict(env["c"], 1) == {0: (1, 1.0), 1: (2, 0.5)}


def test_product_monoid(spark):
    _, env = run(
        spark,
        "var p: double = 1.0; for v in V do p *= v;",
        {"V": {0: 2.0, 1: 3.0, 2: 4.0}},
        {"V": VEC_D},
    )
    assert env["p"] == 24.0


def test_constant_index_increment(spark):
    # the paper's Section-4 example: M[1,2] += 1 outside any loop
    _, env = run(
        spark,
        "M[1, 2] += 1.0;",
        {"M": {(1, 2): 5.0, (0, 0): 1.0}},
        {"M": MAT_D},
    )
    assert df_to_dict(env["M"], 2) == {(1, 2): 6.0, (0, 0): 1.0}


def test_constant_index_increment_missing_key(spark):
    _, env = run(spark, "M[3, 3] += 2.0;", {"M": {(0, 0): 1.0}}, {"M": MAT_D})
    assert df_to_dict(env["M"], 2) == {(0, 0): 1.0, (3, 3): 2.0}


def test_scalar_pure_increment(spark):
    _, env = run(spark, "var k: long = 5; k += 2;", {}, {})
    assert env["k"] == 7


@pytest.mark.parametrize(
    "t",
    [VEC_S, MAT_D, A.TArray(1, A.TTuple((A.TBasic("double"), A.TBasic("long"))))],
    ids=["string-keyed", "matrix", "tuple-valued"],
)
def test_empty_array_is_an_empty_local_relation(spark, t):
    # Catalyst must see the emptiness to prune joins against the array
    plan = empty_array(spark, t)._jdf.queryExecution().optimizedPlan()
    assert plan.getClass().getSimpleName() == "LocalRelation"
    assert plan.data().isEmpty()


def test_while_condition_reads_array(spark):
    src = "var k: long = 0; while (V[0] > k) k += 1;"
    _, env = run(spark, src, {"V": {0: 3, 1: 5}}, {"V": VEC_L})
    assert env["k"] == 3


def test_scalar_assignment_from_many_rows_fails(spark):
    # the checker never emits this; the engine must still refuse it
    # rather than keep an arbitrary row
    from repro.core.backend import BackendError, run_code
    from repro.core.comprehension import Comp, Generator, PTuple, PVar, StateRef, Var
    from repro.core.plan import plan_code
    from repro.core.translate import TAssign

    code = plan_code([TAssign("s", Comp(Var("v"), (
        Generator(PTuple((PVar("i"), PVar("v"))), StateRef("V")),
    )))])
    env = {"V": dict_to_df(spark, {0: 1, 1: 2}, VEC_L), "s": 0}
    with pytest.raises(BackendError, match="more than one"):
        run_code(code, env, spark, {"V": VEC_L, "s": A.TBasic("long")})


@pytest.mark.parametrize("name,carried", [("KMeans", ["C"]), ("PageRank", ["P"])])
def test_only_loop_carried_arrays_are_checkpointed(name, carried):
    # closest/avg and Q are re-initialised at the top of every iteration
    from repro.core.translate import TWhile, carried_arrays
    from repro.programs.suite import BY_NAME, build_envs

    _, _, types = build_envs(BY_NAME[name], "tiny")
    comp = compile_program(BY_NAME[name].source, types)
    loop = next(st for st in comp.code if isinstance(st, TWhile))
    assert carried_arrays(loop.body, comp.types) == carried
