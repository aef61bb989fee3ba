"""Range fills, keyless joins with a small side, and ``argmin`` on Spark,
lowered the way the hand-written programs are (``plan.fuse_code``,
``backend._fill_sql``): the plan shapes they reach, that ``fuse=False``
keeps the old shapes, and that the interpreter, seq and Spark agree on
the edge cases of each lowering."""
import pytest

from repro.core import ast as A
from repro.core.backend import BROADCAST_ROWS
from repro.core.convert import dict_to_df
from repro.core.interp import InterpError, interpret
from repro.core.pipeline import compile_program, run_program
from repro.core.plan import Join
from repro.core.translate import TAssign, TranslationError, statements
from repro.programs.handwritten import HANDWRITTEN
from repro.programs.suite import BY_NAME, build_envs
from tests.test_backend_sql import _same, sql_calls, three_engines  # noqa: F401  (a fixture)
from tests.test_handwritten import _plan_shape
from tests.test_programs_e2e import same_schema

L, D, B = A.TBasic("long"), A.TBasic("double"), A.TBasic("bool")
NAN = float("nan")
VEC_L, VEC_D = A.TArray(1, L), A.TArray(1, D)
MAT_B, MAT_D = A.TArray(2, B), A.TArray(2, D)
# edges out of 0, 1 and 3; none out of 2 or 4
E = {(0, 1): True, (1, 0): True, (1, 1): True, (3, 2): True, (0, 2): False}


def broadcasts(st) -> bool:
    """Whether a join of the assignment ``st`` may broadcast its source
    (``Join.small``)."""
    return isinstance(st, TAssign) and st.plan is not None and any(
        isinstance(j, Join) and j.small is not None for j in st.plan.steps)


def _marks(src, types):
    """The fill and broadcast marks of a program's assignments."""
    code = compile_program(src, types).code
    return [(st.name, st.fill is not None and st.plan is not None, broadcasts(st))
            for st in statements(code) if isinstance(st, TAssign)]


# --------------------------------------------------------- plan shapes
@pytest.fixture(scope="module")
def shapes(spark):
    """``(program, output, fuse) -> (exchanges, joins, physical plan,
    whether the output has its declared schema)``."""
    out = {}
    for name in SHAPE_PROGRAMS:
        prog = BY_NAME[name]
        env, _, types = build_envs(prog, "tiny", spark)
        for fuse in (True, False):
            compiled = compile_program(prog.source, types, fuse=fuse)
            res = run_program(compiled, env, spark)
            for o in prog.outputs:
                plan = res[o].select("*")._jdf.queryExecution().executedPlan().toString()
                out[name, o, fuse] = (*_plan_shape(res[o]), plan,
                                      same_schema(res[o], compiled.types[o]))
    return out


SHAPE_PROGRAMS = ("PageRank", "KMeans", "Matrix Multiplication", "Matrix Factorization")


@pytest.mark.parametrize("fuse", [True, False])
@pytest.mark.parametrize("name", SHAPE_PROGRAMS)
def test_outputs_have_their_declared_schema(shapes, name, fuse):
    for o in BY_NAME[name].outputs:
        assert shapes[name, o, fuse][3], (name, o)


@pytest.mark.parametrize("name,out,fused,plain", [
    # P: the fill in the loop and its update are one range LEFT JOIN, with
    # no rows of P outside the range, and P's update joins C's groups, not
    # C, itself a range LEFT JOIN
    ("PageRank", "P", (5, 3), (9, 5)),
    ("PageRank", "C", (2, 1), (2, 1)),
    # the centroids are broadcast (a BroadcastExchange more, no
    # CartesianProduct), and the argmin's groups carry each point to avg
    ("KMeans", "C", (4, 2), (4, 3)),
    ("Matrix Multiplication", "R", (4, 2), (4, 3)),
    # err reads pq's groups, not pq, a range LEFT JOIN like PageRank's C
    ("Matrix Factorization", "P", (9, 5), (11, 7)),
    ("Matrix Factorization", "Q", (9, 5), (11, 7)),
])
def test_plan_shapes_with_and_without_fuse(shapes, name, out, fused, plain):
    assert shapes[name, out, True][:2] == fused
    assert shapes[name, out, False][:2] == plain
    assert "CartesianProduct" not in shapes[name, out, True][2]


@pytest.mark.parametrize("name,out", [("PageRank", "P"), ("KMeans", "C")])
def test_fused_shapes_equal_the_handwritten_ones(spark, shapes, name, out):
    env, _, _ = build_envs(BY_NAME[name], "tiny", spark)
    assert shapes[name, out, True][:2] == _plan_shape(HANDWRITTEN[name](env)[out])


@pytest.mark.parametrize("name,out", [("KMeans", "C"), ("Matrix Multiplication", "R"),
                                      ("Matrix Factorization", "P")])
def test_without_fuse_the_cartesian_products_remain(shapes, name, out):
    assert "CartesianProduct" in shapes[name, out, False][2]


# ----------------------------------------------------- range fills
FILL_CASES = {
    # the update's keys K[j] are not bounded by the fill's range: the fill
    # stays a statement of its own and the update a full outer join
    "key-outside-fill": (
        "var X: vector[double] = vector(); for i = 0, 2 do X[i] := 1.0; "
        "for j = 0, 4 do X[K[j]] += 1.0;",
        {"K": {0: 0, 1: 2, 2: 7, 3: -1, 4: 2}}, {"K": VEC_L},
        {0: 2.0, 1: 1.0, 2: 3.0, 7: 1.0, -1: 1.0}, [("X", False, False)] * 2),
    # the fill's value reads the index; keys 2 and 4 get no update
    "value-reads-index": (
        "var X: vector[double] = vector(); for i = 0, 4 do X[i] := i * 0.5; "
        "for i = 0, 4 do for j = 0, 4 do if (E[i, j]) X[i] += 1.0;",
        {"E": E}, {"E": MAT_B},
        {0: 1.0, 1: 2.5, 2: 1.0, 3: 2.5, 4: 2.0}, [("X", True, False)]),
    # X is not fresh, and its keys -1 and 7 lie outside the range
    "existing-keys-outside": (
        "for i = 0, 4 do X[i] := 0.0; "
        "for i = 0, 4 do for j = 0, 4 do if (E[i, j]) X[i] += 1.0;",
        {"E": E, "X": {-1: 5.0, 0: 9.0, 2: 9.0, 7: 2.0}}, {"E": MAT_B, "X": VEC_D},
        {-1: 5.0, 0: 1.0, 1: 2.0, 2: 0.0, 3: 1.0, 4: 0.0, 7: 2.0}, [("X", True, False)]),
    # the fill and its update have different bounds: no pair
    "different-bounds": (
        "var X: vector[double] = vector(); for i = 0, 2 do X[i] := 0.0; "
        "for i = 0, 4 do for j = 0, 4 do if (E[i, j]) X[i] += 1.0;",
        {"E": E}, {"E": MAT_B},
        {0: 1.0, 1: 2.0, 2: 0.0, 3: 1.0}, [("X", False, False)] * 2),
    # a 2-D fill and its update: one range over the product, div/mod keys
    "2d-fill-update": (
        "var R: matrix[double] = matrix(); for i = 0, 2 do for j = 1, 2 do { "
        "R[i, j] := i * 10.0 + j; for k = 0, 1 do R[i, j] += M[i, k] * M[k, j]; };",
        {"M": {(0, 0): 1.0, (0, 1): 2.0, (1, 2): 3.0}}, {"M": MAT_D},
        {(0, 1): 3.0, (0, 2): 8.0, (1, 1): 11.0, (1, 2): 12.0, (2, 1): 21.0, (2, 2): 22.0},
        [("R", True, False)]),
    # a 2-D fill alone over an existing matrix, with an empty range
    "2d-fill-alone": (
        "for i = 1, 2 do for j = 0, 1 do R[i, j] := i - j; "
        "for i = 3, 2 do for j = 0, 1 do R[i, j] := 7;",
        {"R": {(0, 0): 5, (1, 1): 9, (2, 5): 4}}, {"R": A.TArray(2, L)},
        {(0, 0): 5, (1, 0): 1, (1, 1): 0, (2, 0): 2, (2, 1): 1, (2, 5): 4},
        [("R", False, False)] * 2),
    # a tuple-valued fill, then +=: 3 has no update, where the sum's tuple
    # would be a struct of NULLs, and keeps the fill's pair
    "tuple-fill-plus": (
        "var T: vector[(long, double)] = vector(); for i = 0, 3 do T[i] := (1, 0.5); "
        "for i = 0, 3 do for j = 0, 2 do T[i] += (j, D[i, j]);",
        {"D": {(0, 1): 7.0, (1, 0): 1.0, (1, 2): 2.0, (2, 2): 5.0}}, {"D": MAT_D},
        {0: (2, 7.5), 1: (3, 3.5), 2: (3, 5.5), 3: (1, 0.5)}, [("T", True, False)]),
    # a tuple-valued fill, then argmin=: a NaN candidate and a tie keep the
    # fill's pair, and so do 3, which has no candidate, and 0, a worse one
    "tuple-fill-argmin": (
        "var C: vector[(long, double)] = vector(); for i = 0, 3 do C[i] := (9, 5.0); "
        "for i = 0, 3 do for j = 0, 2 do C[i] argmin= (j, D[i, j]);",
        {"D": {(0, 1): 7.0, (1, 0): 1.0, (1, 2): 2.0, (2, 1): NAN, (2, 2): 5.0}}, {"D": MAT_D},
        {0: (9, 5.0), 1: (0, 1.0), 2: (9, 5.0), 3: (9, 5.0)}, [("C", True, False)]),
    # a fresh vector[double] filled with a long literal, then updated: the
    # fill's rows keep the declared DOUBLE
    "long-literal-fill": (
        "var X: vector[double] = vector(); for i = 0, 2 do X[i] := 1; "
        "for i = 0, 2 do for j = 0, 2 do X[i] += F[i, j];",
        {"F": {(0, 0): 0.5, (1, 2): 2.0, (2, 1): -1.0}}, {"F": MAT_D},
        {0: 1.5, 1: 3.0, 2: 0.0}, [("X", True, False)]),
}


@pytest.mark.parametrize("case", FILL_CASES)
def test_range_fills_agree(spark, case):
    src, env, types, want, marks = FILL_CASES[case]
    assert _marks(src, types) == marks
    for out in three_engines(spark, src, env, types):
        assert _same(out[marks[0][0]], want)


@pytest.mark.parametrize("src,env,types", [c[:3] for c in FILL_CASES.values()] + [
    # a long literal into a vector[double], alone: the interpreter keeps the
    # ints, so this case is no FILL_CASE
    ("var X: vector[double] = vector(); for i = 0, 2 do X[i] := 1;", {}, {}),
], ids=[*FILL_CASES, "long-literal-fill-alone"])
def test_range_fills_keep_the_declared_schema(spark, src, env, types):
    compiled = compile_program(src, types)
    out = run_program(compiled, {k: dict_to_df(spark, v, types[k]) for k, v in env.items()}, spark)
    for name, t in compiled.types.items():
        if isinstance(t, A.TArray):
            assert same_schema(out[name], t), (name, out[name].schema)


def test_fill_and_update_is_one_left_join(spark, sql_calls):  # noqa: F811
    src, env, types, want, _ = FILL_CASES["existing-keys-outside"]
    sp_env = {k: dict_to_df(spark, v, types[k]) for k, v in env.items()}
    sql_calls.clear()
    out = run_program(compile_program(src, types), sp_env, spark)
    (sql,) = sql_calls
    assert "LEFT JOIN" in sql and "UNION ALL" in sql and "FULL OUTER JOIN" not in sql
    plan = out["X"].select("*")._jdf.queryExecution().executedPlan().toString()
    assert "FullOuter" not in plan and "CartesianProduct" not in plan


# ------------------------------------------------- small keyless joins
def _keyless(hi):
    return f"var s: double = 0.0; for i = 0, 2 do for j = 0, {hi} do s += A[i] * B[j];"


@pytest.mark.parametrize("hi,hinted", [(9, True), (BROADCAST_ROWS, False)])
def test_keyless_join_broadcasts_only_a_small_range(spark, sql_calls, hi, hinted):  # noqa: F811
    # B's keys are bounded by 0..hi: 10 rows, or one more than the bound
    env = {"A": {0: 1.0, 1: 2.0, 2: 4.0}, "B": {0: 0.5, 3: 1.0, 9: 2.0}}
    types = {"A": VEC_D, "B": VEC_D}
    assert _marks(_keyless(hi), types) == [("s", False, False), ("s", False, True)]
    sql_calls.clear()
    for out in three_engines(spark, _keyless(hi), env, types):
        assert out["s"] == 24.5
    assert any("BROADCAST" in q for q in sql_calls) == hinted


def test_keyless_join_without_fuse_has_no_hint(spark, sql_calls):  # noqa: F811
    sp_env = {"A": dict_to_df(spark, {0: 1.0}, VEC_D), "B": dict_to_df(spark, {0: 2.0}, VEC_D)}
    sql_calls.clear()
    out = run_program(compile_program(_keyless(3), {"A": VEC_D, "B": VEC_D}, fuse=False), sp_env, spark)
    assert out["s"] == 2.0 and not any("BROADCAST" in q for q in sql_calls)


# ------------------------------------------------------------ argmin
ARGMIN_SRC = (
    "var C: vector[(long, double)] = vector(); C[1] := (9, 1.0); "
    "for i = 0, 4 do for j = 0, 2 do C[i] argmin= (j, D[i, j]);"
)
ARGMIN_D = {
    (0, 0): NAN, (0, 1): 3.0, (0, 2): NAN,  # NaN is above every double
    (1, 0): 1.0, (1, 2): 2.0,               # ties C[1]'s 1.0: the old pair stays
    (2, 1): NAN,                            # only a NaN
    (4, 2): -1.0,                           # 3 has no candidate: no element
}


def test_argmin_nan_ties_and_empty_groups_agree(spark, sql_calls):  # noqa: F811
    want = {0: (1, 3.0), 1: (9, 1.0), 2: (1, NAN), 4: (2, -1.0)}
    for out in three_engines(spark, ARGMIN_SRC, {"D": ARGMIN_D}, {"D": MAT_D}):
        assert out["C"].keys() == want.keys()
        assert all(_same(out["C"][k][1], want[k][1]) and out["C"][k][0] == want[k][0] for k in want)
    # two aggregates over the pair's fields, which Spark hashes, not sorts
    assert any("named_struct('_1', min_by(" in q for q in sql_calls)


def test_argmin_of_a_non_pair_is_rejected():
    with pytest.raises(TranslationError, match="argmin= needs pairs"):
        compile_program("var c: (long, double, long) = (0, 0.0, 0); c argmin= (1, 2.0, 3);", {})


# --------------------------------------------- arrays used as values
@pytest.mark.parametrize("src", [
    "var s: double = 0.0; s := A;",
    "var V: vector[double] = vector(); V[0] := A;",
    "var V: vector[double] = vector(); for i = 0, 1 do V[i] += A;",
])
def test_array_used_as_a_value_is_rejected(src):
    with pytest.raises(TranslationError, match="array A used as a value"):
        compile_program(src, {"A": VEC_D})
    with pytest.raises(InterpError, match="array used as a value|whole-array assignment to s"):
        interpret(src, {"A": {0: 1.0}})


# ------------------------------------------------ generator-free update
@pytest.mark.parametrize("src,env,want,queries", [
    ("C[3] += 1.0; C[4] min= 2.5;", {"C": {3: 2.0, 5: 1.0}}, {3: 3.0, 4: 2.5, 5: 1.0}, 2),
    ("var C: vector[double] = vector(); C[3] += 1.0;", {}, {3: 1.0}, 1),
], ids=["existing", "fresh"])
def test_generator_free_update_is_one_query(spark, sql_calls, src, env, want, queries):  # noqa: F811
    # one query per update: the old value comes from the old side of the
    # merge's join, not from a lookup query and job of its own
    sql_calls.clear()
    outs = three_engines(spark, src, env, {"C": VEC_D} if env else {})
    assert len([q for q in sql_calls if "LIMIT 0" not in q]) == queries
    for out in outs:
        assert _same(out["C"], want)
