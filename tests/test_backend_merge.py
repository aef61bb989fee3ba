"""The Spark lowering of array updates and loops: an update of an existing
array is one full outer join, a merge into a just-initialised array is
the new bag alone, and a ``while`` loop checkpoints its carried arrays
only before an iteration that reads them."""
import re

import pytest

from repro.core import ast as A
from repro.core.convert import approx_dict_equal, df_to_dict, dict_to_df
from repro.core.pipeline import compile_program, run_program
from repro.core.translate import TranslationError
from repro.programs.handwritten import HANDWRITTEN
from repro.programs.suite import BY_NAME, build_envs
from tests.test_backend_sql import _same, three_engines
from tests.test_handwritten import _plan_shape

L, D, B = A.TBasic("long"), A.TBasic("double"), A.TBasic("bool")
NAN = float("nan")
VEC_L, VEC_D = A.TArray(1, L), A.TArray(1, D)
# keys 0 and 1 are in both the old array and the update, 5 and (5, 5)
# only in the old one, 2 and 7 only in the update
K = {0: 0, 1: 2, 2: 2, 3: 7, 4: 1}
J = {0: 0, 1: 1, 2: 1, 3: 3, 4: 1}


def _update(op, elem, old, values, ndims):
    dest = "C[K[i]]" if ndims == 1 else "C[K[i], J[i]]"
    src = f"for i = 0, 4 do {dest} {op} {'(i, V[i])' if op == 'argmin=' else 'V[i]'};"
    env = {"C": old, "K": K, "J": J, "V": dict(enumerate(values))}
    vt = B if isinstance(values[0], bool) else D if isinstance(values[0], float) else L
    types = {"C": A.TArray(ndims, elem), "K": VEC_L, "J": VEC_L, "V": A.TArray(1, vt)}
    return src, env, types


UPDATES = [
    ("+=", L, {0: 10, 1: 20, 5: 50}, [1, 2, 3, 4, 5], 1),
    ("+=", D, {(0, 0): 1.5, (1, 1): 2.5, (5, 5): 5.0}, [1.0, 2.0, 3.0, 4.0, 5.0], 2),
    ("min=", D, {0: 2.0, 1: -1.0, 5: 0.0}, [3.0, 1.0, -2.0, 4.0, 0.5], 1),
    ("max=", L, {(0, 0): 2, (1, 1): 9, (5, 5): 0}, [3, 1, -2, 4, 5], 2),
    ("*=", L, {0: 3, 1: 2, 5: 7}, [2, 3, 4, 5, 6], 1),
    ("argmin=", A.TTuple((L, D)), {0: (9, 0.5), 1: (8, 0.1), 5: (1, 1.0)},
     [3.0, 1.0, 0.5, 0.2, 0.3], 1),
    ("argmin=", A.TTuple((L, D)), {(0, 0): (9, 0.5), (1, 1): (8, 0.1), (5, 5): (1, 1.0)},
     [0.1, 1.0, 0.5, 0.2, 0.3], 2),
    # key 2 reduces a NaN score, key 1 combines its old pair with one
    ("argmin=", A.TTuple((L, D)), {0: (9, 0.5), 1: (8, 0.1), 5: (1, 1.0)},
     [3.0, 1.0, NAN, 0.2, NAN], 1),
    # Spark orders NaN above every double
    ("max=", D, {0: 2.0, 1: -1.0, 5: 0.0}, [NAN, 1.0, 3.0, 4.0, 0.5], 1),
    ("min=", D, {0: NAN, 1: -1.0, 5: 0.0}, [3.0, 1.0, NAN, 4.0, 0.5], 1),
    # keys 2 and 7 get only NaN updates: the ±inf identity orders below NaN
    ("min=", D, {0: 2.0, 1: -1.0, 5: 0.0}, [3.0, NAN, NAN, NAN, 0.5], 1),
    ("max=", D, {0: 2.0, 1: -1.0, 5: 0.0}, [3.0, NAN, NAN, NAN, 0.5], 1),
    ("&&=", B, {0: True, 1: False, 5: True}, [True, False, True, False, True], 1),
    ("||=", B, {(0, 0): False, (1, 1): True, (5, 5): False},
     [False, True, False, True, False], 2),
]


@pytest.mark.parametrize(
    "op,elem,old,values,ndims", UPDATES,
    ids=["sum-1d", "sum-2d", "min-1d", "max-2d", "long-product-1d", "argmin-1d", "argmin-2d",
         "argmin-nan-1d", "max-nan-1d", "min-nan-1d", "min-only-nan-1d", "max-only-nan-1d",
         "and-1d", "or-2d"],
)
def test_update_of_existing_array_agrees(spark, op, elem, old, values, ndims):
    interp, seq, sp = three_engines(spark, *_update(op, elem, old, values, ndims))
    assert _same(seq["C"], interp["C"]) and _same(sp["C"], interp["C"])
    only_old, only_new = (5, 7) if ndims == 1 else ((5, 5), (7, 3))
    assert sp["C"][only_old] == old[only_old] and only_new in sp["C"]


def test_scalar_min_max_order_nan_above_every_double(spark):
    # Python's max(1.0, nan) is 1.0 but max(nan, 1.0) is nan
    src = "var m: double = 0.0; var n: double = 5.0; for v in V do { m max= v; n min= v; };"
    for env in three_engines(spark, src, {"V": {0: 1.0, 1: NAN, 2: 2.0}}, {"V": VEC_D}):
        assert _same(env["m"], NAN) and _same(env["n"], 1.0)


def test_scalar_bool_monoids(spark):
    src = "var a: bool = true; var o: bool = false; var e: bool = true; " \
          "for v in V do { a &&= v > 0.0; o ||= v > 5.0; e &&= v > -5.0; };"
    for env in three_engines(spark, src, {"V": {0: 1.0, 1: -2.0, 2: 9.0}}, {"V": VEC_D}):
        assert (env["a"], env["o"], env["e"]) == (False, True, True)


# Only += (componentwise) and argmin= combine tuples: the interpreter
# ordered tuples as wholes and the other engines componentwise.
TUPLE_V, VEC_LL = {0: (1, 5), 1: (2, 3)}, A.TArray(1, A.TTuple((L, L)))
DECL_M = "var M: vector[(long, long)] = vector(); "


@pytest.mark.parametrize("src,dest", [
    (DECL_M + "M[0] := (100, 100); for i = 0, 1 do M[0] min= (V[i]._1, V[i]._2);", "M min="),
    (DECL_M + "for i = 0, 1 do M[0] min= (V[i]._1, V[i]._2);", "M min="),
    ("var s: (long, long) = (100, 100); for i = 0, 1 do s min= V[i];", "s min="),
] + [(DECL_M + f"for i = 0, 1 do M[i] {op} V[i];", f"M {op}") for op in ("max=", "*=", "&&=", "||=")],
    ids=["existing-array", "fresh-array", "scalar", "max", "product", "and", "or"])
def test_tuple_monoids_other_than_sum_are_rejected(src, dest):
    with pytest.raises(TranslationError, match=re.escape(dest) + " with a tuple"):
        compile_program(src, {"V": VEC_LL})


def test_record_sum_is_rejected():
    # no engine sums records componentwise; Spark would sum a struct
    rec = A.TArray(1, A.TRecord((("red", L), ("green", L))))
    with pytest.raises(TranslationError, match=re.escape("Q += with a tuple or record")):
        compile_program("for i = 0, 1 do Q[0] += P[i];", {"P": rec, "Q": rec})


def test_tuple_sum_agrees(spark):
    src = DECL_M + "var s: (long, long) = (100, 100); M[0] := (100, 100); " \
        "for i = 0, 1 do { M[0] += (V[i]._1, V[i]._2); M[1] += V[i]; s += V[i]; };"
    for env in three_engines(spark, src, {"V": TUPLE_V}, {"V": VEC_LL}):
        assert _same(env["M"], {0: (103, 108), 1: (3, 8)}) and _same(env["s"], (103, 108))


def test_update_of_existing_array_is_one_join(spark):
    # was a left join for the lookup and a full outer join for the merge
    types = {"C": VEC_L, "K": VEC_L}
    env = {"C": dict_to_df(spark, {0: 10, 5: 50}, VEC_L), "K": dict_to_df(spark, K, VEC_L)}
    out = run_program(compile_program("for i = 0, 4 do C[K[i]] += 1;", types), env, spark)
    assert _plan_shape(out["C"]) == (2, 1)
    assert df_to_dict(out["C"], 1) == {0: 11, 1: 1, 2: 2, 5: 50, 7: 1}


def test_fresh_double_array_of_long_counts_stays_double(spark):
    src = "var C: vector[double] = vector(); for v in V do C[v] += 1;"
    out = run_program(
        compile_program(src, {"V": VEC_L}),
        {"V": dict_to_df(spark, {0: 3, 1: 4, 2: 3}, VEC_L)}, spark,
    )
    assert out["C"].schema["_v"].dataType.simpleString() == "double"
    assert _same(df_to_dict(out["C"], 1), {3: 2.0, 4: 1.0})


@pytest.mark.parametrize("op,want", [("min=", float("inf")), ("max=", NAN)])
def test_fresh_double_array_min_max_of_only_nan(spark, op, want):
    # key 0 gets only a NaN: min(inf, NaN) is inf, max(-inf, NaN) NaN
    src = f"var C: vector[double] = vector(); for i = 0, 1 do C[K[i]] {op} V[i];"
    env = {"K": {0: 0, 1: 1}, "V": {0: NAN, 1: 1.0}}
    for out in three_engines(spark, src, env, {"K": VEC_L, "V": VEC_D}):
        assert _same(out["C"], {0: want, 1: 1.0})


def test_fresh_long_array_max_stays_long(spark):
    # a missed lookup is a long's lower bound, not -inf, a double
    src = "var M: vector[long] = vector(); for v in V do M[v % 2] max= v;"
    for env in three_engines(spark, src, {"V": {0: 3, 1: -4, 2: 8}}, {"V": VEC_L}):
        assert _same(env["M"], {0: 8, 1: 3})


@pytest.mark.parametrize("body,want", [
    ("C[n] += 1;", {0: 1, 1: 1, 2: 1}),
    ("for i = 0, n do C[i] += 1;", {0: 3, 1: 2, 2: 1}),
], ids=["index", "for"])
def test_array_initialised_before_a_loop_is_not_fresh_in_it(spark, body, want):
    # a merge taken for a fresh one would drop the earlier iterations' keys
    src = f"var C: vector[long] = vector(); var n: long = 0; while (n < 3) {{ {body} n += 1; }};"
    for env in three_engines(spark, src, {}, {}):
        assert _same(env["C"], want)


# --------------------------------------------------- plan shapes
@pytest.fixture(scope="module")
def tiny_runs(spark):
    out = {}
    for name in ("PageRank", "KMeans"):
        env, _, types = build_envs(BY_NAME[name], "tiny", spark)
        out[name] = (run_program(compile_program(BY_NAME[name].source, types), env, spark),
                     HANDWRITTEN[name](env))
    return out


def test_pagerank_counts_plan_like_handwritten(tiny_runs):
    # the range fill C[i] := 0 and the update C[i] += 1 were two joins
    diablo, hand = tiny_runs["PageRank"]
    assert _plan_shape(diablo["C"]) == _plan_shape(hand["C"]) == (2, 1)


def test_kmeans_centroids_shuffle_like_handwritten(tiny_runs):
    diablo, hand = tiny_runs["KMeans"]
    assert _plan_shape(diablo["C"])[0] == _plan_shape(hand["C"])[0] == 4


# --------------------------------------------------- checkpoints
@pytest.fixture
def checkpoints(spark, monkeypatch):
    calls = []
    cls = type(spark.range(1))
    orig = cls.localCheckpoint

    def counting(self, *args, **kwargs):
        calls.append(self)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(cls, "localCheckpoint", counting)
    return calls


@pytest.mark.parametrize("name,steps,want", [
    ("PageRank", 1, 0), ("KMeans", 1, 0),
    # one carried array each (P, C): checkpointed before iterations 2-4
    ("PageRank", 4, 3), ("KMeans", 4, 3),
])
def test_loop_checkpoints_only_before_an_iteration(spark, checkpoints, name, steps, want):
    prog = BY_NAME[name]
    env, _, types = build_envs(prog, "tiny", spark)
    env["num_steps"] = steps
    comp = compile_program(prog.source, types)
    out = run_program(comp, env, spark)
    hand = HANDWRITTEN[name](env)
    assert len(checkpoints) == want
    for o, hv in hand.items():
        if isinstance(comp.types.get(o), A.TArray):
            nd = comp.types[o].ndims
            assert approx_dict_equal(df_to_dict(hv, nd), df_to_dict(out[o], nd)), o


def test_loop_condition_reading_a_carried_array(spark, checkpoints):
    src = "var n: long = 0; while (X[0] < 3) { n += 1; for i = 0, 1 do X[i] += 1; };"
    interp, seq, sp = three_engines(spark, src, {"X": {0: 0, 1: 10}}, {"X": VEC_L})
    assert sp["X"] == seq["X"] == interp["X"] == {0: 3, 1: 13}
    assert sp["n"] == interp["n"] == 3
    # before each re-test of the condition after an iteration
    assert len(checkpoints) == 3
