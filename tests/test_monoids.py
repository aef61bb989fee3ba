"""Monoid identities and reductions: each reduction means the same on
Spark and in the sequential engine, over edge values and the empty bag,
and the identity each update falls back to keeps the destination's
type."""
import pytest
from pyspark.errors import PySparkException
from pyspark.sql import types as T

from repro.core import ast as A
from repro.core.backend import _agg_sql, py_value, spark_type, to_sql
from repro.core.comprehension import BinOp, Call, Const, Var
from repro.core.monoids import BIN, CALLS, IDENTITY, LONG_MAX, LONG_MIN
from repro.core.pipeline import compile_program, run_program
from repro.core.seq_backend import _folds
from repro.programs.suite import BY_NAME, build_envs
from tests.test_backend_sql import _same, three_engines

L, D, B = A.TBasic("long"), A.TBasic("double"), A.TBasic("bool")
NAN, INF = float("nan"), float("inf")
NUMERIC = ("+", "*", "min", "max")

# (id, element type, bag, monoids reduced over it). Left out: long
# overflow, which raises on every engine (test_backend_sql.py's
# test_long_overflow_raises_on_every_engine), and argmin ties (Spark's
# min_by may keep any of them).
BAGS = [
    ("long-mixed", L, [3, -7, 0, 12, -1], NUMERIC),
    ("long-bounds", L, [LONG_MAX, 0, LONG_MIN], ("+", "min", "max")),
    ("long-max", L, [LONG_MAX, 1], ("*", "min", "max")),
    ("long-empty", L, [], NUMERIC),
    ("double-mixed", D, [1.5, -2.25, 0.0, -0.0, 4.0], NUMERIC),
    ("double-nan", D, [1.0, NAN, -3.0], NUMERIC),
    ("double-inf", D, [INF, -2.0, -INF], NUMERIC),
    ("double-only-nan", D, [NAN], NUMERIC),
    ("double-empty", D, [], NUMERIC),
    ("bool-mixed", B, [True, False, True], ("&&", "||")),
    ("bool-true", B, [True, True], ("&&", "||")),
    ("bool-empty", B, [], ("&&", "||")),
    ("argmin", A.TTuple((L, D)), [(1, 0.5), (2, -1.5), (3, 2.0)], ("argmin",)),
    ("argmin-nan-last", A.TTuple((L, D)), [(1, 3.0), (2, NAN), (3, INF)], ("argmin",)),
    ("argmin-nan-first", A.TTuple((L, D)), [(2, NAN), (1, -INF)], ("argmin",)),
    ("argmin-empty", A.TTuple((L, D)), [], ("argmin",)),
]


def test_bags_cover_every_monoid():
    assert {m for *_, ms in BAGS for m in ms} == IDENTITY.keys()


@pytest.mark.parametrize("elem,bag,monoids", [b[1:] for b in BAGS], ids=[b[0] for b in BAGS])
def test_reduction_agrees_on_spark_and_seq(spark, elem, bag, monoids):
    df = spark.createDataFrame([(x,) for x in bag], T.StructType([T.StructField("x", spark_type(elem))]))
    df.createOrReplaceTempView("_monoid_bag")
    items = ", ".join(f"{_agg_sql(m, '`x`')} AS `r{i}`" for i, m in enumerate(monoids))
    row = spark.sql(f"SELECT {items} FROM `_monoid_bag`").collect()[0]
    spark.catalog.dropTempView("_monoid_bag")
    if not bag:
        # SQL's aggregates give NULL over no rows; the sequential engine
        # never folds none (a group has rows, a total over none no row)
        assert all(row[f"r{i}"] is None for i in range(len(monoids)))
        return
    folds = _folds(tuple((f"r{i}", m, Var("x")) for i, m in enumerate(monoids)), {})
    rows = [{"x": x} for x in bag]
    for (n, fold), m in zip(folds, monoids):
        got, want = py_value(row[n]), fold(rows)
        assert _same(got, want), f"{m}/{bag}: spark {got!r}, seq {want!r}"


BIG = 2**53 + 1  # no double holds it, nor BIG + 2


def test_long_scalar_min_max_stay_exact(spark):
    # a long's min/max identity is a bound of long; an infinity would make
    # Spark's answer a double, 2**53
    src = f"var m: long = 0; var n: long = {10**18}; for v in V do {{ m max= v; n min= v; }};"
    for env in three_engines(spark, src, {"V": {0: BIG, 1: BIG + 2}}, {"V": A.TArray(1, L)}):
        assert _same(env["m"], BIG + 2) and _same(env["n"], BIG)


def test_equal_frequency_extremes_are_longs_on_spark(spark):
    prog = BY_NAME["Equal Frequency"]
    env, _, types = build_envs(prog, "tiny", spark)
    out = run_program(compile_program(prog.source, types), env, spark)
    assert type(out["mx"]) is int and type(out["mn"]) is int
    assert out["mx"] >= out["mn"] >= 1


# (monoid, scalar type, initial value): the initial values differ from
# every identity, so an update that combined a wrong one would show
SCALARS = [(op, t, init) for t, init in ((L, 7), (D, 2.5)) for op in NUMERIC] + [
    ("&&", B, True), ("||", B, False),
]


@pytest.mark.parametrize("filtered", [False, True], ids=["empty", "all-filtered"])
@pytest.mark.parametrize("op,t,init", SCALARS, ids=[f"{op}-{t.name}" for op, t, _ in SCALARS])
def test_scalar_update_over_no_rows_keeps_value_and_type(spark, op, t, init, filtered):
    elem = L if t == B else t
    upd = f"m {op}= {'v > 0' if t == B else 'v'};"
    lit = str(init).lower() if t == B else str(init)
    src = f"var m: {t.name} = {lit}; for v in V do " + (f"if (v > 100) {upd}" if filtered else upd)
    bag = {0: 1, 1: 2} if elem == L else {0: 1.0, 1: 2.0}
    for out in three_engines(spark, src, {"V": bag if filtered else {}}, {"V": A.TArray(1, elem)}):
        assert _same(out["m"], init), src


@pytest.mark.parametrize("filtered", [False, True], ids=["empty", "all-filtered"])
@pytest.mark.parametrize("op", ["min", "max"])
def test_nan_scalar_update_over_no_rows_stays_nan(spark, op, filtered):
    # the loop never runs, so m keeps its NaN; a reduction that gave one
    # row over no rows would combine it with the identity: NaN min inf = inf
    upd = f"m {op}= v;"
    src = "for v in V do " + (f"if (v > 100.0) {upd}" if filtered else upd)
    env = {"m": NAN, "V": {0: 1.0, 1: 2.0} if filtered else {}}
    for out in three_engines(spark, src, env, {"V": A.TArray(1, D)}):
        assert _same(out["m"], NAN), src



# ----------------------------------------------- scalar operator spellings
# (operator or function, operands): Spark's spelling of each (``to_sql``)
# must give what ``BIN`` and ``CALLS`` give the interpreter and seq, or
# raise where they raise. Operands stay inside the int32 range, with
# results too; a long's overflow raises on every engine, as tested in
# test_backend_sql.py.
CMP = ("==", "!=", "<", "<=", ">", ">=")
OPS = [
    *[("+", a, b) for a, b in ((3, -7), (-2.5, 0.5), (1.0, NAN), (INF, -INF))],
    *[("-", a, b) for a, b in ((-3, 5), (2.5, -0.5), (NAN, 1.0))],
    *[("*", a, b) for a, b in ((-4, 6), (0, -3), (0.0, INF), (-1.5, NAN))],
    *[("/", a, b) for a, b in ((7, 2), (-7, 2), (7, -2), (-7, -2), (0, 5), (1, 0),
                                (-7.5, 2.0), (1.0, 0.0), (0.0, 0.0), (NAN, 2.0), (3.0, INF))],
    *[("%", a, b) for a, b in ((7, 3), (-7, 3), (7, -3), (-7, -3), (0, 3), (6, -3), (5, 0),
                                (-7.5, 2.0), (7.5, -2.0), (-7.5, -2.0), (NAN, 2.0),
                                (5.0, NAN), (5.0, 0.0), (INF, 2.0))],
    *[(op, a, b) for op in CMP for a, b in ((1, 2), (2, 2), (-1, -2), (1.0, NAN), (NAN, 1.0),
                                             (NAN, NAN), (INF, NAN), (-0.0, 0.0), ("a", "b"))],
    *[(op, a, b) for op in ("&&", "||") for a, b in ((True, False), (False, False), (True, True))],
    *[(op, a, b) for op in ("min", "max")
      for a, b in ((3, -2), (-1.5, 2.0), (NAN, 1.0), (1.0, NAN))],
    *[("argmin", a, b) for a, b in (((1, 2.0), (2, 1.0)), ((1, NAN), (2, 1.0)),
                                    ((1, 1.0), (2, NAN)), (None, (2, 1.0)), ((1, 2.0), None))],
]
CALL_ROWS = [
    *[("sqrt", (x,)) for x in (4.0, 2, 0.0, -0.0, -4.0, NAN, INF)],
    *[("abs", (x,)) for x in (-3, 0, -2.5, NAN, -INF)],
    *[("exp", (x,)) for x in (0, -1.5, 1000.0, -1000.0, NAN, -INF)],
    *[("log", (x,)) for x in (1, 2.5, 0.0, -0.0, -1.0, 0, NAN, INF)],
    *[(f, (x,)) for f in ("floor", "ceil") for x in (-2.5, 2.5, -0.5, 7, -7, NAN, INF, -INF)],
    *[("dist2", (p, c))
      for p, c in (((1.0, 2.0), (4.0, -2.0)), ((0, 0), (3, 4)), ((1.0, NAN), (0.0, 0.0)))],
    *[("coalesce", (a, b)) for a, b in ((None, 3), (2, 3), (None, 2.5))],
]


def test_table_covers_every_operator_and_function():
    assert {r[0] for r in OPS} == BIN.keys()
    assert {r[0] for r in CALL_ROWS} == CALLS.keys()


RAISES = "raises"


def _outcome(fn):
    """The value ``fn`` returns, or the marker ``RAISES``."""
    try:
        return fn()
    except (ArithmeticError, ValueError, PySparkException):
        return RAISES


@pytest.mark.parametrize("term,want", [
    *[(BinOp(op, Const(a), Const(b)), lambda op=op, a=a, b=b: BIN[op](a, b)) for op, a, b in OPS],
    *[(Call(f, tuple(map(Const, xs))), lambda f=f, xs=xs: CALLS[f](*xs)) for f, xs in CALL_ROWS],
], ids=[f"{r[1]!r} {r[0]} {r[2]!r}" for r in OPS] + [f"{f}{xs!r}" for f, xs in CALL_ROWS])
def test_spark_spelling_agrees_with_python(spark, term, want):
    sql = f"SELECT {to_sql(term, {})} AS `x`"
    got = _outcome(lambda: py_value(spark.sql(sql).collect()[0]["x"]))
    expected = _outcome(want)
    assert _same(got, expected), f"{term}: spark {got!r}, python {expected!r}"
