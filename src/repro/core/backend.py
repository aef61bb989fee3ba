"""Spark DataFrame backend: executes target code over comprehensions.

State representation:

* an ``n``-dimensional array is a DataFrame with columns
  ``_k1, …, _kn, _v`` (sparse representation: a bag of index/value
  pairs, paper Section 3.4); tuple and record element types are Spark
  structs;
* a scalar variable is a driver-side Python value.

A comprehension is compiled qualifier-by-qualifier into a DataFrame
plan: array generators become scans, ``range`` generators become
``spark.range``, equality conditions between two generators' variables
become equi-join predicates, ``group by`` becomes ``groupBy().agg()``
with one aggregate per ``⊕/e`` reduction, the outer lookup of rule
(15a) becomes a left join + ``coalesce`` with the monoid identity, and
the array merge ``⊲`` becomes a full outer join with ``coalesce``
(paper: "on Spark, ⊲ can be implemented as a coGroup").

Conditions are applied as soon as all their variables are in scope
(filter pushup is semantics-preserving for pure predicates), which also
lets the Section 3.6 ``inRange`` predicates land on the array scans.
"""
from __future__ import annotations

import math
from typing import Optional

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from . import ast as A
from .comprehension import (
    Agg,
    BinOp,
    Call,
    Comp,
    Cond,
    Const,
    Generator,
    GroupByQ,
    InRange,
    LetQ,
    Merge,
    OuterLookup,
    Proj,
    PTuple,
    PVar,
    RangeT,
    StateRef,
    TupleT,
    UnOp,
    Var,
    free_vars,
    pat_vars,
    show,
    state_refs,
)
from .translate import TAssign, TInit, TWhile


class BackendError(Exception):
    pass


# ------------------------------------------------------------- schemas
def spark_type(t) -> T.DataType:
    if isinstance(t, A.TBasic):
        return {
            "long": T.LongType(),
            "double": T.DoubleType(),
            "bool": T.BooleanType(),
            "string": T.StringType(),
        }[t.name]
    if isinstance(t, A.TTuple):
        return T.StructType(
            [T.StructField(f"_{i + 1}", spark_type(x)) for i, x in enumerate(t.items)]
        )
    if isinstance(t, A.TRecord):
        return T.StructType([T.StructField(n, spark_type(x)) for n, x in t.fields])
    raise BackendError(f"no spark type for {t!r}")


def empty_array(spark: SparkSession, t: A.TArray) -> DataFrame:
    fields = [
        T.StructField(f"_k{i + 1}", spark_type(t.key if i == 0 and t.ndims == 1 else A.TBasic("long")))
        for i in range(t.ndims)
    ]
    fields.append(T.StructField("_v", spark_type(t.elem)))
    # limit(0) makes the emptiness visible to Catalyst (an empty
    # LocalRelation), so PropagateEmptyRelation removes the outer-lookup
    # and merge joins against a freshly initialised target
    return spark.createDataFrame([], T.StructType(fields)).limit(0)


# ----------------------------------------------------- column compiler
def _dist2_col(p, c):
    """Squared Euclidean distance of two 2-D point structs."""
    dx = p.getField("_1") - c.getField("_1")
    dy = p.getField("_2") - c.getField("_2")
    return dx * dx + dy * dy


_CALLS = {
    "sqrt": F.sqrt,
    "abs": F.abs,
    "exp": F.exp,
    "log": F.log,
    "floor": F.floor,
    "ceil": F.ceil,
    "dist2": _dist2_col,
    "coalesce": F.coalesce,
}


def _binop_col(op: str, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    if op == "%":
        return a % b
    if op == "==":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    if op == "&&":
        return a & b
    if op == "||":
        return a | b
    if op == "min":
        return F.least(a, b)
    if op == "max":
        return F.greatest(a, b)
    if op == "argmin":
        return (
            F.when(a.isNull(), b)
            .when(b.isNull(), a)
            .when(a.getField("_2") <= b.getField("_2"), a)
            .otherwise(b)
        )
    raise BackendError(f"unknown binary operator {op!r}")


def to_col(t, env: dict, agg_map: Optional[dict] = None):
    """Compile a comprehension term to a Spark Column."""
    if isinstance(t, Var):
        return F.col(t.name)
    if isinstance(t, Const):
        return F.lit(t.value)
    if isinstance(t, StateRef):
        v = env[t.name]
        if isinstance(v, DataFrame):
            raise BackendError(f"array {t.name} used in scalar position")
        if isinstance(v, tuple):
            return F.struct(
                *[F.lit(x).alias(f"_{i + 1}") for i, x in enumerate(v)]
            )
        return F.lit(v)
    if agg_map is not None and isinstance(t, Agg):
        key = id(t)
        if key not in agg_map:
            raise BackendError(f"unplanned aggregation {show(t)}")
        return F.col(agg_map[key])
    if isinstance(t, BinOp):
        return _binop_col(t.op, to_col(t.left, env, agg_map), to_col(t.right, env, agg_map))
    if isinstance(t, UnOp):
        c = to_col(t.expr, env, agg_map)
        return -c if t.op == "-" else ~c
    if isinstance(t, TupleT):
        return F.struct(
            *[to_col(x, env, agg_map).alias(f"_{i + 1}") for i, x in enumerate(t.items)]
        )
    if isinstance(t, Proj):
        return to_col(t.expr, env, agg_map).getField(t.field)
    if isinstance(t, Call):
        fn = _CALLS.get(t.fn)
        if fn is None:
            raise BackendError(f"unknown function {t.fn!r}")
        return fn(*[to_col(a, env, agg_map) for a in t.args])
    if isinstance(t, InRange):
        c = to_col(t.expr, env, agg_map)
        return (c >= to_col(t.lo, env, agg_map)) & (c <= to_col(t.hi, env, agg_map))
    raise BackendError(f"cannot compile term to column: {show(t)}")


_AGG_FN = {
    "+": F.sum,
    "*": F.product,
    "min": F.min,
    "max": F.max,
    "&&": F.bool_and,
    "||": F.bool_or,
}


def _agg_col(monoid: str, col):
    if monoid == "argmin":
        return F.min_by(col, col.getField("_2"))
    fn = _AGG_FN.get(monoid)
    if fn is None:
        raise BackendError(f"unknown monoid {monoid!r}")
    return fn(col)


def _collect_aggs(t, out: list) -> None:
    """Find Agg nodes (not descending into nested comprehensions)."""
    if isinstance(t, Agg):
        out.append(t)
        return
    if isinstance(t, BinOp):
        _collect_aggs(t.left, out)
        _collect_aggs(t.right, out)
    elif isinstance(t, UnOp):
        _collect_aggs(t.expr, out)
    elif isinstance(t, TupleT):
        for x in t.items:
            _collect_aggs(x, out)
    elif isinstance(t, Call):
        for x in t.args:
            _collect_aggs(x, out)
    elif isinstance(t, Proj):
        _collect_aggs(t.expr, out)
    elif isinstance(t, InRange):
        _collect_aggs(t.expr, out)
        _collect_aggs(t.lo, out)
        _collect_aggs(t.hi, out)


# ---------------------------------------------------- python evaluation
def py_eval(t, env: dict, bindings: Optional[dict] = None):
    """Evaluate a generator-free term on the driver. ``Agg(m, e)`` over
    the empty qualifier list is a reduction of a singleton bag: ``e``.
    ``bindings`` supplies values for driver-resolved variables (e.g. a
    constant-key outer lookup)."""
    if isinstance(t, Var):
        if bindings is not None and t.name in bindings:
            return bindings[t.name]
        raise BackendError(f"unbound variable {t.name} in driver evaluation")
    if isinstance(t, Const):
        return t.value
    if isinstance(t, StateRef):
        return env[t.name]
    if isinstance(t, Agg):
        return py_eval(t.expr, env, bindings)
    if isinstance(t, BinOp):
        a = py_eval(t.left, env, bindings)
        b = py_eval(t.right, env, bindings)
        return _PY_BIN[t.op](a, b)
    if isinstance(t, UnOp):
        v = py_eval(t.expr, env, bindings)
        return -v if t.op == "-" else not v
    if isinstance(t, TupleT):
        return tuple(py_eval(x, env, bindings) for x in t.items)
    if isinstance(t, Proj):
        v = py_eval(t.expr, env, bindings)
        if t.field.lstrip("_").isdigit():
            return v[int(t.field.lstrip("_")) - 1]
        return v[t.field]
    if isinstance(t, Call):
        return _PY_CALLS[t.fn](*[py_eval(a, env, bindings) for a in t.args])
    if isinstance(t, InRange):
        return (
            py_eval(t.lo, env, bindings)
            <= py_eval(t.expr, env, bindings)
            <= py_eval(t.hi, env, bindings)
        )
    raise BackendError(f"cannot python-evaluate {show(t)}")


def _py_argmin(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a if a[1] <= b[1] else b


_PY_BIN = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "&&": lambda a, b: a and b,
    "||": lambda a, b: a or b,
    "min": min,
    "max": max,
    "argmin": _py_argmin,
}
_PY_CALLS = {
    "sqrt": math.sqrt,
    "abs": abs,
    "exp": math.exp,
    "log": math.log,
    "floor": math.floor,
    "ceil": math.ceil,
    "dist2": lambda p, c: (p[0] - c[0]) ** 2 + (p[1] - c[1]) ** 2,
    "coalesce": lambda a, b: b if a is None else a,
}


# ------------------------------------------------- comprehension compile
class _Frontier:
    """DataFrame under construction + the set of bound variable names."""

    def __init__(self):
        self.df: Optional[DataFrame] = None
        self.bound: set = set()


def _pattern_cols(pat) -> list:
    names = pat_vars(pat)
    if not names:
        raise BackendError("empty pattern")
    return names


def _scan(env, name: str, pat) -> DataFrame:
    df = env[name]
    if not isinstance(df, DataFrame):
        raise BackendError(f"{name} is not an array")
    names = _pattern_cols(pat)
    if len(names) != len(df.columns):
        raise BackendError(
            f"pattern arity {len(names)} != array {name} arity {len(df.columns)}"
        )
    return df.toDF(*names).alias(f"scan_{name}_{id(pat)}")


def compile_comp(comp: Comp, env: dict, spark: SparkSession):
    """Compile a comprehension to either a DataFrame (row per bag
    element) with columns named after the head's needs, or a driver-side
    Python value when the comprehension has no generators.

    Returns ``("df", DataFrame, head_term, agg_map)`` or
    ``("scalar", value)``. The caller shapes the head.
    """
    has_gb = any(isinstance(q, GroupByQ) for q in comp.quals)
    fr = _Frontier()
    pending: list = []  # unapplied conditions
    agg_map: dict = {}
    driver: dict = {}  # bindings resolved on the driver (no generators yet)

    # Hoist variable-bearing, aggregation-free conditions so they are
    # visible to equi-join detection *before* the generators they
    # constrain (rule 11c emits index equalities after the array scan;
    # without hoisting a two-array access would compile to a cross join
    # plus filter). Pure predicates commute with generators, so this is
    # semantics-preserving; key-pattern names rebound by a group-by are
    # bound to the same values pre-group, so key filters commute too.
    def _hoistable(q):
        if not isinstance(q, Cond) or not free_vars(q.expr):
            return False
        aggs: list = []
        _collect_aggs(q.expr, aggs)
        return not aggs

    pending.extend(q.expr for q in comp.quals if _hoistable(q))

    def flush_conds():
        still = []
        for c in pending:
            if free_vars(c) <= fr.bound:
                fr.df = fr.df.filter(to_col(c, env, agg_map))
            else:
                still.append(c)
        pending[:] = still

    quals = list(comp.quals)
    i = 0
    grouped = False
    while i < len(quals):
        q = quals[i]
        i += 1
        if isinstance(q, Cond):
            if _hoistable(q):
                continue  # already hoisted into the pending set
            if fr.df is None:
                # generator-free condition: evaluate on the driver
                if not py_eval(q.expr, env, driver):
                    return ("scalar-empty", None)
            else:
                pending.append(q.expr)
                flush_conds()
            continue
        if isinstance(q, LetQ):
            if fr.df is None:
                names = pat_vars(q.pat)
                v = py_eval(q.expr, env, driver)
                if len(names) == 1:
                    driver[names[0]] = v
                else:
                    driver.update(zip(names, v))
                continue
            names = pat_vars(q.pat)
            if len(names) == 1:
                fr.df = fr.df.withColumn(names[0], to_col(q.expr, env, agg_map))
            else:
                tmp = to_col(q.expr, env, agg_map)
                for j, n in enumerate(names):
                    fr.df = fr.df.withColumn(n, tmp.getField(f"_{j + 1}"))
            fr.bound |= set(names)
            flush_conds()
            continue
        if isinstance(q, Generator):
            if isinstance(q.source, StateRef):
                gdf = _scan(env, q.source.name, q.pat)
            elif isinstance(q.source, RangeT):
                lo = py_eval(q.source.lo, env)
                hi = py_eval(q.source.hi, env)
                gdf = spark.range(int(lo), int(hi) + 1).toDF(pat_vars(q.pat)[0])
            else:
                raise BackendError(f"unnormalized generator source {show(q.source)}")
            new_vars = set(pat_vars(q.pat))
            if fr.df is None:
                fr.df = gdf
                fr.bound = new_vars
            else:
                both = fr.bound | new_vars
                join_conds, still = [], []
                for c in pending:
                    fv = free_vars(c)
                    if fv <= both and (fv & new_vars):
                        join_conds.append(c)
                    else:
                        still.append(c)
                pending[:] = still
                if join_conds:
                    on = None
                    for c in join_conds:
                        col = to_col(c, env, agg_map)
                        on = col if on is None else (on & col)
                    fr.df = fr.df.join(gdf, on=on, how="inner")
                else:
                    fr.df = fr.df.crossJoin(gdf)
                fr.bound = both
            flush_conds()
            continue
        if isinstance(q, GroupByQ):
            if fr.df is None:
                # generator-free group-by: the bag is a singleton, so
                # the group key is just the (constant) key value and
                # every ⊕/e reduces to e (py_eval's Agg rule)
                key_items = (
                    list(q.key.items) if isinstance(q.key, TupleT) else [q.key]
                )
                for n, k in zip(pat_vars(q.pat), key_items):
                    driver[n] = py_eval(k, env, driver)
                continue
            key_items = (
                list(q.key.items) if isinstance(q.key, TupleT) else [q.key]
            )
            key_names = pat_vars(q.pat)
            if len(key_items) != len(key_names):
                raise BackendError("group-by pattern/key arity mismatch")
            for n, k in zip(key_names, key_items):
                fr.df = fr.df.withColumn(n, to_col(k, env, agg_map))
            # aggregations needed downstream
            aggs: list = []
            _collect_aggs(comp.head, aggs)
            for r in quals[i:]:
                if isinstance(r, Cond):
                    _collect_aggs(r.expr, aggs)
                elif isinstance(r, LetQ):
                    _collect_aggs(r.expr, aggs)
                elif isinstance(r, OuterLookup):
                    _collect_aggs(r.key, aggs)
            agg_exprs = []
            for a in aggs:
                nm = f"_agg{len(agg_map)}"
                if id(a) in agg_map:
                    continue
                agg_map[id(a)] = nm
                agg_exprs.append(
                    _agg_col(a.monoid, to_col(a.expr, env, None)).alias(nm)
                )
            if not agg_exprs:
                raise BackendError("group-by without any aggregation")
            fr.df = fr.df.groupBy(*[F.col(n) for n in key_names]).agg(*agg_exprs)
            fr.bound = set(key_names) | set(agg_map.values())
            grouped = True
            flush_conds()
            continue
        if isinstance(q, OuterLookup):
            if fr.df is None:
                # driver-side lookup by a constant key
                adf = env[q.array]
                key_items = (
                    list(q.key.items) if isinstance(q.key, TupleT) else [q.key]
                )
                kvals = [py_eval(k, env, driver) for k in key_items]
                cond = None
                for j, kv in enumerate(kvals):
                    c = F.col(f"_k{j + 1}") == F.lit(kv)
                    cond = c if cond is None else (cond & c)
                hit = adf.filter(cond).collect()
                if hit:
                    v = hit[0]["_v"]
                    driver[q.var] = tuple(v) if hasattr(v, "asDict") else v
                else:
                    driver[q.var] = (
                        q.default.value if isinstance(q.default, Const) else None
                    )
                continue
            fr.df = _outer_lookup(fr, q, env, agg_map)
            fr.bound.add(q.var)
            flush_conds()
            continue
        raise BackendError(f"unknown qualifier {q!r}")

    if pending:
        raise BackendError(
            "conditions with unbound variables: "
            + "; ".join(show(c) for c in pending)
        )

    if fr.df is None:
        return ("scalar", py_eval(comp.head, env, driver))

    if not grouped:
        aggs: list = []
        _collect_aggs(comp.head, aggs)
        if aggs:
            # total aggregation (rule 16 removed a constant-key group-by);
            # coalesce with the monoid identity so an empty input bag
            # aggregates to the identity instead of NULL
            from .translate import _IDENTITY

            agg_exprs = []
            for a in aggs:
                if id(a) in agg_map:
                    continue
                nm = f"_agg{len(agg_map)}"
                agg_map[id(a)] = nm
                c = _agg_col(a.monoid, to_col(a.expr, env, None))
                ident = _IDENTITY.get(a.monoid)
                if isinstance(ident, Const) and ident.value is not None:
                    c = F.coalesce(c, F.lit(ident.value))
                agg_exprs.append(c.alias(nm))
            fr.df = fr.df.agg(*agg_exprs)

    return ("df", fr.df, comp.head, agg_map)


def _outer_lookup(fr: _Frontier, q: OuterLookup, env: dict, agg_map: dict):
    adf = env[q.array]
    if not isinstance(adf, DataFrame):
        raise BackendError(f"{q.array} is not an array")
    ncols = len(adf.columns)
    knames = [f"_lk{j}_{q.var}" for j in range(ncols - 1)]
    vname = f"_lv_{q.var}"
    adf = adf.toDF(*knames, vname)
    key_items = list(q.key.items) if isinstance(q.key, TupleT) else [q.key]
    if len(key_items) != len(knames):
        raise BackendError("outer-lookup key arity mismatch")
    on = None
    for k, kn in zip(key_items, knames):
        c = to_col(k, env, agg_map) == F.col(kn)
        on = c if on is None else (on & c)
    df = fr.df.join(adf, on=on, how="left")
    default = q.default.value if isinstance(q.default, Const) else None
    if default is None:
        df = df.withColumn(q.var, F.col(vname))
    else:
        df = df.withColumn(q.var, F.coalesce(F.col(vname), F.lit(default)))
    return df.drop(vname, *knames)


# --------------------------------------------------------- bag results
def _lit_value(v):
    """Literal column for a Python value; tuples become structs."""
    if isinstance(v, tuple):
        return F.struct(*[_lit_value(x).alias(f"_{i + 1}") for i, x in enumerate(v)])
    return F.lit(v)


def eval_bag_to_array(term, env, spark, ndims: int) -> DataFrame:
    """Evaluate a bag term into an array DataFrame ``(_k1.._kn, _v)``."""
    if isinstance(term, Merge):
        if not isinstance(term.old, StateRef):
            raise BackendError("merge target must be a state array")
        old = env[term.old.name]
        new = eval_bag_to_array(term.new, env, spark, ndims)
        if new is None:  # empty bag: V ⊲ ∅ = V
            return old
        return merge_arrays(old, new, ndims)
    if isinstance(term, StateRef):
        return env[term.name]
    if not isinstance(term, Comp):
        raise BackendError(f"cannot evaluate bag term {show(term)}")
    res = compile_comp(term, env, spark)
    if res[0] == "scalar-empty":
        return None
    if res[0] == "scalar":
        # generator-free comprehension: a singleton key/value row
        v = res[1]
        if not isinstance(v, tuple) or len(v) != ndims + 1:
            raise BackendError("array assignment produced a scalar")
        cols = [_lit_value(x).alias(f"_k{j + 1}") for j, x in enumerate(v[:-1])]
        cols.append(_lit_value(v[-1]).alias("_v"))
        return spark.range(1).select(*cols)
    _, df, head, agg_map = res
    if not isinstance(head, TupleT) or len(head.items) != ndims + 1:
        raise BackendError(
            f"array head arity mismatch: {show(head)} for {ndims} dims"
        )
    cols = [
        to_col(x, env, agg_map).alias(f"_k{j + 1}")
        for j, x in enumerate(head.items[:-1])
    ]
    cols.append(to_col(head.items[-1], env, agg_map).alias("_v"))
    return df.select(*cols)


def merge_arrays(old: DataFrame, new: DataFrame, ndims: int) -> DataFrame:
    """``old ⊲ new``: union preferring ``new`` on key collisions."""
    nnames = [f"_n{j}" for j in range(ndims)] + ["_nv"]
    new = new.toDF(*nnames)
    on = None
    for j in range(ndims):
        c = F.col(f"_k{j + 1}") == F.col(f"_n{j}")
        on = c if on is None else (on & c)
    joined = old.join(new, on=on, how="full")
    cols = [
        F.coalesce(F.col(f"_n{j}"), F.col(f"_k{j + 1}")).alias(f"_k{j + 1}")
        for j in range(ndims)
    ]
    cols.append(F.coalesce(F.col("_nv"), F.col("_v")).alias("_v"))
    return joined.select(*cols)


def eval_scalar(term, env, spark):
    """Evaluate a bag term expected to hold ≤1 scalar element. Returns
    (present, value): an empty bag leaves the destination unchanged
    (matching the Figure-4 conditional semantics)."""
    if isinstance(term, Comp):
        res = compile_comp(term, env, spark)
        if res[0] == "scalar":
            return True, res[1]
        if res[0] == "scalar-empty":
            return False, None
        _, df, head, agg_map = res
        # not limit(2): it scans partitions incrementally and launches
        # a second job whenever the first partition holds no row
        out = df.select(to_col(head, env, agg_map).alias("_v")).collect()
        if not out:
            return False, None
        if len(out) > 1:
            raise BackendError(
                f"scalar assignment from a bag with more than one element: {show(term)}"
            )
        v = out[0]["_v"]
        if hasattr(v, "asDict"):  # Row (struct value) → tuple
            v = tuple(v)
        return True, v
    return True, py_eval(term, env)


# ------------------------------------------------------------ execution
def run_code(code, env: dict, spark: SparkSession, types: dict) -> dict:
    """Execute target code, updating and returning the environment."""
    for st in code:
        if isinstance(st, TInit):
            env[st.name] = empty_array(spark, st.type)
        elif isinstance(st, TAssign):
            t = types.get(st.name)
            if isinstance(t, A.TArray):
                env[st.name] = eval_bag_to_array(st.term, env, spark, t.ndims)
            else:
                present, v = eval_scalar(st.term, env, spark)
                if present:
                    env[st.name] = v
        elif isinstance(st, TWhile):
            carried = _carried_arrays(st.body, types)
            while True:
                present, c = eval_scalar(st.cond, env, spark)
                if not present or not c:
                    break
                run_code(st.body, env, spark, types)
                # truncate the lineage of the arrays that carry state to
                # the next iteration; upstream ones first, so no
                # checkpoint recomputes another's plan
                for s in carried:
                    if isinstance(env.get(s), DataFrame):
                        env[s] = env[s].localCheckpoint(eager=True)
        else:
            raise BackendError(f"unknown target statement {st!r}")
    return env


def _carried_arrays(body, types) -> list:
    """Arrays a loop body assigns that hold state across iterations, in
    order of first mention. An array whose first mention in the body is
    its re-initialisation (``TInit``) starts afresh in every iteration,
    and its lineage starts at the carried arrays: it needs no
    checkpoint."""
    first: dict = {}  # name -> True if a TInit mentions it first
    assigned = set()

    def walk(code):
        for st in code:
            if isinstance(st, TWhile):
                for n in state_refs(st.cond):
                    first.setdefault(n, False)
                walk(st.body)
                continue
            if isinstance(st, TAssign):
                for n in state_refs(st.term):
                    first.setdefault(n, False)
            first.setdefault(st.name, isinstance(st, TInit))
            assigned.add(st.name)

    walk(body)
    return [
        n for n, init in first.items()
        if not init and n in assigned and isinstance(types.get(n), A.TArray)
    ]
