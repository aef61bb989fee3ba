"""Spark backend: executes target code over comprehensions, one Spark SQL
query per statement.

State representation:

* an ``n``-dimensional array is a DataFrame with columns
  ``_k1, …, _kn, _v`` (sparse representation: a bag of index/value
  pairs, paper Section 3.4); tuple and record element types are Spark
  structs;
* a scalar variable is a driver-side Python value.

Each target statement is lowered to the text of one Spark SQL query and
run with a single ``spark.sql`` call, so Catalyst analyses the whole
statement once instead of once per DataFrame call. The comprehension
is lowered qualifier-by-qualifier into nested ``SELECT … FROM (…)``:
array generators become scans of the arrays (registered as temporary
views while the query is analysed), ``range`` generators become the
``range`` table function, equality conditions between two generators'
variables become equi-join predicates, ``group by`` becomes ``GROUP BY``
with one aggregate per ``⊕/e`` reduction, and the array merge ``⊲``
becomes a ``FULL OUTER JOIN`` with ``coalesce`` (paper: "on Spark, ⊲
can be implemented as a coGroup"). Scalar state enters the query as
literals typed as ``F.lit`` would type them.

An incremental update (rule 15a: ``X ⊲ {(k, w ⊕ ⊕/v) | …, group by k,
w <~ X[k] ?? id}``) is that one join: the lookup of the pre-update
value ``w`` reads the old side of the merge's join instead of joining
``X`` a second time. A merge into a just-initialised array is the new
bag alone, with no join; every lookup into it misses.

Conditions are applied as soon as all their variables are in scope
(filter pushup is semantics-preserving for pure predicates), which also
lets the Section 3.6 ``inRange`` predicates land on the array scans.

A ``while`` loop checkpoints the arrays that carry state across
iterations before each iteration that reads them, so not after the
last one: there they stay lazy, and each later read of such an array
computes the last iteration again (no suite program reads one twice).
"""
from __future__ import annotations

import math
import numbers
import weakref
from typing import Optional

from pyspark.errors import AnalysisException
from pyspark.sql import DataFrame, Row, SparkSession
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
    RangeT,
    StateRef,
    TupleT,
    UnOp,
    Var,
    free_vars,
    pat_vars,
    show,
    show_q,
    state_refs,
)
from .translate import _IDENTITY, TAssign, TInit, TWhile


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


def _sql_type(dt: T.DataType) -> str:
    if isinstance(dt, T.StructType):
        fields = ", ".join(f"{_id(f.name)}: {_sql_type(f.dataType)}" for f in dt.fields)
        return f"STRUCT<{fields}>"
    return dt.simpleString().upper()


# the arrays empty_array returned, each mapped to its columns' SQL types:
# a merge into one of them is the new bag alone, with no join
_FRESH: "weakref.WeakKeyDictionary[DataFrame, list]" = weakref.WeakKeyDictionary()


def empty_array(spark: SparkSession, t: A.TArray) -> DataFrame:
    types = [
        _sql_type(spark_type(t.key if i == 0 and t.ndims == 1 else A.TBasic("long")))
        for i in range(t.ndims)
    ] + [_sql_type(spark_type(t.elem))]
    items = ", ".join(
        f"CAST(NULL AS {ty}) AS {_id(c)}" for c, ty in zip(_key_cols(t.ndims), types)
    )
    # LIMIT 0 makes the emptiness visible to Catalyst (an empty
    # LocalRelation) for the reads of a fresh array that are not merges
    df = _Query(spark).run(f"SELECT {items} LIMIT 0", "an empty array")
    _FRESH[df] = types
    return df


# -------------------------------------------------------- SQL lowering
def _id(name: str) -> str:
    return "`" + name.replace("`", "``") + "`"


def _struct(fields) -> str:
    return "named_struct(" + ", ".join(f"{_lit(n)}, {v}" for n, v in fields) + ")"


def _lit(v) -> str:
    """SQL literal of a Python value, typed as ``F.lit`` types it: ints
    are INT inside the int32 range and BIGINT outside it, floats DOUBLE;
    tuples become structs with fields ``_1.._n`` and dicts (records)
    structs with their own field names."""
    if v is None:
        return "NULL"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, numbers.Integral):
        v = int(v)
        s = str(v) if -(2**31) <= v < 2**31 else f"{v}L"
        return f"({s})" if v < 0 else s
    if isinstance(v, numbers.Real):
        v = float(v)
        if math.isnan(v):
            return "CAST('NaN' AS DOUBLE)"
        if math.isinf(v):
            return "CAST('Infinity' AS DOUBLE)" if v > 0 else "CAST('-Infinity' AS DOUBLE)"
        # a bare 1.0 would be a DECIMAL
        return f"({v!r}D)" if math.copysign(1.0, v) < 0 else f"{v!r}D"
    if isinstance(v, str):
        # $ keeps "${…}" away from Spark's variable substitution
        esc = v.replace("\\", "\\\\").replace("'", "\\'").replace("$", "\\u0024")
        return f"'{esc}'"
    if isinstance(v, tuple):
        return _struct((f"_{i + 1}", _lit(x)) for i, x in enumerate(v))
    if isinstance(v, dict):
        return _struct((n, _lit(x)) for n, x in v.items())
    raise BackendError(f"no SQL literal for {v!r}")


def py_value(v):
    """A value collected from Spark as the engines' Python value: structs
    become tuples (fields ``_1.._n``) or dicts (named record fields)."""
    if isinstance(v, Row):
        d = v.asDict()
        if all(k.startswith("_") and k[1:].isdigit() for k in d):
            return tuple(py_value(d[f"_{i + 1}"]) for i in range(len(d)))
        return {k: py_value(x) for k, x in d.items()}
    return v


_SQL_BIN = {
    "==": "=", "&&": "AND", "||": "OR",
    **{op: op for op in ("+", "-", "*", "/", "!=", "<", "<=", ">", ">=")},
}
# ln, not log: SQL's one-argument log is Logarithm(e, x), F.log's is Log(x)
_SQL_FN = {"log": "ln", **{f: f for f in ("sqrt", "abs", "exp", "floor", "ceil", "coalesce")}}


def to_sql(t, env: dict, agg_map: Optional[dict] = None) -> str:
    """Lower a comprehension term to a Spark SQL expression."""
    if isinstance(t, Var):
        return _id(t.name)
    if isinstance(t, Const):
        return _lit(t.value)
    if isinstance(t, StateRef):
        v = env[t.name]
        if isinstance(v, DataFrame):
            raise BackendError(f"array {t.name} used in scalar position")
        return _lit(v)
    if agg_map is not None and isinstance(t, Agg):
        key = id(t)
        if key not in agg_map:
            raise BackendError(f"unplanned aggregation {show(t)}")
        return _id(agg_map[key])
    if isinstance(t, BinOp):
        a, b = to_sql(t.left, env, agg_map), to_sql(t.right, env, agg_map)
        if t.op == "%":
            # floored, like Python's: SQL's % truncates, and pmod
            # differs from both when the divisor is negative
            r = f"({a} % {b})"
            return f"(CASE WHEN {r} <> 0 AND ({r} < 0) <> ({b} < 0) THEN {r} + {b} ELSE {r} END)"
        if t.op in _SQL_BIN:
            return f"({a} {_SQL_BIN[t.op]} {b})"
        if t.op == "min":
            return f"least({a}, {b})"
        if t.op == "max":
            return f"greatest({a}, {b})"
        if t.op == "argmin":
            return (
                f"CASE WHEN {a} IS NULL THEN {b} WHEN {b} IS NULL THEN {a} "
                f"WHEN {a}.`_2` <= {b}.`_2` THEN {a} ELSE {b} END"
            )
        raise BackendError(f"unknown binary operator {t.op!r}")
    if isinstance(t, UnOp):
        c = to_sql(t.expr, env, agg_map)
        return f"(- {c})" if t.op == "-" else f"(NOT {c})"
    if isinstance(t, TupleT):
        return _struct(
            (f"_{i + 1}", to_sql(x, env, agg_map)) for i, x in enumerate(t.items)
        )
    if isinstance(t, Proj):
        return f"{to_sql(t.expr, env, agg_map)}.{_id(t.field)}"
    if isinstance(t, Call):
        args = [to_sql(a, env, agg_map) for a in t.args]
        if t.fn == "dist2":  # squared Euclidean distance of 2-D points
            p, c = args
            dx, dy = f"({p}.`_1` - {c}.`_1`)", f"({p}.`_2` - {c}.`_2`)"
            return f"(({dx} * {dx}) + ({dy} * {dy}))"
        if t.fn not in _SQL_FN:
            raise BackendError(f"unknown function {t.fn!r}")
        return f"{_SQL_FN[t.fn]}({', '.join(args)})"
    if isinstance(t, InRange):
        c = to_sql(t.expr, env, agg_map)
        lo, hi = to_sql(t.lo, env, agg_map), to_sql(t.hi, env, agg_map)
        return f"(({c} >= {lo}) AND ({c} <= {hi}))"
    raise BackendError(f"cannot lower term to SQL: {show(t)}")


_SQL_AGG = {"+": "sum", "min": "min", "max": "max", "&&": "bool_and", "||": "bool_or"}


def _agg_sql(monoid: str, e: str) -> str:
    if monoid == "argmin":
        return f"min_by({e}, {e}.`_2`)"
    if monoid == "*":
        # Spark SQL has no product aggregate: fold the group's values,
        # seeded with the first one so the result keeps their type
        vs = f"collect_list({e})"
        return (
            f"aggregate(slice({vs}, 2, greatest(size({vs}), 1)), get({vs}, 0), "
            f"(_pa, _px) -> _pa * _px)"
        )
    if monoid not in _SQL_AGG:
        raise BackendError(f"unknown monoid {monoid!r}")
    return f"{_SQL_AGG[monoid]}({e})"


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


class _Query:
    """One Spark SQL query under construction: the arrays it reads and
    fresh subquery aliases."""

    def __init__(self, spark: SparkSession):
        self.spark = spark
        self.views: dict = {}  # id(DataFrame) -> (view name, DataFrame)
        self.n = 0

    def alias(self) -> str:
        self.n += 1
        return _id(f"_q{self.n}")

    def scan(self, df: DataFrame, cols: list) -> str:
        """FROM item reading array ``df`` with its columns renamed, by
        position, to ``cols``."""
        if id(df) not in self.views:
            self.views[id(df)] = (f"_diablo_{len(self.views)}", df)
        view = self.views[id(df)][0]
        return f"{_id(view)} AS {self.alias()}({', '.join(map(_id, cols))})"

    def run(self, sql: str, what: str) -> DataFrame:
        """Analyse ``sql`` with the arrays it reads as temporary views;
        the views are gone again when this returns."""
        for view, df in self.views.values():
            df.createOrReplaceTempView(view)
        try:
            return self.spark.sql(sql)
        except AnalysisException as e:
            msg = str(e).split("\n", 1)[0]
            raise BackendError(
                f"Spark rejected the query for {what}: {msg}\nquery: {sql}"
            ) from e
        finally:
            if self.views:
                # the session catalog, not spark.catalog.dropTempView:
                # that one also uncaches the view's plan, i.e. a
                # persisted input array
                cat = self.spark._jsparkSession.sessionState().catalog()
                for view, _ in self.views.values():
                    cat.dropTempView(view)


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
    """Relation under construction: a FROM item and its column names,
    which are the bound variables."""

    def __init__(self, src: str, cols: list):
        self.src = src
        self.cols = cols

    def select(self, qb: _Query, items: list, tail: str = "") -> None:
        self.src = f"(SELECT {', '.join(items)} FROM {self.src}{tail}) AS {qb.alias()}"

    def with_cols(self, exprs: dict) -> list:
        """Select items that add the columns ``exprs`` names, or replace
        them in place (``withColumn``)."""
        items = [f"{exprs[c]} AS {_id(c)}" if c in exprs else _id(c) for c in self.cols]
        for n, e in exprs.items():
            if n not in self.cols:
                items.append(f"{e} AS {_id(n)}")
                self.cols.append(n)
        return items


def compile_comp(comp: Comp, env: dict, qb: _Query):
    """Lower a comprehension to a relation (row per bag element) whose
    columns are the variables the head needs, or evaluate it on the
    driver when it has no generators.

    Returns ``("rel", frontier, head_term, agg_map)``, ``("scalar",
    value)`` or ``("scalar-empty", None)``. The caller shapes the head.
    """
    fr: Optional[_Frontier] = None
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
        bound = set(fr.cols)
        ready = [c for c in pending if free_vars(c) <= bound]
        if ready:
            pending[:] = [c for c in pending if not free_vars(c) <= bound]
            where = " AND ".join(to_sql(c, env, agg_map) for c in ready)
            fr.select(qb, [_id(c) for c in fr.cols], f" WHERE {where}")

    quals = list(comp.quals)
    i = 0
    grouped = False
    while i < len(quals):
        q = quals[i]
        i += 1
        if isinstance(q, Cond):
            if _hoistable(q):
                continue  # already hoisted into the pending set
            if fr is None:
                # generator-free condition: evaluate on the driver
                if not py_eval(q.expr, env, driver):
                    return ("scalar-empty", None)
            else:
                pending.append(q.expr)
                flush_conds()
            continue
        if isinstance(q, LetQ):
            names = pat_vars(q.pat)
            if fr is None:
                v = py_eval(q.expr, env, driver)
                if len(names) == 1:
                    driver[names[0]] = v
                else:
                    driver.update(zip(names, v))
                continue
            e = to_sql(q.expr, env, agg_map)
            if len(names) == 1:
                fr.select(qb, fr.with_cols({names[0]: e}))
            else:
                fr.select(qb, fr.with_cols(
                    {n: f"{e}.{_id(f'_{j + 1}')}" for j, n in enumerate(names)}
                ))
            flush_conds()
            continue
        if isinstance(q, Generator):
            names = pat_vars(q.pat)
            if isinstance(q.source, StateRef):
                g = qb.scan(_array(env, q.source.name), names)
            elif isinstance(q.source, RangeT):
                lo = int(py_eval(q.source.lo, env))
                hi = int(py_eval(q.source.hi, env))
                g = f"range({_lit(lo)}, {_lit(hi + 1)}) AS {qb.alias()}({_id(names[0])})"
            else:
                raise BackendError(f"unnormalized generator source {show(q.source)}")
            if fr is None:
                fr = _Frontier(g, names)
            else:
                new_vars = set(names)
                both = set(fr.cols) | new_vars
                join_conds, still = [], []
                for c in pending:
                    fv = free_vars(c)
                    if fv <= both and (fv & new_vars):
                        join_conds.append(c)
                    else:
                        still.append(c)
                pending[:] = still
                fr.cols = fr.cols + names
                if join_conds:
                    on = " AND ".join(to_sql(c, env, agg_map) for c in join_conds)
                    join = f" JOIN {g} ON {on}"
                else:
                    join = f" CROSS JOIN {g}"
                fr.select(qb, [_id(c) for c in fr.cols], join)
            flush_conds()
            continue
        if isinstance(q, GroupByQ):
            key_items = list(q.key.items) if isinstance(q.key, TupleT) else [q.key]
            key_names = pat_vars(q.pat)
            if fr is None:
                # generator-free group-by: the bag is a singleton, so
                # the group key is just the (constant) key value and
                # every ⊕/e reduces to e (py_eval's Agg rule)
                for n, k in zip(key_names, key_items):
                    driver[n] = py_eval(k, env, driver)
                continue
            if len(key_items) != len(key_names):
                raise BackendError("group-by pattern/key arity mismatch")
            fr.select(qb, fr.with_cols(
                {n: to_sql(k, env, agg_map) for n, k in zip(key_names, key_items)}
            ))
            # aggregations needed downstream
            aggs: list = []
            _collect_aggs(comp.head, aggs)
            for r in quals[i:]:
                if isinstance(r, (Cond, LetQ)):
                    _collect_aggs(r.expr, aggs)
            agg_items = _plan_aggs(aggs, agg_map, env, total=False)
            if not agg_items:
                raise BackendError("group-by without any aggregation")
            keys = ", ".join(map(_id, key_names))
            fr.select(qb, [keys] + agg_items, f" GROUP BY {keys}")
            fr.cols = key_names + list(agg_map.values())
            grouped = True
            flush_conds()
            continue
        if isinstance(q, OuterLookup):
            key_items = list(q.key.items) if isinstance(q.key, TupleT) else [q.key]
            default = q.default.value if isinstance(q.default, Const) else None
            if fr is None:
                # driver-side lookup by a constant key
                lq = _Query(qb.spark)
                knames = [f"_k{j + 1}" for j in range(len(key_items))]
                src = lq.scan(_array(env, q.array), knames + ["_v"])
                where = " AND ".join(
                    f"{_id(kn)} = {_lit(py_eval(k, env, driver))}"
                    for kn, k in zip(knames, key_items)
                )
                hit = lq.run(f"SELECT `_v` FROM {src} WHERE {where}", show_q(q)).collect()
                driver[q.var] = py_value(hit[0]["_v"]) if hit else default
                continue
            # rule 15a's lookup of the pre-update value is lowered with
            # its merge, by _update_sql
            raise BackendError(f"outer lookup outside an array update: {show_q(q)}")
        raise BackendError(f"unknown qualifier {q!r}")

    if pending:
        raise BackendError(
            "conditions with unbound variables: "
            + "; ".join(show(c) for c in pending)
        )

    if fr is None:
        return ("scalar", py_eval(comp.head, env, driver))

    if not grouped:
        aggs: list = []
        _collect_aggs(comp.head, aggs)
        if aggs:
            # total aggregation (rule 16 removed a constant-key group-by)
            fr.select(qb, _plan_aggs(aggs, agg_map, env, total=True))
            fr.cols = list(agg_map.values())

    return ("rel", fr, comp.head, agg_map)


def _plan_aggs(aggs: list, agg_map: dict, env: dict, total: bool) -> list:
    """Name each new aggregation in ``agg_map``; return its select items.
    A total aggregation is coalesced with the monoid identity so an
    empty input bag aggregates to the identity instead of NULL."""
    items = []
    for a in aggs:
        if id(a) in agg_map:
            continue
        nm = f"_agg{len(agg_map)}"
        agg_map[id(a)] = nm
        c = _agg_sql(a.monoid, to_sql(a.expr, env, None))
        ident = _IDENTITY.get(a.monoid)
        if total and isinstance(ident, Const) and ident.value is not None:
            c = f"coalesce({c}, {_lit(ident.value)})"
        items.append(f"{c} AS {_id(nm)}")
    return items


# --------------------------------------------------------- bag results
def _key_cols(ndims: int, prefix: str = "_k", value: str = "_v") -> list:
    return [f"{prefix}{j + 1}" for j in range(ndims)] + [value]


def _array(env: dict, name: str) -> DataFrame:
    df = env[name]
    if not isinstance(df, DataFrame):
        raise BackendError(f"{name} is not an array")
    return df


def _bag_sql(term, env, qb: _Query, ndims: int):
    """A bag term's ``(_k1.._kn, _v)`` rows: the SELECT text that
    computes them, the array DataFrame itself when they are one that
    exists, or None for a generator-free comprehension whose condition
    is false (the empty bag)."""
    if isinstance(term, StateRef):
        return _array(env, term.name)
    if isinstance(term, Merge):
        if not isinstance(term.old, StateRef):
            raise BackendError("merge target must be a state array")
        old = _array(env, term.old.name)
        if _is_update(term, ndims):
            new = _update_sql(old, term.new, env, qb, ndims)
        else:
            new = _bag_sql(term.new, env, qb, ndims)
            if new is not None:
                new = _merge_sql(qb, old, new, ndims)
        return old if new is None else new  # empty bag: V ⊲ ∅ = V
    if not isinstance(term, Comp):
        raise BackendError(f"cannot evaluate bag term {show(term)}")
    res = compile_comp(term, env, qb)
    if res[0] == "scalar-empty":
        return None
    if res[0] == "scalar":
        # generator-free comprehension: a singleton key/value row
        v = res[1]
        if not isinstance(v, tuple) or len(v) != ndims + 1:
            raise BackendError("array assignment produced a scalar")
        items = [f"{_lit(x)} AS {_id(c)}" for x, c in zip(v, _key_cols(ndims))]
        return f"SELECT {', '.join(items)} FROM range(1)"
    _, fr, head, agg_map = res
    if not isinstance(head, TupleT) or len(head.items) != ndims + 1:
        raise BackendError(
            f"array head arity mismatch: {show(head)} for {ndims} dims"
        )
    items = [
        f"{to_sql(x, env, agg_map)} AS {_id(c)}"
        for x, c in zip(head.items, _key_cols(ndims))
    ]
    return f"SELECT {', '.join(items)} FROM {fr.src}"


def eval_bag_to_array(term, env, spark, ndims: int) -> DataFrame:
    """Evaluate a bag term into an array DataFrame ``(_k1.._kn, _v)``
    with one Spark SQL query."""
    qb = _Query(spark)
    sql = _bag_sql(term, env, qb, ndims)
    if sql is None or isinstance(sql, DataFrame):
        return sql
    return qb.run(sql, show(term))


def _merge_sql(qb: _Query, old: DataFrame, new, ndims: int) -> str:
    """``old ⊲ new`` for an array ``old`` and the rows ``new`` (an array
    or the SELECT text of a bag): union preferring ``new`` on key
    collisions. Into a fresh ``old`` this is ``new`` alone."""
    ncols = _key_cols(ndims, "_n", "_nv")
    if isinstance(new, DataFrame):
        new = qb.scan(new, ncols)
    else:
        new = f"({new}) AS {qb.alias()}({', '.join(map(_id, ncols))})"
    if old in _FRESH:
        return _fresh_sql(_FRESH[old], list(map(_id, ncols)), new)
    pairs = list(zip(_key_cols(ndims), ncols))
    items = [f"coalesce({_id(n)}, {_id(k)}) AS {_id(k)}" for k, n in pairs]
    on = " AND ".join(f"({_id(k)} = {_id(n)})" for k, n in pairs[:-1])
    old = qb.scan(old, _key_cols(ndims))
    return f"SELECT {', '.join(items)} FROM {old} FULL OUTER JOIN {new} ON {on}"


def merge_arrays(old: DataFrame, new: DataFrame, ndims: int) -> DataFrame:
    """``old ⊲ new``: union preferring ``new`` on key collisions."""
    qb = _Query(old.sparkSession)
    return qb.run(_merge_sql(qb, old, new, ndims), "a merge")


def _fresh_sql(types: list, exprs: list, src: str) -> str:
    """The rows ``exprs`` over ``src`` as a merge into a fresh array with
    column types ``types``. Each column keeps the type the full outer
    join against the empty array gave it (the wider of the two), and
    Catalyst folds the ``coalesce`` with NULL away."""
    items = [
        f"coalesce({e}, CAST(NULL AS {ty})) AS {_id(c)}"
        for e, ty, c in zip(exprs, types, _key_cols(len(types) - 1))
    ]
    return f"SELECT {', '.join(items)} FROM {src}"


def _is_update(term: Merge, ndims: int) -> bool:
    """Whether ``term`` is rule 15a's update of its target array ``X``:
    ``X ⊲ {(k, f(w, …)) | …, w <~ X[k] ?? d}`` with a generator, whose
    last qualifier looks up the pre-update value by the head's key."""
    c = term.new
    if not (isinstance(c, Comp) and c.quals and isinstance(c.head, TupleT)):
        return False
    look = c.quals[-1]
    if not (isinstance(look, OuterLookup) and look.array == term.old.name):
        return False
    key = list(look.key.items) if isinstance(look.key, TupleT) else [look.key]
    return (
        len(c.head.items) == ndims + 1
        and list(c.head.items[:ndims]) == key
        and any(isinstance(q, Generator) for q in c.quals)
    )


def _update_sql(old: DataFrame, comp: Comp, env, qb: _Query, ndims: int):
    """An update (see ``_is_update``) of ``old`` as one query: the bag
    ``q`` without the lookup, ``old FULL OUTER JOIN q`` on the key with
    ``w = coalesce(old._v, d)``, and the value ``f(w, …)`` where a row of
    ``q`` is present, else ``old._v``. Into a fresh ``old`` every lookup
    misses: ``w`` is ``d`` and there is no join. None when the bag is
    empty."""
    look = comp.quals[-1]
    res = compile_comp(Comp(comp.head, comp.quals[:-1]), env, qb)
    if res[0] == "scalar-empty":
        return None
    _, fr, head, agg_map = res
    exprs = [to_sql(x, env, agg_map) for x in head.items]
    default = _lit(look.default.value) if isinstance(look.default, Const) else "NULL"
    if look.default in (_IDENTITY["min"], _IDENTITY["max"]):
        # least/greatest skip NULLs, so a missed lookup needs no ±inf
        # identity, a double that would turn longs into doubles
        default = "NULL"
    if old in _FRESH:
        types = _FRESH[old]
        fr.select(qb, fr.with_cols({look.var: f"coalesce(CAST(NULL AS {types[-1]}), {default})"}))
        return _fresh_sql(types, exprs, fr.src)
    ocols = _key_cols(ndims, f"_lk_{look.var}_", f"_lv_{look.var}")
    scan = qb.scan(old, ocols)
    ocols = list(map(_id, ocols))
    hit = _id(f"_hit_{look.var}")
    fr.select(qb, [_id(c) for c in fr.cols] + [f"true AS {hit}"])
    on = " AND ".join(f"({e} = {c})" for e, c in zip(exprs[:-1], ocols))
    fr.select(qb, [_id(c) for c in fr.cols] + [
        hit, *ocols, f"coalesce({ocols[-1]}, {default}) AS {_id(look.var)}"
    ], f" FULL OUTER JOIN {scan} ON {on}")
    items = [f"coalesce({e}, {c})" for e, c in zip(exprs, ocols[:-1])] + [
        f"coalesce(CASE WHEN {hit} THEN {exprs[-1]} END, {ocols[-1]})"
    ]
    return "SELECT " + ", ".join(
        f"{e} AS {_id(c)}" for e, c in zip(items, _key_cols(ndims))
    ) + f" FROM {fr.src}"


def eval_scalar(term, env, spark):
    """Evaluate a bag term expected to hold ≤1 scalar element. Returns
    (present, value): an empty bag leaves the destination unchanged
    (matching the Figure-4 conditional semantics)."""
    if isinstance(term, Comp):
        qb = _Query(spark)
        res = compile_comp(term, env, qb)
        if res[0] == "scalar":
            return True, res[1]
        if res[0] == "scalar-empty":
            return False, None
        _, fr, head, agg_map = res
        sql = f"SELECT {to_sql(head, env, agg_map)} AS `_v` FROM {fr.src}"
        # not limit(2): it scans partitions incrementally and launches
        # a second job whenever the first partition holds no row
        out = qb.run(sql, show(term)).collect()
        if not out:
            return False, None
        if len(out) > 1:
            raise BackendError(
                f"scalar assignment from a bag with more than one element: {show(term)}"
            )
        return True, py_value(out[0]["_v"])
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
            cond_reads = bool(set(state_refs(st.cond)) & set(carried))
            dirty = False  # carried arrays hold an unchecked iteration
            while True:
                if dirty and cond_reads:
                    _checkpoint(env, carried)
                    dirty = False
                present, c = eval_scalar(st.cond, env, spark)
                if not present or not c:
                    break
                if dirty:
                    _checkpoint(env, carried)
                run_code(st.body, env, spark, types)
                dirty = True
        else:
            raise BackendError(f"unknown target statement {st!r}")
    return env


def _checkpoint(env: dict, carried: list) -> None:
    """Truncate the lineage of the arrays that carry state into the next
    iteration, upstream ones first so no checkpoint recomputes another's
    plan."""
    for s in carried:
        if isinstance(env.get(s), DataFrame):
            env[s] = env[s].localCheckpoint(eager=True)


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
