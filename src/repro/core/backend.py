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
statement once instead of once per DataFrame call. ``plan.plan`` lowers
each comprehension to relational steps, and this module spells them as
nested ``SELECT … FROM (…)``: scans of the arrays (registered as
temporary views while the query is analysed), the ``range`` table
function, joins on their conditions, ``WHERE`` filters, ``GROUP BY``
with one aggregate per ``⊕/e`` reduction; the array merge ``⊲`` becomes
a ``FULL OUTER JOIN`` with ``coalesce`` (paper: "on Spark, ⊲ can be
implemented as a coGroup"). The steps before the first generator run on
the driver with the sequential engine's evaluator. Scalar state enters
the query as literals typed as ``F.lit`` would type them.

An incremental update (rule 15a: ``X ⊲ {(k, w ⊕ ⊕/v) | …, group by k,
w <~ X[k] ?? id}``) is that one join: the lookup of the pre-update
value ``w`` reads the old side of the merge's join instead of joining
``X`` a second time. A merge into a just-initialised array is the new
bag alone, with no join; every lookup into it misses.

The plan applies conditions as soon as all their variables are bound,
which lets the Section 3.6 ``inRange`` predicates land on the array
scans.

A ``while`` loop checkpoints the arrays that carry state across
iterations before each iteration that reads them, so not after the
last one: there they stay lazy, and each later read of such an array
computes the last iteration again (no suite program reads one twice).
"""
from __future__ import annotations

import math
import numbers
import weakref

from pyspark.errors import AnalysisException
from pyspark.sql import DataFrame, Row, SparkSession
from pyspark.sql import types as T

from . import ast as A
from .comprehension import (
    BinOp,
    Call,
    Comp,
    Const,
    Generator,
    InRange,
    Merge,
    OuterLookup,
    Proj,
    StateRef,
    TupleT,
    UnOp,
    Var,
    show,
    state_refs,
)
from .monoids import IDENTITY
from .plan import Filter, GroupBy, Join, Let, Scan, Total, compile_term, plan, run_driver
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


def to_sql(t, env: dict) -> str:
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
    if isinstance(t, BinOp):
        a, b = to_sql(t.left, env), to_sql(t.right, env)
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
        c = to_sql(t.expr, env)
        return f"(- {c})" if t.op == "-" else f"(NOT {c})"
    if isinstance(t, TupleT):
        return _struct(
            (f"_{i + 1}", to_sql(x, env)) for i, x in enumerate(t.items)
        )
    if isinstance(t, Proj):
        return f"{to_sql(t.expr, env)}.{_id(t.field)}"
    if isinstance(t, Call):
        args = [to_sql(a, env) for a in t.args]
        if t.fn == "dist2":  # squared Euclidean distance of 2-D points
            p, c = args
            dx, dy = f"({p}.`_1` - {c}.`_1`)", f"({p}.`_2` - {c}.`_2`)"
            return f"(({dx} * {dx}) + ({dy} * {dy}))"
        if t.fn not in _SQL_FN:
            raise BackendError(f"unknown function {t.fn!r}")
        return f"{_SQL_FN[t.fn]}({', '.join(args)})"
    if isinstance(t, InRange):
        c = to_sql(t.expr, env)
        lo, hi = to_sql(t.lo, env), to_sql(t.hi, env)
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


def _lookup(spark: SparkSession, env: dict, array: str, key: tuple, default):
    """A driver-side read of ``array[key]``, ``default`` if absent."""
    lq = _Query(spark)
    knames = [f"_k{j + 1}" for j in range(len(key))]
    src = lq.scan(_array(env, array), knames + ["_v"])
    where = " AND ".join(f"{_id(kn)} = {_lit(k)}" for kn, k in zip(knames, key))
    hit = lq.run(f"SELECT `_v` FROM {src} WHERE {where}", f"a lookup in {array}").collect()
    return py_value(hit[0]["_v"]) if hit else default


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


def _source_sql(src, env: dict, qb: _Query, bindings: dict) -> str:
    if isinstance(src, Scan):
        return qb.scan(_array(env, src.array), list(src.names))
    lo, hi = (int(compile_term(x, env)(bindings)) for x in (src.lo, src.hi))
    return f"range({_lit(lo)}, {_lit(hi + 1)}) AS {qb.alias()}({_id(src.name)})"


def _agg_items(aggs: tuple, env: dict, total: bool) -> list:
    """Select items of ``(name, monoid, expr)`` reductions. A total
    aggregation is coalesced with the monoid identity so an empty input
    bag aggregates to the identity instead of NULL."""
    items = []
    for n, m, e in aggs:
        c = _agg_sql(m, to_sql(e, env))
        if total and IDENTITY.get(m) is not None:
            c = f"coalesce({c}, {_lit(IDENTITY[m])})"
        items.append(f"{c} AS {_id(n)}")
    return items


def _relation(comp: Comp, env: dict, qb: _Query):
    """Lower a comprehension (see ``plan``) to ``(frontier, head)``,
    a relation with a row per bag element whose columns are the
    variables the head needs; ``(None, value)`` when it has no
    generators; None for an empty bag. The caller shapes the head."""
    p = plan(comp)
    b = run_driver(p, env, lambda a, k, d: _lookup(qb.spark, env, a, k, d))
    if b is None:
        return None
    if not p.steps:
        return None, compile_term(p.head, env)(b)
    fr = _Frontier(_source_sql(p.steps[0], env, qb, b), list(p.steps[0].names))
    for st in p.steps[1:]:
        if isinstance(st, Join):
            g = _source_sql(st.source, env, qb, b)
            fr.cols = fr.cols + list(st.source.names)
            on = " AND ".join(to_sql(c, env) for c in st.conds)
            fr.select(qb, [_id(c) for c in fr.cols], f" JOIN {g} ON {on}" if on else f" CROSS JOIN {g}")
        elif isinstance(st, Filter):
            where = " AND ".join(to_sql(c, env) for c in st.conds)
            fr.select(qb, [_id(c) for c in fr.cols], f" WHERE {where}")
        elif isinstance(st, Let):
            e = to_sql(st.expr, env)
            if len(st.names) == 1:
                fr.select(qb, fr.with_cols({st.names[0]: e}))
            else:
                fr.select(qb, fr.with_cols(
                    {n: f"{e}.{_id(f'_{j + 1}')}" for j, n in enumerate(st.names)}
                ))
        elif isinstance(st, GroupBy):
            fr.select(qb, fr.with_cols({n: to_sql(k, env) for n, k in zip(st.names, st.keys)}))
            keys = ", ".join(map(_id, st.names))
            fr.select(qb, [keys] + _agg_items(st.aggs, env, total=False), f" GROUP BY {keys}")
            fr.cols = list(st.names) + [n for n, _, _ in st.aggs]
        elif isinstance(st, Total):
            # rule 16 removed a constant-key group-by
            fr.select(qb, _agg_items(st.aggs, env, total=True))
            fr.cols = [n for n, _, _ in st.aggs]
        else:
            # rule 15a's lookup of the pre-update value is lowered with
            # its merge, by _update_sql
            raise BackendError(f"outer lookup outside an array update: {st.var}")
    return fr, p.head


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
    res = _relation(term, env, qb)
    if res is None:
        return None
    fr, head = res
    if fr is None:
        # generator-free comprehension: a singleton key/value row
        if not isinstance(head, tuple) or len(head) != ndims + 1:
            raise BackendError("array assignment produced a scalar")
        items = [f"{_lit(x)} AS {_id(c)}" for x, c in zip(head, _key_cols(ndims))]
        return f"SELECT {', '.join(items)} FROM range(1)"
    if not isinstance(head, TupleT) or len(head.items) != ndims + 1:
        raise BackendError(
            f"array head arity mismatch: {show(head)} for {ndims} dims"
        )
    items = [
        f"{to_sql(x, env)} AS {_id(c)}"
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
    res = _relation(Comp(comp.head, comp.quals[:-1]), env, qb)
    if res is None:
        return None
    fr, head = res
    exprs = [to_sql(x, env) for x in head.items]
    default = look.default.value if isinstance(look.default, Const) else None
    types = _FRESH.get(old)
    if default in (IDENTITY["min"], IDENTITY["max"]):
        # least/greatest skip NULLs, so a missed lookup of a long array
        # needs no ±inf identity, a double that would make it double; a
        # double array keeps it, which orders below a NaN update
        elem = types[-1] if types else _sql_type(old.schema[-1].dataType)
        if elem != "DOUBLE":
            default = None
    default = _lit(default)
    if types:
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
        res = _relation(term, env, qb)
        if res is None:
            return False, None
        fr, head = res
        if fr is None:
            return True, head
        sql = f"SELECT {to_sql(head, env)} AS `_v` FROM {fr.src}"
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
    return True, compile_term(term, env)({})


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
