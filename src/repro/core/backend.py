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
``X`` a second time. A merge into a just-initialised array (a
``fresh`` assignment, ``translate.mark_fresh``) is the new bag alone,
with no join; every lookup into it misses.

The plan applies conditions as soon as all their variables are bound,
which lets the Section 3.6 ``inRange`` predicates land on the array
scans.

``plan.exec_code`` runs the statements; at a ``while`` loop's
iteration boundary this engine checkpoints the loop-carried arrays.
"""
from __future__ import annotations

import math
import numbers

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
    subst,
)
from .plan import (
    Filter,
    GroupBy,
    Join,
    Let,
    Lookup,
    Scan,
    Total,
    compile_term,
    exec_code,
    plan,
    run_driver,
)


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


def array_schema(t: A.TArray) -> T.StructType:
    """The columns ``_k1.._kn, _v`` of an array of type ``t``: a map's
    key has its own type, every other index is a long."""
    keys = [t.key if t.ndims == 1 else A.TBasic("long")] * t.ndims
    return T.StructType([
        T.StructField(c, spark_type(x)) for c, x in zip(_key_cols(t.ndims), keys + [t.elem])
    ])


def _sql_type(dt: T.DataType) -> str:
    if isinstance(dt, T.StructType):
        fields = ", ".join(f"{_id(f.name)}: {_sql_type(f.dataType)}" for f in dt.fields)
        return f"STRUCT<{fields}>"
    return dt.simpleString().upper()


def _col_types(t: A.TArray) -> list:
    """The SQL types of the columns of an array of type ``t``."""
    return [_sql_type(f.dataType) for f in array_schema(t).fields]


def empty_array(spark: SparkSession, t: A.TArray) -> DataFrame:
    items = ", ".join(
        f"CAST(NULL AS {ty}) AS {_id(c)}" for c, ty in zip(_key_cols(t.ndims), _col_types(t))
    )
    # LIMIT 0 makes the emptiness visible to Catalyst (an empty
    # LocalRelation) for the reads of a fresh array that are not merges
    return _Query(spark).run(f"SELECT {items} LIMIT 0", "an empty array")


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
_SQL_FN = {f: f for f in ("sqrt", "abs", "exp", "coalesce")}


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
            if "NULL" in (a, b):  # absent: the other one (an untyped NULL has no `_2`)
                return b if a == "NULL" else a
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
        if t.fn == "log":
            # ln, not log: SQL's one-argument log is Logarithm(e, x); ln
            # is NULL at and below 0, where IEEE has -inf and NaN (NaN is
            # above 0 in Spark's order, and ln(NaN) is NaN)
            (x,) = args
            return (f"CASE WHEN {x} > 0 THEN ln({x}) WHEN {x} = 0 THEN {_lit(-math.inf)} "
                    f"ELSE {_lit(math.nan)} END")
        if t.fn in ("floor", "ceil"):
            # Spark gives 0 for NaN and a long's bound for an infinity
            (x,) = args
            return (f"CASE WHEN isnan({x}) OR abs({x}) = {_lit(math.inf)} "
                    f"THEN raise_error('{t.fn} of NaN or an infinity') ELSE {t.fn}({x}) END")
        if t.fn not in _SQL_FN:
            raise BackendError(f"unknown function {t.fn!r}")
        return f"{_SQL_FN[t.fn]}({', '.join(args)})"
    if isinstance(t, InRange):
        c = to_sql(t.expr, env)
        lo, hi = to_sql(t.lo, env), to_sql(t.hi, env)
        return f"(({c} >= {lo}) AND ({c} <= {hi}))"
    raise BackendError(f"cannot lower term to SQL: {show(t)}")


_SQL_AGG = {"+": "sum", "min": "min", "max": "max", "&&": "bool_and", "||": "bool_or"}


def _agg_sql(monoid: str, e: str, filt: str = "") -> str:
    """The aggregate ``monoid``/``e``; ``filt`` (a ``FILTER (WHERE …)``
    clause) restricts each aggregate call in it to some rows."""
    if monoid == "argmin":
        return f"min_by({e}, {e}.`_2`){filt}"
    if monoid == "*":
        # Spark SQL has no product aggregate: fold the group's values,
        # seeded with the first one so the result keeps their type
        vs = f"collect_list({e}){filt}"
        return (
            f"aggregate(slice({vs}, 2, greatest(size({vs}), 1)), get({vs}, 0), "
            f"(_pa, _px) -> _pa * _px)"
        )
    if monoid not in _SQL_AGG:
        raise BackendError(f"unknown monoid {monoid!r}")
    return f"{_SQL_AGG[monoid]}({e}){filt}"


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


def _agg_items(aggs: tuple, env: dict) -> list:
    """Select items of ``(name, monoid, expr)`` reductions."""
    return [f"{_agg_sql(m, to_sql(e, env))} AS {_id(n)}" for n, m, e in aggs]


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
    return _lower(p.steps, env, qb, b), p.head


def _lower(steps: tuple, env: dict, qb: _Query, b: dict) -> _Frontier:
    """The relation of plan steps that start with their source; ``b``
    holds the driver's bindings."""
    fr = _Frontier(_source_sql(steps[0], env, qb, b), list(steps[0].names))
    _apply(fr, steps[1:], env, qb, b)
    return fr


def _apply(fr: _Frontier, steps: tuple, env: dict, qb: _Query, b: dict) -> None:
    """Extend the relation ``fr`` by plan steps."""
    for st in steps:
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
            fr.select(qb, [keys] + _agg_items(st.aggs, env), f" GROUP BY {keys}")
            fr.cols = list(st.names) + [n for n, _, _ in st.aggs]
        elif isinstance(st, Total):
            # rule 16 removed a constant-key group-by; no row over no rows
            fr.select(qb, _agg_items(st.aggs, env), " HAVING count(1) > 0")
            fr.cols = [n for n, _, _ in st.aggs]
        else:
            # rule 15a's lookup of the pre-update value is lowered with
            # its merge, by _update_sql
            raise BackendError(f"outer lookup outside an array update: {st.var}")


# --------------------------------------------------------- bag results
def _key_cols(ndims: int, prefix: str = "_k", value: str = "_v") -> list:
    return [f"{prefix}{j + 1}" for j in range(ndims)] + [value]


def _array(env: dict, name: str) -> DataFrame:
    df = env[name]
    if not isinstance(df, DataFrame):
        raise BackendError(f"{name} is not an array")
    return df


def _bag_sql(term, env, qb: _Query, ndims: int, fresh=None):
    """A bag term's ``(_k1.._kn, _v)`` rows: the SELECT text that
    computes them, the array DataFrame itself when they are one that
    exists, or None for a generator-free comprehension whose condition
    is false (the empty bag). ``fresh`` holds the column types of a
    merge target that is fresh, else None."""
    if isinstance(term, StateRef):
        return _array(env, term.name)
    if isinstance(term, Merge):
        if not isinstance(term.old, StateRef):
            raise BackendError("merge target must be a state array")
        old = _array(env, term.old.name)
        if _is_update(term, ndims):
            new = _update_sql(old, term.new, env, qb, ndims, fresh)
        else:
            new = _bag_sql(term.new, env, qb, ndims)
            if new is not None:
                new = _merge_sql(qb, old, new, ndims, fresh)
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


def _merge_sql(qb: _Query, old: DataFrame, new, ndims: int, fresh) -> str:
    """``old ⊲ new`` for an array ``old`` and the rows ``new`` (an array
    or the SELECT text of a bag): union preferring ``new`` on key
    collisions. Into a fresh ``old`` this is ``new`` alone."""
    ncols = _key_cols(ndims, "_n", "_nv")
    if isinstance(new, DataFrame):
        new = qb.scan(new, ncols)
    else:
        new = f"({new}) AS {qb.alias()}({', '.join(map(_id, ncols))})"
    if fresh:
        return _fresh_sql(fresh, list(map(_id, ncols)), new)
    pairs = list(zip(_key_cols(ndims), ncols))
    items = [f"coalesce({_id(n)}, {_id(k)}) AS {_id(k)}" for k, n in pairs]
    on = " AND ".join(f"({_id(k)} = {_id(n)})" for k, n in pairs[:-1])
    old = qb.scan(old, _key_cols(ndims))
    return f"SELECT {', '.join(items)} FROM {old} FULL OUTER JOIN {new} ON {on}"


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


def _update_sql(old: DataFrame, comp: Comp, env, qb: _Query, ndims: int, fresh):
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
    return _update_rows(old, look.var, to_sql(look.default, env), *res, env, qb, ndims, fresh)


def _update_rows(old: DataFrame, var: str, default: str, fr: _Frontier, head,
                 env, qb: _Query, ndims: int, fresh) -> str:
    """``_update_sql`` over the relation ``fr`` of the update's bag
    without its lookup, which binds ``var`` to ``old``'s value, else to
    the SQL ``default``."""
    exprs = [to_sql(x, env) for x in head.items]
    if fresh:
        fr.select(qb, fr.with_cols({var: f"coalesce(CAST(NULL AS {fresh[-1]}), {default})"}))
        return _fresh_sql(fresh, exprs, fr.src)
    ocols = _key_cols(ndims, f"_lk_{var}_", f"_lv_{var}")
    scan = qb.scan(old, ocols)
    ocols = list(map(_id, ocols))
    hit = _id(f"_hit_{var}")
    fr.select(qb, [_id(c) for c in fr.cols] + [f"true AS {hit}"])
    on = " AND ".join(f"({e} = {c})" for e, c in zip(exprs[:-1], ocols))
    fr.select(qb, [_id(c) for c in fr.cols] + [
        hit, *ocols, f"coalesce({ocols[-1]}, {default}) AS {_id(var)}"
    ], f" FULL OUTER JOIN {scan} ON {on}")
    items = [f"coalesce({e}, {c})" for e, c in zip(exprs, ocols[:-1])] + [
        f"coalesce(CASE WHEN {hit} THEN {exprs[-1]} END, {ocols[-1]})"
    ]
    return "SELECT " + ", ".join(
        f"{e} AS {_id(c)}" for e, c in zip(items, _key_cols(ndims))
    ) + f" FROM {fr.src}"


# ------------------------------------------------------ sibling groups
def _conds_sql(conds: tuple, env: dict) -> str:
    return " AND ".join(to_sql(c, env) for c in conds)


def _own_conds(m) -> tuple:
    """A group member's own conditions (``GroupPlan``), and its steps
    after them."""
    if isinstance(m.steps[0], Filter):
        return m.steps[0].conds, m.steps[1:]
    return (), m.steps


def _group_scalars(gp, stmts, env: dict, spark: SparkSession) -> dict:
    """Scalar updates that end in a ``Total`` (``plan_group``) as one
    query: one aggregate per reduction, each restricted to its member's
    rows by ``FILTER (WHERE …)``, and a count of those rows per member;
    a member with none leaves its destination unchanged. Returns the
    new values."""
    qb = _Query(spark)
    fr = _lower(gp.shared, env, qb, {})
    # each member's conditions once per row, as a column: its aggregates
    # and its count all filter on them
    conds = {f"_g{i}_c": _conds_sql(_own_conds(m)[0], env)
             for i, m in enumerate(gp.members) if isinstance(m.steps[0], Filter)}
    if conds:
        fr.select(qb, fr.with_cols(conds))
    items, heads = [], []
    for i, m in enumerate(gp.members):
        _, (total,) = _own_conds(m)
        filt = f" FILTER (WHERE {_id(f'_g{i}_c')})" if f"_g{i}_c" in conds else ""
        ren = {n: Var(f"_g{i}{n}") for n, _, _ in total.aggs}
        items += [f"{_agg_sql(mo, to_sql(e, env), filt)} AS {_id(ren[n].name)}"
                  for n, mo, e in total.aggs]
        n = _id(f"_g{i}_n")
        items.append(f"count(1){filt} AS {n}")
        head = to_sql(subst(m.head, ren), env)
        heads += [f"CASE WHEN {n} > 0 THEN {head} END AS {_id(f'_g{i}_v')}", n]
    fr.select(qb, items)
    sql = f"SELECT {', '.join(heads)} FROM {fr.src}"
    (row,) = qb.run(sql, "; ".join(show(st.term) for st in stmts)).collect()
    return {st.name: py_value(row[f"_g{i}_v"])
            for i, st in enumerate(stmts) if row[f"_g{i}_n"] > 0}


def _group_arrays(gp, stmts, env: dict, spark: SparkSession, types: dict) -> dict:
    """Array updates that group by (``plan_group``) as one scan: each
    row of the shared relation is repeated once per member (tagged
    ``_tag``), kept where the member's conditions hold, and carries that
    member's keys and reduced values in columns of its own (NULL in the
    others', so members whose keys differ in type need no common one).
    One ``GROUP BY _tag, keys…`` computes every member's groups, and is
    checkpointed: Spark would compute it again for each member's split
    otherwise. Each member's split then continues like an unfused
    statement, with its merge into the destination. Returns the new
    arrays."""
    qb = _Query(spark)
    fr = _lower(gp.shared, env, qb, {})
    tags = ", ".join(str(i) for i in range(len(gp.members)))
    fr.select(qb, [_id(c) for c in fr.cols] + [f"explode(array({tags})) AS `_tag`"])
    where, cols, keys, aggs = [], [], [], []
    for i, m in enumerate(gp.members):
        conds, (g, *_) = _own_conds(m)
        where.append(f"(`_tag` = {i} AND {_conds_sql(conds, env)})" if conds else f"`_tag` = {i}")
        for j, k in enumerate(g.keys):
            keys.append(_id(f"_g{i}_k{j}"))
            cols.append(f"CASE WHEN `_tag` = {i} THEN {to_sql(k, env)} END AS {keys[-1]}")
        for j, (_, mo, e) in enumerate(g.aggs):
            a = _id(f"_g{i}_a{j}")
            cols.append(f"CASE WHEN `_tag` = {i} THEN {to_sql(e, env)} END AS {a}")
            aggs.append(f"{_agg_sql(mo, a)} AS {a}")
    conditional = any(isinstance(m.steps[0], Filter) for m in gp.members)
    fr.select(qb, ["`_tag`"] + cols, f" WHERE {' OR '.join(where)}" if conditional else "")
    by = ", ".join(["`_tag`"] + keys)
    sql = f"SELECT {by}, {', '.join(aggs)} FROM {fr.src} GROUP BY {by}"
    what = "; ".join(show(st.term) for st in stmts)
    grouped = qb.run(sql, what).localCheckpoint(eager=True)
    out = {}
    for i, (st, m) in enumerate(zip(stmts, gp.members)):
        _, (g, *rest) = _own_conds(m)
        ndims = types[st.name].ndims
        old = _array(env, st.name)
        mq = _Query(spark)
        split = _Frontier(mq.scan(grouped, grouped.columns), list(grouped.columns))
        split.select(mq, [f"{_id(f'_g{i}_k{j}')} AS {_id(n)}" for j, n in enumerate(g.names)] + [
            f"{_id(f'_g{i}_a{j}')} AS {_id(n)}" for j, (n, _, _) in enumerate(g.aggs)
        ], f" WHERE `_tag` = {i}")
        split.cols = list(g.names) + [n for n, _, _ in g.aggs]
        # an array's group-by comes from an update (rule 15a), whose last
        # step looks up the pre-update value
        if not (_is_update(st.term, ndims) and isinstance(rest[-1], Lookup)):
            raise BackendError(f"a grouped array assignment that is not an update: {show(st.term)}")
        _apply(split, tuple(rest[:-1]), env, mq, {})
        look = rest[-1]
        fresh = _col_types(types[st.name]) if st.fresh else None
        sql = _update_rows(old, look.var, _lit(look.default), split, m.head, env, mq,
                           ndims, fresh)
        out[st.name] = mq.run(sql, show(st.term))
    return out


# ------------------------------------------------------------ execution
class _Spark:
    """``plan.exec_code``'s engine over a Spark session."""

    error = BackendError

    def __init__(self, spark: SparkSession):
        self.spark = spark

    def empty(self, t: A.TArray) -> DataFrame:
        return empty_array(self.spark, t)

    def array(self, st, t: A.TArray, env: dict) -> DataFrame:
        qb = _Query(self.spark)
        sql = _bag_sql(st.term, env, qb, t.ndims, _col_types(t) if st.fresh else None)
        if sql is None or isinstance(sql, DataFrame):
            return sql
        return qb.run(sql, show(st.term))

    def scalar(self, comp: Comp, env: dict) -> list:
        qb = _Query(self.spark)
        res = _relation(comp, env, qb)
        if res is None:
            return []
        fr, head = res
        if fr is None:
            return [head]
        sql = f"SELECT {to_sql(head, env)} AS `_v` FROM {fr.src}"
        # not limit(2): it scans partitions incrementally and launches
        # a second job whenever the first partition holds no row
        return [py_value(r["_v"]) for r in qb.run(sql, show(comp)).collect()]

    def group(self, gp, stmts, env: dict, types: dict) -> dict:
        return (_group_scalars(gp, stmts, env, self.spark) if gp.total else
                _group_arrays(gp, stmts, env, self.spark, types))

    def boundary(self, env: dict, carried: list) -> None:
        """Truncate the lineage of the arrays that carry state into the
        next iteration, upstream ones first so no checkpoint recomputes
        another's plan."""
        for s in carried:
            if isinstance(env.get(s), DataFrame):
                env[s] = env[s].localCheckpoint(eager=True)


def run_code(code, env: dict, spark: SparkSession, types: dict) -> dict:
    """Execute target code, updating and returning the environment."""
    return exec_code(code, env, _Spark(spark), types)
