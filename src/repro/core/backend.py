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
statement once instead of once per DataFrame call. The statement carries
the relational steps of its comprehension, planned once at compile time
(``plan.plan_code``): this module plans and recognises nothing, and
spells those steps as nested ``SELECT … FROM (…)``: scans of the arrays
(registered as temporary views while the query is analysed), the
``range`` table function, joins on their conditions, ``WHERE`` filters,
``GROUP BY`` with one aggregate per ``⊕/e`` reduction; the array merge
``⊲`` becomes a ``FULL OUTER JOIN`` with ``coalesce`` (paper: "on Spark,
⊲ can be implemented as a coGroup"). The steps before the first
generator run on the driver with the sequential engine's evaluator.
Scalar state enters the query as literals, every integer a BIGINT: the
loop language's one integer type is the 64-bit ``long``.

Every array assignment is a merge ``X ⊲ comp`` (rules 14c and 15a),
and ``_merge_sql`` is its one lowering: the rows of ``comp``, then
``X FULL OUTER JOIN`` them on the key, with the rows' value where a row
is present. An incremental update (rule 15a: ``X ⊲ {(k, w ⊕ ⊕/v) | …,
group by k, w <~ X[k] ?? id}``) is the merge whose plan came with its
lookup of ``X`` at the head's key split off (``TAssign.look``): that
lookup of the pre-update value ``w`` reads the old side of the same
join instead of joining ``X`` a second time. A merge into a
just-initialised array (a ``fresh`` assignment, ``translate.mark_fresh``)
is the new bag alone, with no join; every lookup into it misses.

The plan applies conditions as soon as all their variables are bound,
which lets the Section 3.6 ``inRange`` predicates land on the array
scans.

Some lowerings follow hand-written programs where ``plan.fuse_code``
marks them:

* a range fill ``X ⊲ {(i…, c) | i <- range…}`` (``TAssign.fill``) is
  no join: the rows of ``X`` outside the ranges ``UNION ALL`` one
  ``range`` over their product (``_fill_sql``), or that ``range`` alone
  where ``X`` holds no key outside it (``TAssign.inside``). An update
  after it merges into the fill's rows instead of into ``X``: ``range
  LEFT JOIN`` its groups, with no ``FULL OUTER JOIN``;
* a join without key equalities whose source ``inRange`` bounds to a
  few rows (``Join.small``) broadcasts that source;
* a join may read another assignment's groups instead of its array
  (``Join.reads``): a join of a filled array inside the fill is a
  ``LEFT JOIN`` of the update's groups, the fill's value where a key
  has none (``_filled_join``); a scan of ``A`` joined by ``A``'s key to
  the fresh group-by just before, which grouped ``A`` by that key, is
  that group-by's groups, each carrying its element of ``A``
  (``_carried``).

``plan.exec_code`` runs the statements; at a ``while`` loop's
iteration boundary this engine checkpoints the loop-carried arrays.
"""
from __future__ import annotations

import math
import numbers
from typing import Optional

from pyspark.errors import AnalysisException
from pyspark.sql import DataFrame, Row, SparkSession
from pyspark.sql import types as T

from . import ast as A
from .comprehension import (
    BinOp,
    Call,
    Const,
    InRange,
    Proj,
    StateRef,
    TupleT,
    UnOp,
    Var,
    free_vars,
    map_terms,
    show,
    subst,
)
from .plan import (
    Filter,
    GroupBy,
    Join,
    Let,
    Plan,
    Scan,
    Total,
    compile_term,
    exec_code,
    run_driver,
)


class BackendError(Exception):
    pass


# A join without key equalities broadcasts a source that ``inRange``
# bounds to at most this many rows (``plan.Join.small``)
BROADCAST_ROWS = 10_000


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
    """SQL literal of a Python value: ints are BIGINT, the loop
    language's one integer type being the 64-bit ``long`` (an INT would
    make Spark multiply two of them in 32 bits), floats DOUBLE; tuples
    become structs with fields ``_1.._n`` and dicts (records) structs
    with their own field names."""
    if v is None:
        return "NULL"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, numbers.Integral):
        return f"({v}L)" if v < 0 else f"{v}L"
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
        # two aggregates over fields, not min_by over the struct: a struct
        # buffer would make Spark sort the groups instead of hashing them
        least = f"min({e}.`_2`){filt}"
        return (f"CASE WHEN {least} IS NOT NULL THEN named_struct('_1', "
                f"min_by({e}.`_1`, {e}.`_2`){filt}, '_2', {least}) END")
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
    fresh subquery aliases, with the program's ``types``."""

    def __init__(self, spark: SparkSession, types: Optional[dict] = None):
        self.spark = spark
        self.types = types or {}
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

    def select(self, qb: _Query, items: list, tail: str = "", hint: str = "") -> None:
        self.src = f"(SELECT {hint}{', '.join(items)} FROM {self.src}{tail}) AS {qb.alias()}"

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


def _relation(p: Plan, env: dict, qb: _Query):
    """Run a plan's driver steps: ``(frontier, steps, head, b)``, the
    relation of the plan's source, the steps after it, the head and the
    driver's bindings; the frontier is None when it has no generators.
    None for an empty bag. A join that reads the groups of the group-by
    before it (``Join.reads`` without ``at``) replaces the source too:
    the frontier is those groups (``_carried``)."""
    b = run_driver(p, env, lambda a, k, d: _lookup(qb.spark, env, a, k, d))
    if b is None:
        return None
    i = next((i for i, j in enumerate(p.steps)
              if isinstance(j, Join) and j.reads is not None and j.at is None), None)
    if i is not None:
        fr = _carried(p.steps[i].reads, p.steps[0].names + p.steps[i].source.names, env, qb)
        return fr, p.steps[1:i] + p.steps[i + 1:], p.head, b
    return (_lower(p.steps[:1], env, qb, b) if p.steps else None), p.steps[1:], p.head, b


def _lower(steps: tuple, env: dict, qb: _Query, b: dict, carry: Optional[dict] = None) -> _Frontier:
    """The relation of plan steps that start with their source; ``b``
    holds the driver's bindings (``carry``: see ``_apply``)."""
    fr = _Frontier(_source_sql(steps[0], env, qb, b), list(steps[0].names))
    _apply(fr, steps[1:], env, qb, b, carry)
    return fr


def _groups(fr: _Frontier, head, look, old: str, env: dict, qb: _Query) -> list:
    """The SQL of ``head``, keys then the value, over the groups ``fr``
    of an update whose lookup ``look`` (rule 15a, ``w <~ X[k] ?? d``),
    if any, reads ``old`` instead of ``X``: ``w`` is ``coalesce(old,
    d)``, where ``old`` is a typed NULL over no old side, or a fill's
    value."""
    if look:
        fr.select(qb, fr.with_cols({look.var: f"coalesce({old}, {_lit(look.default)})"}))
    return [to_sql(x, env) for x in head.items]


def _carried(w, names: tuple, env: dict, qb: _Query) -> _Frontier:
    """The groups of the fresh update ``w`` of an array ``X`` (its lookup
    missing), as the relation ``(A's key, A's value, X's key, X's
    value)`` named ``names`` that a scan of ``A`` joined to ``X`` by
    that key gives (``plan.carried_join``): ``w`` groups by ``A``'s key,
    so each group carries its one element of ``A``, a struct field by
    field, and whether it is NULL: a struct aggregate would make Spark
    sort the groups instead of hashing them. X's columns have the types
    ``_fresh_sql`` gives them."""
    p = w.plan
    types, v = _col_types(qb.types[w.name]), _id(p.steps[0].names[-1])
    elem = spark_type(qb.types[p.steps[0].array].elem)
    if isinstance(elem, T.StructType):
        carry = {f"_c{j}": f"{v}.{_id(f.name)}" for j, f in enumerate(elem.fields)}
        carry["_cn"] = f"{v} IS NULL"
        item = f"CASE WHEN NOT `_cn` THEN {_struct((f.name, _id(f'_c{j}')) for j, f in enumerate(elem.fields))} END"
    else:
        carry, item = {"_c": v}, "`_c`"
    fr = _lower(p.steps, env, qb, {}, carry)
    *keys, value = _typed(types, _groups(fr, p.head, w.look, f"CAST(NULL AS {types[-1]})", env, qb))
    n = len(keys)
    a_names, x_names = names[:n + 1], names[n + 1:]
    fr.select(qb, [f"{k} AS {_id(c)}" for k, c in zip(keys, a_names)] + [f"{item} AS {_id(a_names[-1])}"]
              + [f"{k} AS {_id(c)}" for k, c in zip(keys, x_names)]
              + [f"{value} AS {_id(x_names[-1])}"])
    fr.cols = list(names)
    return fr


def _small(join: Join, env: dict, b: dict) -> bool:
    """Whether the ranges ``join.small`` (``plan.Join``) hold at most
    ``BROADCAST_ROWS`` rows, their bounds evaluated on the driver."""
    sizes = (int(compile_term(hi, env)(b)) - int(compile_term(lo, env)(b)) + 1 for lo, hi in join.small or ())
    return join.small is not None and math.prod(max(n, 0) for n in sizes) <= BROADCAST_ROWS


def _apply(fr: _Frontier, steps: tuple, env: dict, qb: _Query, b: dict,
           carry: Optional[dict] = None) -> None:
    """Extend the relation ``fr`` by plan steps; a join without key
    equalities broadcasts a small source (``_small``), and a join that
    reads a filled array inside its fill (``Join.at``) joins the
    update's groups instead (``_filled_join``). A group-by adds the
    columns ``carry`` names, each an expression whose value is the same
    in every row of a group."""
    carry = carry or {}
    for st in steps:
        if isinstance(st, Join) and st.at is not None:
            _filled_join(fr, st, env, qb)
        elif isinstance(st, Join):
            g = _source_sql(st.source, env, qb, b)
            # the source's alias is the last one _source_sql took
            hint = f"/*+ BROADCAST(`_q{qb.n}`) */ " if _small(st, env, b) else ""
            fr.cols = fr.cols + list(st.source.names)
            on = " AND ".join(to_sql(c, env) for c in st.conds)
            fr.select(qb, [_id(c) for c in fr.cols],
                      f" JOIN {g} ON {on}" if on else f" CROSS JOIN {g}", hint)
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
            fr.select(qb, [keys] + _agg_items(st.aggs, env)
                      + [f"any_value({e}) AS {_id(c)}" for c, e in carry.items()], f" GROUP BY {keys}")
            fr.cols = list(st.names) + [n for n, _, _ in st.aggs] + list(carry)
        elif isinstance(st, Total):
            # rule 16 removed a constant-key group-by; no row over no rows
            fr.select(qb, _agg_items(st.aggs, env), " HAVING count(1) > 0")
            fr.cols = [n for n, _, _ in st.aggs]
        else:
            # rule 15a's lookup of the pre-update value is lowered with
            # its merge, by _merge_sql
            raise BackendError(f"outer lookup outside an array update: {st.var}")


def _filled_join(fr: _Frontier, j: Join, env: dict, qb: _Query) -> None:
    """Join ``fr`` to the array ``X`` that the fill and update
    ``j.reads`` assigned, read at ``j.at``, which lie inside the fill
    (``plan.fill_keys``), binding the names of ``j``'s source: ``X``
    there is the update's group at the key where one is, else the fill.
    So ``fr LEFT JOIN`` the groups, the value coalesced with the fill's,
    as ``_merge_sql`` would merge them into the fill, with no scan of
    ``X``."""
    w, keys, names = j.reads, j.at, j.source.names
    fill, p = w.fill, w.plan
    vt = _col_types(qb.types[w.name])[-1]

    def filled(at):  # the fill's value at the keys ``at``, typed as _fill_sql types it
        v = subst(fill.value, dict(zip(fill.keys, at)))
        return f"coalesce({to_sql(v, env)}, CAST(NULL AS {vt}))"

    g = _lower(p.steps, env, qb, {})
    *gk, gv = _groups(g, p.head, w.look, filled(p.head.items[:-1]), env, qb)
    cols = [_id(f"_gk_{w.name}_{i}") for i in range(len(gk))]
    val = _id(f"_gv_{w.name}")
    g.select(qb, [f"{k} AS {c}" for k, c in zip(gk, cols)] + [f"{gv} AS {val}"])
    on = " AND ".join(f"({to_sql(k, env)} = {c})" for k, c in zip(keys, cols))
    fr.select(qb, [_id(c) for c in fr.cols] + [f"{to_sql(k, env)} AS {_id(n)}" for k, n in zip(keys, names)]
              + [f"coalesce({val}, {filled(keys)}) AS {_id(names[-1])}"], f" LEFT JOIN {g.src} ON {on}")
    fr.cols = fr.cols + list(names)


# -------------------------------------------------------------- merge
def _key_cols(ndims: int, prefix: str = "_k", value: str = "_v") -> list:
    return [f"{prefix}{j + 1}" for j in range(ndims)] + [value]


def _array(env: dict, name: str) -> DataFrame:
    df = env[name]
    if not isinstance(df, DataFrame):
        raise BackendError(f"{name} is not an array")
    return df


def _merge_sql(t: A.TArray, old, fr: _Frontier, steps: tuple, head, look, env: dict,
               qb: _Query, b: dict) -> str:
    """``X ⊲ rows`` for an array ``X`` of type ``t``: the rows are the
    relation ``fr`` extended by the plan ``steps``, shaped by ``head``
    (keys, then the value), and ``old`` is the old side:

    * ``X`` (a DataFrame): ``rows FULL OUTER JOIN X`` on the key, the
      keys coalesced;
    * None, when ``X`` is ``fresh`` (empty): the rows alone;
    * the SQL text of a range fill's rows, which hold every key of the
      rows (``plan.fills_before``): ``fill LEFT JOIN rows``, keyed by the
      fill's own key columns, so that its partitioning carries over.

    The value is the rows' where a row is present, else the old one. For
    an update, ``look`` is its lookup ``w <~ X[k] ?? d`` (rule 15a,
    ``TAssign.look``): ``w`` is ``coalesce(old._v, d)``, and ``d`` over
    no old side (``_groups``)."""
    _apply(fr, steps, env, qb, b)
    if old is None:
        types = _col_types(t)
        return _fresh_sql(types, _groups(fr, head, look, f"CAST(NULL AS {types[-1]})", env, qb), fr.src)
    default = _lit(look.default) if look else ""
    tag = look.var if look else ""
    ocols = _key_cols(t.ndims, f"_lk_{tag}_", f"_lv_{tag}")
    filled = isinstance(old, str)
    scan = f"({old}) AS {qb.alias()}({', '.join(map(_id, ocols))})" if filled else qb.scan(old, ocols)
    ocols = list(map(_id, ocols))
    hit = _id(f"_hit_{tag}")
    # a key that is no column of the rows (a constant or an expression)
    # becomes one, so that the join is an equi-join and the key is NULL
    # where no row is
    keys = {f"_n{j}": to_sql(k, env) for j, k in enumerate(head.items[:-1])
            if not (isinstance(k, Var) and k.name in fr.cols)}
    fr.select(qb, fr.with_cols(keys) + [f"true AS {hit}"])
    exprs = [_id(f"_n{j}") if f"_n{j}" in keys else to_sql(k, env)
             for j, k in enumerate(head.items[:-1])] + [to_sql(head.items[-1], env)]
    on = " AND ".join(f"({e} = {c})" for e, c in zip(exprs[:-1], ocols))
    # a fill holds every key: it is the join's left side
    fr.src, join = (scan, f"LEFT JOIN {fr.src}") if filled else (fr.src, f"FULL OUTER JOIN {scan}")
    fr.select(qb, [_id(c) for c in fr.cols] + [hit, *ocols] + (
        [f"coalesce({ocols[-1]}, {default}) AS {_id(look.var)}"] if look else []
    ), f" {join} ON {on}")
    # the value only where a row is: over no row, a tuple of its columns
    # would be a struct of NULLs, not NULL
    items = [c if filled else f"coalesce({e}, {c})" for e, c in zip(exprs, ocols[:-1])] + [
        f"coalesce(CASE WHEN {hit} THEN {exprs[-1]} END, {ocols[-1]})"
    ]
    return "SELECT " + ", ".join(
        f"{e} AS {_id(c)}" for e, c in zip(items, _key_cols(t.ndims))
    ) + f" FROM {fr.src}"


def _range_rows(names: list, bounds: list, qb: _Query) -> _Frontier:
    """The rows of the indexes ``names`` over the product of the ranges
    ``bounds`` (``(lo, hi)``, inclusive) as one ``range``: with several,
    each index is a div/mod of the row number, with no join."""
    if len(names) == 1:
        ((lo, hi),) = bounds
        return _Frontier(f"range({_lit(lo)}, {_lit(hi + 1)}) AS {qb.alias()}({_id(names[0])})", names)
    sizes = [max(hi - lo + 1, 0) for lo, hi in bounds]
    fr = _Frontier(f"range(0, {_lit(math.prod(sizes))}) AS {qb.alias()}(`_r`)", ["_r"])
    items = []
    for j, (n, (lo, _)) in enumerate(zip(names, bounds)):
        i = f"(`_r` div {_lit(math.prod(max(x, 1) for x in sizes[j + 1:]))})"
        if j:
            i = f"({i} % {_lit(max(sizes[j], 1))})"
        items.append(f"({_lit(lo)} + {i}) AS {_id(n)}")
    fr.select(qb, items)
    fr.cols = names
    return fr


def _fill_sql(st, t: A.TArray, env: dict, qb: _Query) -> str:
    """``V := (V ⊲ fill) ⊲ e`` for an assignment with a range ``fill``
    (``TAssign.fill``), with no join between ``V`` and the fill: the rows
    of ``V`` outside the fill's ranges (none if ``V`` is ``fresh``)
    ``UNION ALL`` the fill's rows, one ``range`` over the product of its
    ranges (``_range_rows``), in ``V``'s column types. If ``e`` is an
    update (rule 15a, ``plan.fills_before``), those rows are the old
    side of its merge instead of ``V``."""
    fill = st.fill
    bounds = [tuple(int(compile_term(x, env)({})) for x in lh) for lh in fill.bounds]
    fr = _range_rows(list(fill.keys), bounds, qb)
    rows = _fresh_sql(_col_types(t), [_id(k) for k in fill.keys] + [to_sql(fill.value, env)], fr.src)
    if st.plan is not None:
        upd, steps, head, b = _relation(st.plan, env, qb)
        rows = _merge_sql(t, rows, upd, steps, head, st.look, env, qb, b)
    if st.fresh or st.inside:
        return rows
    inside = " AND ".join(f"({_id(c)} >= {_lit(lo)} AND {_id(c)} <= {_lit(hi)})"
                          for c, (lo, hi) in zip(_key_cols(t.ndims), bounds))
    scan = qb.scan(_array(env, st.name), _key_cols(t.ndims))
    return f"SELECT * FROM {scan} WHERE NOT ({inside}) UNION ALL {rows}"


def _on_driver(t, keep: set, env: dict, b: dict):
    """``t`` with each largest subterm that reads none of the variables
    ``keep`` evaluated on the driver, over its bindings ``b``."""
    if not free_vars(t) & keep:
        return Const(compile_term(t, env)(b))
    return map_terms(t, lambda x: _on_driver(x, keep, env, b))


def _typed(types: list, exprs: list) -> list:
    """The columns ``exprs`` of a merge into a fresh array with column
    types ``types``. Each keeps the type the full outer join against the
    empty array gave it (the wider of the two), and Catalyst folds the
    ``coalesce`` with NULL away."""
    return [f"coalesce({e}, CAST(NULL AS {ty}))" for e, ty in zip(exprs, types)]


def _fresh_sql(types: list, exprs: list, src: str) -> str:
    """The rows ``exprs`` over ``src`` as a merge into a fresh array with
    column types ``types`` (``_typed``)."""
    items = [f"{e} AS {_id(c)}" for e, c in zip(_typed(types, exprs), _key_cols(len(types) - 1))]
    return f"SELECT {', '.join(items)} FROM {src}"


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
    for i, (st, m, look) in enumerate(zip(stmts, gp.members, gp.looks)):
        _, (g, *rest) = _own_conds(m)
        mq = _Query(spark)
        split = _Frontier(mq.scan(grouped, grouped.columns), list(grouped.columns))
        split.select(mq, [f"{_id(f'_g{i}_k{j}')} AS {_id(n)}" for j, n in enumerate(g.names)] + [
            f"{_id(f'_g{i}_a{j}')} AS {_id(n)}" for j, (n, _, _) in enumerate(g.aggs)
        ], f" WHERE `_tag` = {i}")
        split.cols = list(g.names) + [n for n, _, _ in g.aggs]
        old = None if st.fresh else _array(env, st.name)
        sql = _merge_sql(types[st.name], old, split, tuple(rest), m.head, look, env, mq, {})
        out[st.name] = mq.run(sql, show(st.term))
    return out


# ------------------------------------------------------------ execution
class _Spark:
    """``plan.exec_code``'s engine over a Spark session."""

    error = BackendError

    def __init__(self, spark: SparkSession, types: dict):
        self.spark = spark
        self.types = types

    def empty(self, t: A.TArray) -> DataFrame:
        return empty_array(self.spark, t)

    def array(self, st, t: A.TArray, env: dict) -> DataFrame:
        qb, look = _Query(self.spark, self.types), st.look
        if st.fill is not None:
            return qb.run(_fill_sql(st, t, env, qb), show(st.term))
        res = _relation(st.plan, env, qb)
        if res is None:  # X ⊲ ∅ = X; an unread TInit left no X
            return env[st.name] if st.name in env else self.empty(t)
        fr, steps, head, b = res
        if fr is None:
            # one row, its keys and value computed on the driver; an
            # update's value but for its lookup w, which the merge reads
            fr = _Frontier(f"range(1) AS {qb.alias()}", [])
            head = TupleT(tuple(Const(compile_term(x, env)(b)) for x in head.items[:-1])
                          + (_on_driver(head.items[-1], {look.var} if look else set(), env, b),))
        old = None if st.fresh else _array(env, st.name)
        return qb.run(_merge_sql(t, old, fr, steps, head, look, env, qb, b), show(st.term))

    def scalar(self, p: Plan, env: dict, what: str) -> list:
        qb = _Query(self.spark)
        res = _relation(p, env, qb)
        if res is None:
            return []
        fr, steps, head, b = res
        if fr is None:
            return [compile_term(head, env)(b)]
        _apply(fr, steps, env, qb, b)
        sql = f"SELECT {to_sql(head, env)} AS `_v` FROM {fr.src}"
        # not limit(2): it scans partitions incrementally and launches
        # a second job whenever the first partition holds no row
        return [py_value(r["_v"]) for r in qb.run(sql, what).collect()]

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
    return exec_code(code, env, _Spark(spark, types), types)
