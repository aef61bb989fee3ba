"""One lowering of a normalized comprehension to relational steps (paper
Section 3.4), shared by the Spark and the sequential engine.

``plan(comp)`` walks the qualifiers once and reads nothing from the
program state. It returns:

* ``driver``: the steps before the first generator (conditions, lets,
  constant-key lookups), which both engines evaluate on the driver with
  ``compile_term``; a generator-free group-by binds its key there, and
  every ``⊕/e`` over that singleton bag reduces to ``e``;
* ``steps``: a ``Scan`` or ``Range`` source, then ``Join``, ``Filter``,
  ``Let``, ``GroupBy``, ``Lookup`` and ``Total`` steps; empty when the
  comprehension has no generator;
* ``head``: the head, each ``Agg`` replaced by the variable ``_aggN``
  that its ``GroupBy`` or ``Total`` step binds.

Conditions are applied as soon as all their variables are bound (filter
pushup is semantics-preserving for pure predicates). Those with
variables and no reduction are hoisted ahead of the generators they
constrain, so that they become the join conditions of the generator
that binds their last variable: rule 11c emits index equalities after
the array scan, and without hoisting a two-array access would be a
cross join plus a filter. Key-pattern names rebound by a group-by are
bound to the same values before the group-by, so key filters commute
too.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .comprehension import (
    BinOp,
    Call,
    Comp,
    Cond,
    Const,
    Generator,
    GroupByQ,
    InRange,
    LetQ,
    OuterLookup,
    Proj,
    RangeT,
    StateRef,
    TupleT,
    UnOp,
    Var,
    aggs,
    free_vars,
    pat_vars,
    show,
    sub_aggs,
    unagg,
)
from .monoids import BIN, CALLS


class PlanError(Exception):
    pass


@dataclass(frozen=True)
class Scan:
    """The rows ``(names…)`` of state array ``array``."""

    names: tuple
    array: str


@dataclass(frozen=True)
class Range:
    """``name`` over the integers ``lo..hi``, inclusive."""

    name: str
    lo: object
    hi: object

    @property
    def names(self) -> tuple:
        return (self.name,)


@dataclass(frozen=True)
class Join:
    """Join with ``source`` on ``conds``, in qualifier order; ``keys``
    are the equalities among them as ``(left side, source side)`` pairs,
    ``residual`` the rest."""

    source: Union[Scan, Range]
    conds: tuple
    keys: tuple
    residual: tuple


@dataclass(frozen=True)
class Filter:
    conds: tuple


@dataclass(frozen=True)
class Let:
    """Bind ``names`` to ``expr``, or to its components if several."""

    names: tuple
    expr: object


@dataclass(frozen=True)
class GroupBy:
    """Group by ``keys`` (bound to ``names``); ``aggs`` are the
    ``(name, monoid, expr)`` reductions of each group."""

    names: tuple
    keys: tuple
    aggs: tuple


@dataclass(frozen=True)
class Lookup:
    """Bind ``var`` to ``array[key]``, or to ``default`` if absent."""

    var: str
    array: str
    key: tuple
    default: object


@dataclass(frozen=True)
class Total:
    """Reduce the whole relation to one row of ``(name, monoid, expr)``
    reductions, each the monoid's identity over an empty relation."""

    aggs: tuple


@dataclass(frozen=True)
class Plan:
    driver: tuple
    steps: tuple
    head: object


def _items(key) -> tuple:
    return key.items if isinstance(key, TupleT) else (key,)


def _split(c, old: set, new: set) -> Optional[tuple]:
    """``(old side, new side)`` of an equality ``c`` between the bound
    variables and the new generator's, or None."""
    if not (isinstance(c, BinOp) and c.op == "=="):
        return None
    fa, fb = free_vars(c.left), free_vars(c.right)
    if fa <= old and fb <= new:
        return c.left, c.right
    if fb <= old and fa <= new:
        return c.right, c.left
    return None


def plan(comp: Comp) -> Plan:
    """Lower a normalized comprehension to a ``Plan``."""
    quals = comp.quals
    hoisted = {
        i for i, q in enumerate(quals)
        if isinstance(q, Cond) and free_vars(q.expr) and not aggs(q.expr)
    }
    pending = [quals[i].expr for i in sorted(hoisted)]
    driver: list = []
    steps: list = []
    bound: set = set()
    names_of: dict = {}  # id(Agg) -> the name of its reduction

    def reduce(t):
        if not steps:  # a singleton bag: ⊕/e is e
            return unagg(t)
        return sub_aggs(t, lambda a: Var(names_of[id(a)]) if id(a) in names_of else a)

    def name_aggs(ts) -> tuple:
        out = []
        for a in [a for t in ts for a in aggs(t)]:
            if id(a) not in names_of:
                names_of[id(a)] = f"_agg{len(names_of)}"
                out.append((names_of[id(a)], a.monoid, a.expr))
        return tuple(out)

    def add(step, names=()):
        """Append a relational step (if any) binding ``names``, then a
        filter by the conditions that are now ready."""
        if step is not None:
            steps.append(step)
        bound.update(names)
        ready = [c for c in pending if free_vars(c) <= bound]
        if ready:
            pending[:] = [c for c in pending if not free_vars(c) <= bound]
            steps.append(Filter(tuple(ready)))

    for i, q in enumerate(quals):
        if i in hoisted:
            continue
        if isinstance(q, Cond):
            if steps:
                pending.append(reduce(q.expr))
                add(None)
            else:
                driver.append(Filter((reduce(q.expr),)))
        elif isinstance(q, LetQ):
            let = Let(tuple(pat_vars(q.pat)), reduce(q.expr))
            if steps:
                add(let, let.names)
            else:
                driver.append(let)
        elif isinstance(q, Generator):
            names = tuple(pat_vars(q.pat))
            if isinstance(q.source, StateRef):
                src = Scan(names, q.source.name)
            elif isinstance(q.source, RangeT):
                src = Range(names[0], q.source.lo, q.source.hi)
            else:
                raise PlanError(f"unnormalized generator source {show(q.source)}")
            if not steps:
                add(src, names)
                continue
            new = set(names)
            both = bound | new
            conds, still = [], []
            for c in pending:
                fv = free_vars(c)
                (conds if fv <= both and fv & new else still).append(c)
            pending[:] = still
            splits = [_split(c, bound, new) for c in conds]
            add(Join(
                src, tuple(conds),
                tuple(s for s in splits if s is not None),
                tuple(c for c, s in zip(conds, splits) if s is None),
            ), names)
        elif isinstance(q, GroupByQ):
            names, keys = tuple(pat_vars(q.pat)), _items(q.key)
            if not steps:
                driver.append(Let(names, q.key))
                continue
            if len(names) != len(keys):
                raise PlanError("group-by pattern/key arity mismatch")
            reductions = name_aggs([comp.head, *quals[i + 1:]])
            bound.clear()
            add(GroupBy(names, keys, reductions), names + tuple(n for n, _, _ in reductions))
        elif isinstance(q, OuterLookup):
            default = q.default.value if isinstance(q.default, Const) else None
            look = Lookup(q.var, q.array, tuple(map(reduce, _items(q.key))), default)
            if steps:
                add(look, (q.var,))
            else:
                driver.append(look)
        else:
            raise PlanError(f"unknown qualifier {q!r}")

    if pending:
        raise PlanError(
            "conditions with unbound variables: " + "; ".join(show(c) for c in pending)
        )
    if steps and not any(isinstance(s, GroupBy) for s in steps) and aggs(comp.head):
        steps.append(Total(name_aggs([comp.head])))
    return Plan(tuple(driver), tuple(steps), reduce(comp.head))


# ------------------------------------------------------ Python evaluation
def compile_term(t, env: dict):
    """Compile a term to ``fn(bindings) -> value`` over the state ``env``
    (a ``plan`` has replaced every ``Agg``)."""
    if isinstance(t, Const):
        v = t.value
        return lambda r: v
    if isinstance(t, Var):
        n = t.name
        return lambda r: r[n]
    if isinstance(t, StateRef):
        n = t.name
        return lambda r: env[n]
    if isinstance(t, BinOp):
        f, g, op = compile_term(t.left, env), compile_term(t.right, env), BIN[t.op]
        return lambda r: op(f(r), g(r))
    if isinstance(t, UnOp):
        f = compile_term(t.expr, env)
        return (lambda r: -f(r)) if t.op == "-" else (lambda r: not f(r))
    if isinstance(t, TupleT):
        fs = [compile_term(x, env) for x in t.items]
        return lambda r: tuple(f(r) for f in fs)
    if isinstance(t, Proj):
        f = compile_term(t.expr, env)
        fld = t.field
        if fld.lstrip("_").isdigit():
            i = int(fld.lstrip("_")) - 1
            return lambda r: (v[i] if (v := f(r)) is not None else None)
        return lambda r: (v[fld] if (v := f(r)) is not None else None)
    if isinstance(t, Call):
        fs = [compile_term(x, env) for x in t.args]
        fn = CALLS[t.fn]
        return lambda r: fn(*[f(r) for f in fs])
    if isinstance(t, InRange):
        f, lo, hi = (compile_term(x, env) for x in (t.expr, t.lo, t.hi))
        return lambda r: lo(r) <= f(r) <= hi(r)
    raise PlanError(f"cannot evaluate term {show(t)}")


def bind(row: dict, names: tuple, value) -> None:
    """Bind ``names`` to ``value``, or to its components if several."""
    if len(names) == 1:
        row[names[0]] = value
    else:
        row.update(zip(names, value))


def run_driver(p: Plan, env: dict, lookup) -> Optional[dict]:
    """Evaluate the plan's driver steps; ``lookup(array, key, default)``
    reads one element of a state array. Returns the bindings, or None
    when a condition is false (the bag is empty)."""
    b: dict = {}
    for st in p.driver:
        if isinstance(st, Filter):
            if not all(compile_term(c, env)(b) for c in st.conds):
                return None
        elif isinstance(st, Let):
            bind(b, st.names, compile_term(st.expr, env)(b))
        else:
            key = tuple(compile_term(k, env)(b) for k in st.key)
            b[st.var] = lookup(st.array, key, st.default)
    return b
