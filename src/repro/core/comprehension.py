"""Monoid-comprehension IR (paper Section 3.3) and term utilities.

A comprehension ``{ head | q1, ..., qn }`` is a bag-valued term. The
qualifiers are generators ``p ← e``, conditions, let-bindings, a
group-by, and (our addition, see DESIGN.md) an *outer lookup* used by
translation rule (15a) to fetch the pre-update value of an incremental
destination with the monoid identity as the default.

Expressions inside comprehensions reuse a small calculus of their own
(distinct from the source-language AST): ``Var`` for comprehension-bound
variables, ``StateRef`` for program state (scalars and arrays held in
the interpreter/backend environment), ``Agg`` for monoid reductions
``⊕/e`` over group-lifted variables, and ``Merge`` for the array-merge
operation ``⊲``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union


# ---------------------------------------------------------------- terms
@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: object


@dataclass(frozen=True)
class StateRef:
    """Reference to a program-state variable (scalar value or array)."""

    name: str


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class UnOp:
    op: str
    expr: "Term"


@dataclass(frozen=True)
class TupleT:
    items: tuple


@dataclass(frozen=True)
class Proj:
    expr: "Term"
    field: str  # "_1".."_n" for tuples, or a record field name


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


@dataclass(frozen=True)
class Agg:
    """Monoid reduction ``⊕/e`` of a group-lifted expression."""

    monoid: str
    expr: "Term"


@dataclass(frozen=True)
class RangeT:
    """Bag of integers ``range(lo, hi)``, inclusive on both ends."""

    lo: "Term"
    hi: "Term"


@dataclass(frozen=True)
class InRange:
    """Predicate ``inRange(e, lo, hi)`` (Section 3.6)."""

    expr: "Term"
    lo: "Term"
    hi: "Term"


@dataclass(frozen=True)
class Comp:
    """Comprehension ``{ head | quals }``."""

    head: "Term"
    quals: tuple


@dataclass(frozen=True)
class Merge:
    """Array merge ``old ⊲ new`` (Section 3.4)."""

    old: "Term"
    new: "Term"


Term = Union[
    Var, Const, StateRef, BinOp, UnOp, TupleT, Proj, Call, Agg, RangeT,
    InRange, Comp, Merge,
]


# ------------------------------------------------------------- patterns
@dataclass(frozen=True)
class PVar:
    name: str


@dataclass(frozen=True)
class PTuple:
    items: tuple


Pattern = Union[PVar, PTuple]


def pat_vars(p: Pattern) -> list:
    """All variable names bound by a pattern, left to right."""
    if isinstance(p, PVar):
        return [p.name]
    out = []
    for q in p.items:
        out.extend(pat_vars(q))
    return out


# ----------------------------------------------------------- qualifiers
@dataclass(frozen=True)
class Generator:
    pat: Pattern
    source: Term


@dataclass(frozen=True)
class Cond:
    expr: Term


@dataclass(frozen=True)
class LetQ:
    pat: Pattern
    expr: Term


@dataclass(frozen=True)
class GroupByQ:
    """``group by p : key``; lifts all earlier pattern variables not in
    ``p`` to bags."""

    pat: Pattern
    key: Term


@dataclass(frozen=True)
class OuterLookup:
    """Bind ``var`` to ``array[key]`` if present, else to ``default``.

    Emitted by rule (15a) for the pre-update value ``w ← D[d](k)`` of an
    incremental destination: a strict generator would drop group-by keys
    absent from the target array (breaking e.g. Word Count over an
    initially-empty map), so the lookup is outer with the ⊕-identity as
    the default. See DESIGN.md.
    """

    var: str
    array: str
    key: Term
    default: Term


Qualifier = Union[Generator, Cond, LetQ, GroupByQ, OuterLookup]


# ------------------------------------------------------------ the walk
# Every pass rewrites or inspects terms through these tables, the only
# code that knows which fields of an IR class hold terms.
_MAP = {
    Var: None,
    Const: None,
    StateRef: None,
    BinOp: lambda t, f: BinOp(t.op, f(t.left), f(t.right)),
    UnOp: lambda t, f: UnOp(t.op, f(t.expr)),
    TupleT: lambda t, f: TupleT(tuple(map(f, t.items))),
    Proj: lambda t, f: Proj(f(t.expr), t.field),
    Call: lambda t, f: Call(t.fn, tuple(map(f, t.args))),
    Agg: lambda t, f: Agg(t.monoid, f(t.expr)),
    RangeT: lambda t, f: RangeT(f(t.lo), f(t.hi)),
    InRange: lambda t, f: InRange(f(t.expr), f(t.lo), f(t.hi)),
    Comp: lambda t, f: Comp(f(t.head), tuple(map_terms(q, f) for q in t.quals)),
    Merge: lambda t, f: Merge(f(t.old), f(t.new)),
    Generator: lambda q, f: Generator(q.pat, f(q.source)),
    Cond: lambda q, f: Cond(f(q.expr)),
    LetQ: lambda q, f: LetQ(q.pat, f(q.expr)),
    GroupByQ: lambda q, f: GroupByQ(q.pat, f(q.key)),
    OuterLookup: lambda q, f: OuterLookup(q.var, q.array, f(q.key), f(q.default)),
}

_SUBTERMS = {
    Var: None,
    Const: None,
    StateRef: None,
    BinOp: lambda t: (t.left, t.right),
    UnOp: lambda t: (t.expr,),
    TupleT: lambda t: t.items,
    Proj: lambda t: (t.expr,),
    Call: lambda t: t.args,
    Agg: lambda t: (t.expr,),
    RangeT: lambda t: (t.lo, t.hi),
    InRange: lambda t: (t.expr, t.lo, t.hi),
    Comp: lambda t: (t.head, *(x for q in t.quals for x in subterms(q))),
    Merge: lambda t: (t.old, t.new),
    Generator: lambda q: (q.source,),
    Cond: lambda q: (q.expr,),
    LetQ: lambda q: (q.expr,),
    GroupByQ: lambda q: (q.key,),
    OuterLookup: lambda q: (q.key, q.default),
}


def _unknown(x, *_):
    raise TypeError(f"not a term or qualifier: {x!r}")


def map_terms(x, f):
    """A term or qualifier ``x`` rebuilt with ``f`` applied to each
    immediate subterm (for a comprehension: its head and the terms of
    its qualifiers); names, operators and patterns are kept. A term
    without subterms is returned as it is."""
    rebuild = _MAP.get(type(x), _unknown)
    return x if rebuild is None else rebuild(x, f)


def subterms(x) -> tuple:
    """The immediate subterms of a term or qualifier, in the order
    ``map_terms`` visits them."""
    get = _SUBTERMS.get(type(x), _unknown)
    return () if get is None else get(x)


def binds(q) -> list:
    """The variable names a qualifier binds, left to right."""
    if isinstance(q, OuterLookup):
        return [q.var]
    return [] if isinstance(q, Cond) else pat_vars(q.pat)


# -------------------------------------------------- term transformation
_fresh_counter = itertools.count()


def fresh(base: str = "v") -> str:
    """Globally fresh variable name."""
    return f"{base}_{next(_fresh_counter)}"


def free_vars(x) -> set:
    """Free comprehension variables of a term or qualifier (StateRefs
    excluded)."""
    if isinstance(x, Var):
        return {x.name}
    if isinstance(x, Comp):
        bound, free = set(), set()
        for q in x.quals:
            free |= free_vars(q) - bound
            bound.update(binds(q))
        return free | (free_vars(x.head) - bound)
    return set().union(*map(free_vars, subterms(x)))


def state_refs(t) -> list:
    """Names of the program state a term reads, in order of appearance
    (repeats included)."""
    out: list = []

    def walk(x):
        if isinstance(x, StateRef):
            out.append(x.name)
        elif isinstance(x, Comp):
            walk(x.head)
            for q in x.quals:
                if isinstance(q, OuterLookup):
                    out.append(q.array)
                for y in subterms(q):
                    walk(y)
        else:
            for y in subterms(x):
                walk(y)

    walk(t)
    return out


def subst(x, env: dict):
    """Capture-avoiding substitution of Vars by terms in a term or
    qualifier.

    Comprehension-bound variables are assumed globally unique (the
    translator only ever introduces ``fresh`` names), so no renaming is
    needed here; bound names are simply dropped from the substitution.
    """
    def go(t):
        if isinstance(t, Var):
            return env.get(t.name, t)
        if isinstance(t, Comp):
            inner = dict(env)
            quals = []
            for q in t.quals:
                quals.append(subst(q, inner))
                for v in binds(q):
                    inner.pop(v, None)
            return Comp(subst(t.head, inner), tuple(quals))
        return map_terms(t, go)

    return go(x) if env else x


def aggs(x) -> list:
    """The ``Agg`` nodes of a term or qualifier, left to right, outside
    nested comprehensions (whose reductions are their own)."""
    if isinstance(x, Agg):
        return [x]
    if isinstance(x, Comp):
        return []
    return [a for t in subterms(x) for a in aggs(t)]


def sub_aggs(x, fn):
    """A term or qualifier with each ``Agg`` node ``a`` that ``aggs``
    finds replaced by ``fn(a)``."""
    if isinstance(x, Agg):
        return fn(x)
    if isinstance(x, Comp):
        return x
    return map_terms(x, lambda t: sub_aggs(t, fn))


def unagg(x):
    """``⊕/e → e``: the reductions of singleton groups."""
    return sub_aggs(x, lambda a: unagg(a.expr))


# ------------------------------------------------------ pretty printing
def show(t, depth: int = 0) -> str:
    """Readable one-line rendering of terms/qualifiers, for tests and
    debugging (not parsed back)."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return repr(t.value)
    if isinstance(t, StateRef):
        return f"${t.name}"
    if isinstance(t, BinOp):
        return f"({show(t.left)} {t.op} {show(t.right)})"
    if isinstance(t, UnOp):
        return f"({t.op}{show(t.expr)})"
    if isinstance(t, TupleT):
        return "(" + ", ".join(show(x) for x in t.items) + ")"
    if isinstance(t, Proj):
        return f"{show(t.expr)}.{t.field}"
    if isinstance(t, Call):
        return f"{t.fn}(" + ", ".join(show(a) for a in t.args) + ")"
    if isinstance(t, Agg):
        return f"{t.monoid}/{show(t.expr)}"
    if isinstance(t, RangeT):
        return f"range({show(t.lo)}, {show(t.hi)})"
    if isinstance(t, InRange):
        return f"inRange({show(t.expr)}, {show(t.lo)}, {show(t.hi)})"
    if isinstance(t, Merge):
        return f"({show(t.old)} <| {show(t.new)})"
    if isinstance(t, Comp):
        qs = ", ".join(show_q(q) for q in t.quals)
        return "{ " + show(t.head) + (" | " + qs if qs else "") + " }"
    if isinstance(t, (PVar, PTuple)):
        return show_p(t)
    raise TypeError(f"show: unknown term {t!r}")


def show_p(p) -> str:
    if isinstance(p, PVar):
        return p.name
    return "(" + ", ".join(show_p(x) for x in p.items) + ")"


def show_q(q) -> str:
    if isinstance(q, Generator):
        return f"{show_p(q.pat)} <- {show(q.source)}"
    if isinstance(q, Cond):
        return show(q.expr)
    if isinstance(q, LetQ):
        return f"let {show_p(q.pat)} = {show(q.expr)}"
    if isinstance(q, GroupByQ):
        return f"group by {show_p(q.pat)} : {show(q.key)}"
    if isinstance(q, OuterLookup):
        return f"{q.var} <~ ${q.array}[{show(q.key)}] ?? {show(q.default)}"
    raise TypeError(f"show_q: unknown qualifier {q!r}")
