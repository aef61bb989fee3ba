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

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Optional, Union


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


# -------------------------------------------------- term transformation
_fresh_counter = itertools.count()


def fresh(base: str = "v") -> str:
    """Globally fresh variable name."""
    return f"{base}_{next(_fresh_counter)}"


def free_vars(t: Term) -> set:
    """Free comprehension variables of a term (StateRefs excluded)."""
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, (Const, StateRef)):
        return set()
    if isinstance(t, BinOp):
        return free_vars(t.left) | free_vars(t.right)
    if isinstance(t, (UnOp, Agg)):
        return free_vars(t.expr)
    if isinstance(t, Proj):
        return free_vars(t.expr)
    if isinstance(t, TupleT):
        return set().union(*[free_vars(x) for x in t.items]) if t.items else set()
    if isinstance(t, Call):
        return set().union(*[free_vars(x) for x in t.args]) if t.args else set()
    if isinstance(t, RangeT):
        return free_vars(t.lo) | free_vars(t.hi)
    if isinstance(t, InRange):
        return free_vars(t.expr) | free_vars(t.lo) | free_vars(t.hi)
    if isinstance(t, Merge):
        return free_vars(t.old) | free_vars(t.new)
    if isinstance(t, Comp):
        bound, free = set(), set()
        for q in t.quals:
            if isinstance(q, Generator):
                free |= free_vars(q.source) - bound
                bound |= set(pat_vars(q.pat))
            elif isinstance(q, LetQ):
                free |= free_vars(q.expr) - bound
                bound |= set(pat_vars(q.pat))
            elif isinstance(q, Cond):
                free |= free_vars(q.expr) - bound
            elif isinstance(q, GroupByQ):
                free |= free_vars(q.key) - bound
                bound |= set(pat_vars(q.pat))
            elif isinstance(q, OuterLookup):
                free |= (free_vars(q.key) | free_vars(q.default)) - bound
                bound.add(q.var)
        free |= free_vars(t.head) - bound
        return free
    raise TypeError(f"free_vars: unknown term {t!r}")


def state_refs(t) -> list:
    """Names of the program state a term reads, in order of appearance
    (repeats included)."""
    out: list = []

    def walk(x):
        if isinstance(x, StateRef):
            out.append(x.name)
        elif isinstance(x, OuterLookup):
            out.append(x.array)
            walk(x.key)
            walk(x.default)
        elif isinstance(x, tuple):
            for y in x:
                walk(y)
        elif dataclasses.is_dataclass(x):
            for f in dataclasses.fields(x):
                walk(getattr(x, f.name))

    walk(t)
    return out


def subst(t: Term, env: dict) -> Term:
    """Capture-avoiding substitution of Vars by terms.

    Comprehension-bound variables are assumed globally unique (the
    translator only ever introduces ``fresh`` names), so no renaming is
    needed here; bound names are simply dropped from the substitution.
    """
    if not env:
        return t
    if isinstance(t, Var):
        return env.get(t.name, t)
    if isinstance(t, (Const, StateRef)):
        return t
    if isinstance(t, BinOp):
        return BinOp(t.op, subst(t.left, env), subst(t.right, env))
    if isinstance(t, UnOp):
        return UnOp(t.op, subst(t.expr, env))
    if isinstance(t, Agg):
        return Agg(t.monoid, subst(t.expr, env))
    if isinstance(t, Proj):
        return Proj(subst(t.expr, env), t.field)
    if isinstance(t, TupleT):
        return TupleT(tuple(subst(x, env) for x in t.items))
    if isinstance(t, Call):
        return Call(t.fn, tuple(subst(x, env) for x in t.args))
    if isinstance(t, RangeT):
        return RangeT(subst(t.lo, env), subst(t.hi, env))
    if isinstance(t, InRange):
        return InRange(subst(t.expr, env), subst(t.lo, env), subst(t.hi, env))
    if isinstance(t, Merge):
        return Merge(subst(t.old, env), subst(t.new, env))
    if isinstance(t, Comp):
        env = dict(env)
        quals = []
        for q in t.quals:
            if isinstance(q, Generator):
                q = Generator(q.pat, subst(q.source, env))
                for v in pat_vars(q.pat):
                    env.pop(v, None)
            elif isinstance(q, LetQ):
                q = LetQ(q.pat, subst(q.expr, env))
                for v in pat_vars(q.pat):
                    env.pop(v, None)
            elif isinstance(q, Cond):
                q = Cond(subst(q.expr, env))
            elif isinstance(q, GroupByQ):
                q = GroupByQ(q.pat, subst(q.key, env))
                for v in pat_vars(q.pat):
                    env.pop(v, None)
            elif isinstance(q, OuterLookup):
                q = OuterLookup(q.var, q.array, subst(q.key, env), subst(q.default, env))
                env.pop(q.var, None)
            quals.append(q)
        return Comp(subst(t.head, env), tuple(quals))
    raise TypeError(f"subst: unknown term {t!r}")


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
