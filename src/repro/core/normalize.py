"""Comprehension normalization (paper Rule 2 plus housekeeping).

Passes, applied bottom-up to a fixpoint:

* **unnesting** (Rule 2): a generator whose source is a group-by-free
  comprehension is spliced into the outer qualifier list, its head bound
  with a let;
* **tuple-pattern lets**: ``let (a, b) = (x, y)`` splits into two lets;
* **let inlining**: every ``let x = e`` is substituted forward (terms
  are pure; all bound names are globally fresh). Substitution stops at
  a qualifier that re-binds ``x`` (e.g. a group-by key pattern);
* **constant folding** of arithmetic/comparisons on literals, and
  removal of trivially-true conditions.
"""
from __future__ import annotations

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
    pat_vars,
    subst,
)
from .monoids import BIN

# the operators folded on constants: all but the monoids min, max, argmin
_FOLDED = BIN.keys() - {"min", "max", "argmin"}


def _fold(t):
    """Fold constants in a single term node (children already folded)."""
    if isinstance(t, BinOp) and isinstance(t.left, Const) and isinstance(t.right, Const):
        if t.op in _FOLDED and t.left.value is not None and t.right.value is not None:
            try:
                return Const(BIN[t.op](t.left.value, t.right.value))
            except ZeroDivisionError:
                return t
    if isinstance(t, UnOp) and isinstance(t.expr, Const):
        if t.op == "-" and isinstance(t.expr.value, (int, float)):
            return Const(-t.expr.value)
        if t.op == "!" and isinstance(t.expr.value, bool):
            return Const(not t.expr.value)
    if isinstance(t, Proj) and isinstance(t.expr, TupleT) and t.field.lstrip("_").isdigit():
        i = int(t.field.lstrip("_")) - 1
        if 0 <= i < len(t.expr.items):
            return t.expr.items[i]
    return t


def norm_term(t):
    """Normalize a term bottom-up."""
    if isinstance(t, (Var, Const, StateRef)):
        return t
    if isinstance(t, BinOp):
        return _fold(BinOp(t.op, norm_term(t.left), norm_term(t.right)))
    if isinstance(t, UnOp):
        return _fold(UnOp(t.op, norm_term(t.expr)))
    if isinstance(t, Agg):
        return Agg(t.monoid, norm_term(t.expr))
    if isinstance(t, Proj):
        return _fold(Proj(norm_term(t.expr), t.field))
    if isinstance(t, TupleT):
        return TupleT(tuple(norm_term(x) for x in t.items))
    if isinstance(t, Call):
        return Call(t.fn, tuple(norm_term(x) for x in t.args))
    if isinstance(t, RangeT):
        return RangeT(norm_term(t.lo), norm_term(t.hi))
    if isinstance(t, InRange):
        return InRange(norm_term(t.expr), norm_term(t.lo), norm_term(t.hi))
    if isinstance(t, Merge):
        return Merge(norm_term(t.old), norm_term(t.new))
    if isinstance(t, Comp):
        return _norm_comp(t)
    raise TypeError(f"norm_term: unknown term {t!r}")


def _has_groupby(quals) -> bool:
    return any(isinstance(q, GroupByQ) for q in quals)


def _norm_comp(c: Comp) -> Comp:
    # normalize qualifier subterms and head first
    quals = []
    for q in c.quals:
        if isinstance(q, Generator):
            quals.append(Generator(q.pat, norm_term(q.source)))
        elif isinstance(q, Cond):
            quals.append(Cond(norm_term(q.expr)))
        elif isinstance(q, LetQ):
            quals.append(LetQ(q.pat, norm_term(q.expr)))
        elif isinstance(q, GroupByQ):
            quals.append(GroupByQ(q.pat, norm_term(q.key)))
        elif isinstance(q, OuterLookup):
            quals.append(
                OuterLookup(q.var, q.array, norm_term(q.key), norm_term(q.default))
            )
        else:
            raise TypeError(f"unknown qualifier {q!r}")
    head = norm_term(c.head)

    # Rule 2: splice generators over group-by-free comprehensions
    changed = True
    while changed:
        changed = False
        out = []
        for q in quals:
            if (
                isinstance(q, Generator)
                and isinstance(q.source, Comp)
                and not _has_groupby(q.source.quals)
            ):
                out.extend(q.source.quals)
                out.append(LetQ(q.pat, q.source.head))
                changed = True
            else:
                out.append(q)
        quals = out

        # split tuple-pattern lets over tuple terms
        out = []
        for q in quals:
            if (
                isinstance(q, LetQ)
                and isinstance(q.pat, PTuple)
                and isinstance(q.expr, TupleT)
                and len(q.pat.items) == len(q.expr.items)
            ):
                for p, e in zip(q.pat.items, q.expr.items):
                    out.append(LetQ(p, e))
                changed = True
            else:
                out.append(q)
        quals = out

    # inline simple lets forward (stop when the name is re-bound)
    i = 0
    while i < len(quals):
        q = quals[i]
        if isinstance(q, LetQ) and isinstance(q.pat, PVar):
            name, repl = q.pat.name, q.expr
            rest = quals[i + 1:]
            new_rest = []
            active = True
            for r in rest:
                if not active:
                    new_rest.append(r)
                    continue
                env = {name: repl}
                if isinstance(r, Generator):
                    r = Generator(r.pat, subst(r.source, env))
                    if name in pat_vars(r.pat):
                        active = False
                elif isinstance(r, Cond):
                    r = Cond(subst(r.expr, env))
                elif isinstance(r, LetQ):
                    r = LetQ(r.pat, subst(r.expr, env))
                    if name in pat_vars(r.pat):
                        active = False
                elif isinstance(r, GroupByQ):
                    r = GroupByQ(r.pat, subst(r.key, env))
                    if name in pat_vars(r.pat):
                        active = False
                elif isinstance(r, OuterLookup):
                    r = OuterLookup(
                        r.var, r.array, subst(r.key, env), subst(r.default, env)
                    )
                    if r.var == name:
                        active = False
                new_rest.append(r)
            if active:
                head = subst(head, {name: repl})
            quals = quals[:i] + new_rest
            continue  # re-examine position i
        i += 1

    # fold freshly-substituted conditions; drop trivially-true ones
    final = []
    for q in quals:
        if isinstance(q, Cond):
            e = norm_term(q.expr)
            if isinstance(e, Const) and e.value is True:
                continue
            if (
                isinstance(e, BinOp)
                and e.op == "=="
                and e.left == e.right
            ):
                continue
            final.append(Cond(e))
        else:
            final.append(q)

    return Comp(norm_term(head), tuple(final))


def normalize_code(code):
    """Normalize all terms in a target-code block (list of statements)."""
    from .translate import TAssign, TInit, TWhile

    out = []
    for st in code:
        if isinstance(st, TAssign):
            out.append(TAssign(st.name, norm_term(st.term)))
        elif isinstance(st, TWhile):
            out.append(TWhile(norm_term(st.cond), normalize_code(st.body)))
        elif isinstance(st, TInit):
            out.append(st)
        else:
            raise TypeError(f"unknown target statement {st!r}")
    return out
