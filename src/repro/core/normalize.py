"""Comprehension normalization (paper Rule 2 plus housekeeping).

Passes, applied bottom-up (over ``comprehension.map_terms``) to a
fixpoint:

* **unnesting** (Rule 2): a generator whose source is a group-by-free
  comprehension is spliced into the outer qualifier list, its head bound
  with a let;
* **tuple-pattern lets**: ``let (a, b) = (x, y)`` splits into two lets;
* **let inlining**: every ``let x = e`` is substituted forward (terms
  are pure; all bound names are globally fresh), in one left-to-right
  pass over the qualifiers with an accumulated substitution: each
  qualifier is rewritten by the lets before it, and ``x`` leaves the
  substitution at a qualifier that re-binds it (e.g. a group-by key
  pattern);
* **constant folding** of arithmetic/comparisons on literals, and
  removal of trivially-true conditions.
"""
from __future__ import annotations

from .comprehension import (
    BinOp,
    Comp,
    Cond,
    Const,
    Generator,
    GroupByQ,
    LetQ,
    Proj,
    PTuple,
    PVar,
    TupleT,
    UnOp,
    binds,
    map_terms,
    subst,
)
from .monoids import BIN
from .translate import map_code

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
    if isinstance(t, Comp):
        return _norm_comp(t)
    u = map_terms(t, norm_term)
    return t if u is t else _fold(u)  # a leaf folds to itself


def _has_groupby(quals) -> bool:
    return any(isinstance(q, GroupByQ) for q in quals)


def _norm_comp(c: Comp) -> Comp:
    # normalize qualifier subterms and head first
    c = map_terms(c, norm_term)
    quals, head = c.quals, c.head

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

    # inline simple lets forward in one pass: each qualifier is rewritten
    # by the lets before it, until a qualifier re-binds a let's name
    env: dict = {}
    inlined = []
    for q in quals:
        q = subst(q, env)
        for v in binds(q):
            env.pop(v, None)
        if isinstance(q, LetQ) and isinstance(q.pat, PVar):
            env[q.pat.name] = q.expr
        else:
            inlined.append(q)
    head = subst(head, env)

    # fold freshly-substituted conditions; drop trivially-true ones
    final = []
    for q in inlined:
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
    return map_code(code, norm_term)
