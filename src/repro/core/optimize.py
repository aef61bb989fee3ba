"""Comprehension optimizations (paper Section 4 and Section 3.6).

* **Range elimination** (Sec. 3.6): a generator ``i ← range(lo, hi)``
  joined by equality with an index variable ``I`` of an array traversal
  becomes a predicate ``inRange(F(I), lo, hi)`` where ``F`` is the
  right inverse of the (affine) index term: handled forms are ``I = i``,
  ``I = i + c``, ``I = i - c`` (and mirrored operand orders).
* **Same-key self-join elimination** (runs after range elimination,
  which turns index equalities into direct ``j == i`` conditions): two
  traversals of the same array whose index variables are equated on
  every dimension before any group-by bind the same row, since array
  keys are unique; the second traversal is dropped and its variables
  are replaced by the first's. Partial-key self-joins (PCA's
  ``M[i,k]``×``M[i,j]``) are kept.
* **Rule 16**: a group-by whose key binds no generator variables (the
  unit key of scalar accumulations, or all-constant keys) is removed;
  the aggregation becomes a total aggregation over all rows.
* **Rule 17**: a group-by whose key is provably unique — the key
  variables are exactly the index variables of the single generator
  before the group-by — is removed and each ``⊕/e`` reduction is
  replaced by ``e`` itself (every group is a singleton).
"""
from __future__ import annotations

import itertools

from .comprehension import (
    BinOp,
    Comp,
    Cond,
    Generator,
    GroupByQ,
    InRange,
    LetQ,
    OuterLookup,
    PTuple,
    PVar,
    RangeT,
    StateRef,
    TupleT,
    Var,
    free_vars,
    map_terms,
    pat_vars,
    subst,
    unagg,
)
from .normalize import norm_comp
from .translate import map_code


def _solve_for(var: str, eq: BinOp):
    """Given ``a == b`` involving range variable ``var`` on one side as
    an affine term, return (other_term_as_inverse, ) — the term that
    ``var`` equals, expressed without ``var`` — or None.

    Handled: var == t, t == var, t == var+c, t == var-c, var+c == t,
    var-c == t  (c a constant; t any term not containing var).
    """

    def inverse(affine, other):
        # affine is an expression in var; other is the opposite side
        if isinstance(affine, Var) and affine.name == var:
            return other
        if isinstance(affine, BinOp) and affine.op in ("+", "-"):
            a, b, op = affine.left, affine.right, affine.op
            if isinstance(a, Var) and a.name == var and var not in free_vars(b):
                # var + c = other  =>  var = other - c
                return BinOp("-" if op == "+" else "+", other, b)
            if op == "+" and isinstance(b, Var) and b.name == var and var not in free_vars(a):
                return BinOp("-", other, a)
        return None

    for affine, other in ((eq.left, eq.right), (eq.right, eq.left)):
        if var in free_vars(affine) and var not in free_vars(other):
            r = inverse(affine, other)
            if r is not None:
                return r
    return None


def _eliminate_ranges(c: Comp) -> Comp:
    quals, head = list(c.quals), c.head
    changed = True
    while changed:
        changed = False
        for gi, g in enumerate(quals):
            if not (isinstance(g, Generator) and isinstance(g.source, RangeT)
                    and isinstance(g.pat, PVar)):
                continue
            var = g.pat.name
            # find a pre-group-by equality condition that determines var
            # from other bound variables
            for q in quals:
                if isinstance(q, GroupByQ):
                    break
                if not (isinstance(q, Cond) and isinstance(q.expr, BinOp)
                        and q.expr.op == "=="):
                    continue
                sol = _solve_for(var, q.expr)
                if sol is None:
                    continue
                rest = quals[:gi] + quals[gi + 1:]
                rest[rest.index(q)] = Cond(
                    InRange(sol, g.source.lo, g.source.hi)
                )
                env = {var: sol}
                quals = [subst(r, env) for r in rest]
                # the range variable may appear directly in the head of
                # a group-by-free comprehension (e.g. rule 15b keys);
                # after a group-by the head only sees the rebound key
                # variables, so this substitution is a no-op there.
                head = subst(head, env)
                changed = True
                break
            if changed:
                break
    return Comp(head, tuple(quals))


def _flat_array_pattern(q):
    """Variable names ``[i1, …, in, v]`` of an array traversal whose
    pattern is a flat tuple of variables (None otherwise)."""
    if (isinstance(q, Generator) and isinstance(q.source, StateRef)
            and isinstance(q.pat, PTuple) and len(q.pat.items) > 1
            and all(isinstance(p, PVar) for p in q.pat.items)):
        return [p.name for p in q.pat.items]
    return None


def _is_var_eq(e, a: str, b: str) -> bool:
    return (isinstance(e, BinOp) and e.op == "=="
            and isinstance(e.left, Var) and isinstance(e.right, Var)
            and {e.left.name, e.right.name} == {a, b})


def _same_key_traversal(quals):
    """Find a traversal ``(j1..jn, w) <- X`` that an earlier
    ``(i1..in, v) <- X`` equates on every key dimension before any
    group-by. Returns (its position, the equalities ``jd == id``, the
    renaming j→i, w→v, the number of pre-group-by qualifiers) or None."""
    pre = list(itertools.takewhile(lambda q: not isinstance(q, GroupByQ), quals))
    gens = [(qi, names) for qi, q in enumerate(pre)
            if (names := _flat_array_pattern(q)) is not None]
    for a, (ki, keep) in enumerate(gens):
        for di, drop in gens[a + 1:]:
            if pre[di].source != pre[ki].source or len(drop) != len(keep):
                continue
            eqs = [next((r for r in pre if isinstance(r, Cond)
                         and _is_var_eq(r.expr, k, d)), None)
                   for k, d in zip(keep[:-1], drop[:-1])]
            if None not in eqs:
                return di, eqs, {d: Var(k) for k, d in zip(keep, drop)}, len(pre)
    return None


def _eliminate_self_joins(c: Comp) -> Comp:
    """Same-key self-join elimination: array keys are unique, so the
    later traversal binds exactly the earlier one's row; drop it and its
    key equalities, and rename its variables to the earlier one's."""
    quals, head = list(c.quals), c.head
    while (found := _same_key_traversal(quals)) is not None:
        drop, eqs, env, npre = found
        rest = []
        for qi, q in enumerate(quals):
            if qi == drop or any(q is e for e in eqs):
                continue
            q = subst(q, env)
            # both traversals' filters now test the same variables:
            # keep one copy of each
            if not (qi < npre and q in rest):
                rest.append(q)
        quals, head = rest, subst(head, env)
    return Comp(head, tuple(quals))


def _groupby_rules(c: Comp) -> Comp:
    quals = list(c.quals)
    for qi, q in enumerate(quals):
        if not isinstance(q, GroupByQ):
            continue
        pre = quals[:qi]
        gen_vars = set()
        for p in pre:
            if isinstance(p, (Generator,)):
                gen_vars |= set(pat_vars(p.pat))

        key_free = free_vars(q.key)
        if not (key_free & gen_vars) and not any(
            isinstance(r, OuterLookup) for r in quals[qi + 1:]
        ):
            # Rule 16: constant key — total aggregation; bind the key
            # pattern with a let and drop the group-by. Array increments
            # (which carry an OuterLookup for the pre-update value) keep
            # the group-by: it binds the key their merge needs, and a
            # total aggregation keeps only its reductions.
            new = pre + [LetQ(q.pat, q.key)] + quals[qi + 1:]
            return Comp(c.head, tuple(new))

        # Rule 17: unique key — exactly one generator before the
        # group-by, and the key variables are precisely its index set.
        gens = [p for p in pre if isinstance(p, Generator)]
        if len(gens) == 1:
            g = gens[0]
            if isinstance(g.source, RangeT) and isinstance(g.pat, PVar):
                idx = [g.pat.name]
            else:
                names = _flat_array_pattern(g)
                idx = names[:-1] if names else None
            key_vars = (
                [x.name for x in q.key.items if isinstance(x, Var)]
                if isinstance(q.key, TupleT)
                else ([q.key.name] if isinstance(q.key, Var) else None)
            )
            if (
                idx is not None
                and key_vars is not None
                and (not isinstance(q.key, TupleT)
                     or all(isinstance(x, Var) for x in q.key.items))
                and set(key_vars) == set(idx)
                and len(key_vars) == len(idx)
            ):
                new = pre + [LetQ(q.pat, q.key)] + [unagg(r) for r in quals[qi + 1:]]
                return Comp(unagg(c.head), tuple(new))
        break  # at most one group-by per comprehension in our pipeline
    return c


def optimize_term(t):
    """Apply all optimizations bottom-up, then re-normalize each
    comprehension (its nested ones are normal already)."""
    t = map_terms(t, optimize_term)
    if not isinstance(t, Comp):
        return t
    t = _eliminate_ranges(t)
    t = _eliminate_self_joins(t)
    t = _groupby_rules(t)
    return norm_comp(t)


def optimize_code(code):
    return map_code(code, optimize_term)
