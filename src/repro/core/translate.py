"""Figure-2 translation: loop-language AST → target code over comprehensions.

Implements the semantic functions of the paper:

* ``E[e]``   (rules 11a–11g) — lift an expression of type ``t`` to a
  comprehension term of type ``{t}``;
* ``K[d]``   (rules 12a–12c) — destination index expressions;
* ``D[d](k)``(rules 13a–13c) — fetch the current destination value —
  emitted as an :class:`~repro.core.comprehension.OuterLookup` with the
  ⊕-monoid identity as default (see DESIGN.md);
* ``U[d](x)``(rules 14a–14c) — rebuild the destination: scalars are
  assigned the bag ``x`` directly, arrays become ``V := V ⊲ x``;
* ``S[s](q̄)``(rules 15a–15h) — statements, with for-loops pushed into
  the comprehensions as qualifiers (licensed by Theorem 3.1).

One representation choice: a generator over an ``n``-dimensional array
binds a *flat* pattern ``(i1, …, in, v)`` and the head of an
array-assignment comprehension is the flat tuple
``(k1, …, kn, value)`` — semantically identical to the paper's nested
``((i1,…,in), v)`` pairs but simpler to map onto DataFrame columns.

Target code (Section 3.8): assignments of bag-valued terms to state
variables, while-loops, and blocks (Python lists).
"""
from __future__ import annotations

from dataclasses import dataclass, field
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
    fresh,
)
from .monoids import IDENTITY


# ----------------------------------------------------------- target code
@dataclass
class TInit:
    """Initialize an empty array (``var V: vector[t] = vector()``)."""

    name: str
    type: A.TArray


@dataclass
class TAssign:
    """``V := e`` where ``e`` is a bag-valued comprehension term."""

    name: str
    term: object


@dataclass
class TWhile:
    """Sequential while-loop over a block of target statements."""

    cond: object
    body: list = field(default_factory=list)


class TranslationError(Exception):
    pass


def map_code(code: list, f) -> list:
    """A target-code block with ``f`` applied to the term of each
    assignment and the test of each ``while`` loop, nested blocks
    included (the statement walk under every comprehension pass)."""
    out = []
    for st in code:
        if isinstance(st, TAssign):
            out.append(TAssign(st.name, f(st.term)))
        elif isinstance(st, TWhile):
            out.append(TWhile(f(st.cond), map_code(st.body, f)))
        elif isinstance(st, TInit):
            out.append(st)
        else:
            raise TypeError(f"unknown target statement {st!r}")
    return out


class Translator:
    """Stateful translator; tracks which names are comprehension-bound
    (loop indexes, for-in element variables, if-condition bindings)
    versus program state, and collects declared types."""

    def __init__(self):
        self.types: dict = {}

    # ------------------------------------------------------------- E[e]
    def E(self, e, bound: frozenset):
        if isinstance(e, A.EVar):
            if e.name in bound:
                return Comp(Var(e.name), ())  # rule 11a, bound variable
            return Comp(StateRef(e.name), ())  # rule 11a, state variable
        if isinstance(e, A.EConst):
            return Comp(Const(e.value), ())  # rule 11g
        if isinstance(e, A.EBin):  # rule 11d
            a, b = fresh("l"), fresh("r")
            return Comp(
                BinOp(e.op, Var(a), Var(b)),
                (Generator(PVar(a), self.E(e.left, bound)),
                 Generator(PVar(b), self.E(e.right, bound))),
            )
        if isinstance(e, A.EUn):
            a = fresh("u")
            return Comp(UnOp(e.op, Var(a)), (Generator(PVar(a), self.E(e.expr, bound)),))
        if isinstance(e, A.EProj):  # rule 11b
            a = fresh("p")
            return Comp(Proj(Var(a), e.field), (Generator(PVar(a), self.E(e.expr, bound)),))
        if isinstance(e, A.ETuple):  # rule 11e
            names = [fresh("t") for _ in e.items]
            gens = tuple(
                Generator(PVar(n), self.E(x, bound)) for n, x in zip(names, e.items)
            )
            return Comp(TupleT(tuple(Var(n) for n in names)), gens)
        if isinstance(e, A.ECall):
            names = [fresh("c") for _ in e.args]
            gens = tuple(
                Generator(PVar(n), self.E(x, bound)) for n, x in zip(names, e.args)
            )
            return Comp(Call(e.fn, tuple(Var(n) for n in names)), gens)
        if isinstance(e, A.EIndex):  # rule 11c
            n = len(e.indexes)
            ks = [fresh("k") for _ in range(n)]
            idx = [fresh("i") for _ in range(n)]
            v = fresh("v")
            quals = [
                Generator(PVar(k), self.E(x, bound)) for k, x in zip(ks, e.indexes)
            ]
            quals.append(
                Generator(PTuple(tuple(PVar(x) for x in idx + [v])), StateRef(e.array))
            )
            quals.extend(
                Cond(BinOp("==", Var(i), Var(k))) for i, k in zip(idx, ks)
            )
            return Comp(Var(v), tuple(quals))
        raise TranslationError(f"cannot translate expression {e!r}")

    # ----------------------------------------------------------- S[s](q)
    def S(self, s, quals: tuple, bound: frozenset) -> list:
        if isinstance(s, A.SBlock):  # rule 15h
            out = []
            for st in s.stmts:
                out.extend(self.S(st, quals, bound))
            return out

        if isinstance(s, A.SDecl):  # rule 15c
            self.types[s.name] = s.type
            if s.init is None:
                if not isinstance(s.type, A.TArray):
                    raise TranslationError(f"missing initializer for {s.name}")
                return [TInit(s.name, s.type)]
            return self.S(A.SAssign(A.DVar(s.name), s.init), quals, bound)

        if isinstance(s, A.SFor):  # rule 15d
            if quals is not None and s.var in bound:
                raise TranslationError(f"duplicate loop index {s.var!r}")
            v1, v2 = fresh("lo"), fresh("hi")
            q = quals + (
                Generator(PVar(v1), self.E(s.lo, bound)),
                Generator(PVar(v2), self.E(s.hi, bound)),
                Generator(PVar(s.var), RangeT(Var(v1), Var(v2))),
            )
            return self.S(s.body, q, bound | {v1, v2, s.var})

        if isinstance(s, A.SForIn):  # rule 15e
            a, i = fresh("A"), fresh("ix")
            q = quals + (
                Generator(PVar(a), self.E(s.coll, bound)),
                Generator(PTuple((PVar(i), PVar(s.var))), Var(a)),
            )
            return self.S(s.body, q, bound | {a, i, s.var})

        if isinstance(s, A.SWhile):  # rule 15f
            return [TWhile(self.E(s.cond, bound), self.S(s.body, (), bound))]

        if isinstance(s, A.SIf):  # rule 15g (else-branch negates the test)
            p = fresh("b")
            q_then = quals + (Generator(PVar(p), self.E(s.cond, bound)), Cond(Var(p)))
            out = self.S(s.then, q_then, bound | {p})
            if s.els is not None:
                p2 = fresh("b")
                q_else = quals + (
                    Generator(PVar(p2), self.E(s.cond, bound)),
                    Cond(UnOp("!", Var(p2))),
                )
                out.extend(self.S(s.els, q_else, bound | {p2}))
            return out

        if isinstance(s, A.SAssign):  # rule 15b
            return [self._assign(s.dest, s.expr, quals, bound)]

        if isinstance(s, A.SIncr):  # rule 15a
            return [self._incr(s.dest, s.monoid, s.expr, quals, bound)]

        raise TranslationError(f"cannot translate statement {s!r}")

    # ------------------------------------------------- assignment helpers
    def _assign(self, dest, expr, quals: tuple, bound: frozenset):
        v = fresh("v")
        if isinstance(dest, A.DVar):
            comp = Comp(Var(v), quals + (Generator(PVar(v), self.E(expr, bound)),))
            return TAssign(dest.name, comp)  # rule 14a strips the unit key
        ks = [fresh("k") for _ in dest.indexes]
        q = list(quals)
        q.append(Generator(PVar(v), self.E(expr, bound)))
        for k, ix in zip(ks, dest.indexes):
            q.append(Generator(PVar(k), self.E(ix, bound)))
        head = TupleT(tuple(Var(k) for k in ks) + (Var(v),))
        comp = Comp(head, tuple(q))
        return TAssign(dest.array, Merge(StateRef(dest.array), comp))  # rule 14c

    def _incr(self, dest, monoid, expr, quals: tuple, bound: frozenset):
        v, w = fresh("v"), fresh("w")
        if isinstance(dest, A.DVar):
            # group-by over the unit key (); rule 16 later removes it
            k = fresh("k")
            q = quals + (
                Generator(PVar(v), self.E(expr, bound)),
                GroupByQ(PVar(k), TupleT(())),
                LetQ(PVar(w), StateRef(dest.name)),  # D[v](()) = {v}, rule 13a
            )
            head = BinOp(monoid, Var(w), Agg(monoid, Var(v)))
            return TAssign(dest.name, Comp(head, q))
        ks = [fresh("k") for _ in dest.indexes]
        q = list(quals)
        q.append(Generator(PVar(v), self.E(expr, bound)))
        for k, ix in zip(ks, dest.indexes):
            q.append(Generator(PVar(k), self.E(ix, bound)))
        key_pat = PTuple(tuple(PVar(k) for k in ks)) if len(ks) > 1 else PVar(ks[0])
        key = TupleT(tuple(Var(k) for k in ks)) if len(ks) > 1 else Var(ks[0])
        q.append(GroupByQ(key_pat, key))
        q.append(OuterLookup(w, dest.array, key, Const(IDENTITY[monoid])))
        head = TupleT(
            tuple(Var(k) for k in ks) + (BinOp(monoid, Var(w), Agg(monoid, Var(v))),)
        )
        comp = Comp(head, tuple(q))
        return TAssign(dest.array, Merge(StateRef(dest.array), comp))


def translate_program(program: A.SBlock):
    """Translate a whole program. Returns ``(target_code, types)`` where
    target_code is a list of TInit/TAssign/TWhile and types maps declared
    names to their source types."""
    tr = Translator()
    code = tr.S(program, (), frozenset())
    return code, tr.types
