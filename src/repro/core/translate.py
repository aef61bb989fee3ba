"""Figure-2 translation: loop-language AST → target code over comprehensions.

Implements the semantic functions of the paper:

* ``E[e]``   (rules 11a–11g) — lift an expression of type ``t`` to a
  comprehension term of type ``{t}``;
* ``K[d]``   (rules 12a–12c) — destination index expressions;
* ``D[d](k)``(rules 13a–13c) — fetch the current destination value —
  emitted as an :class:`~repro.core.comprehension.OuterLookup` with the
  ⊕-monoid's identity for the destination's element type as default
  (``monoids.identity``; NULL for a componentwise tuple sum, see
  DESIGN.md);
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
variables, while-loops, and blocks (Python lists). A group of sibling
assignments that one scan can serve (``plan.fuse_code``) is our
addition.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

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
    state_refs,
)
from .monoids import identity


# ----------------------------------------------------------- target code
@dataclass
class TInit:
    """Initialize an empty array (``var V: vector[t] = vector()``);
    ``unread`` if no statement reads the empty array: the next one of
    its block to mention ``V`` is a fresh assignment (``TAssign``) that
    reads ``V`` at most by rule 15a's lookup, so the engines skip it
    (``plan.unread_inits``)."""

    name: str
    type: A.TArray
    unread: bool = False


@dataclass
class TAssign:
    """``V := e`` where ``e`` is a bag-valued comprehension term;
    ``fresh`` if ``V``'s ``TInit`` comes before it in its block with no
    other assignment to ``V`` in between, so ``V`` is empty here.

    ``plan.plan_code`` sets ``plan``, the ``plan.Plan`` of its
    comprehension, which the engines run, and for an update (rule 15a)
    ``look``, its lookup ``w <~ V[k] ?? d``, split off the plan
    (``plan.own_lookup``). ``plan.fuse_code`` marks the plan's joins
    (``plan.Join``) and sets the other fields:

    * ``fill`` is a range fill ``{(i…, c) | i <- range…}`` (a
      ``plan.Fill``) of ``V`` that this assignment ``V := V ⊲ e`` runs
      first, as ``V := (V ⊲ fill) ⊲ e``, lowered with it and without a
      join; ``plan`` is None for a fill alone;
    * ``inside``: every key ``V`` can hold lies inside ``fill``'s ranges,
      so the fill's rows replace ``V``'s."""

    name: str
    term: object
    fresh: bool = False
    plan: Optional[object] = None
    look: Optional[object] = None
    fill: Optional[object] = None
    inside: bool = False


@dataclass
class TWhile:
    """Sequential while-loop over a block of target statements; ``plan``
    is the test's ``plan.Plan`` if the test is a comprehension
    (``plan.plan_code``)."""

    cond: object
    body: list = field(default_factory=list)
    plan: Optional[object] = None


@dataclass
class TGroup:
    """Consecutive assignments (``TAssign``) over one source, none of
    which reads another's destination, run together by one scan of that
    source (``plan.fuse_code``) as ``plan``, their ``plan.GroupPlan``;
    each reads the state from before the group, as it would in its place
    in the sequence."""

    stmts: list
    plan: Optional[object] = None


class TranslationError(Exception):
    pass


def map_code(code: list, f) -> list:
    """A target-code block with ``f`` applied to the term of each
    assignment and the test of each ``while`` loop, nested blocks
    included (the statement walk under every comprehension pass)."""
    out = []
    for st in code:
        if isinstance(st, TAssign):
            out.append(replace(st, term=f(st.term)))
        elif isinstance(st, TWhile):
            out.append(TWhile(f(st.cond), map_code(st.body, f)))
        elif isinstance(st, TGroup):
            out.append(TGroup(map_code(st.stmts, f)))
        elif isinstance(st, TInit):
            out.append(st)
        else:
            raise TypeError(f"unknown target statement {st!r}")
    return out


def statements(code: list):
    """Every statement of a block, nested blocks included, each loop or
    group before its own."""
    for st in code:
        yield st
        yield from statements(st.body if isinstance(st, TWhile) else getattr(st, "stmts", ()))


def assigned(code: list) -> set:
    """The names the statements of a block, nested ones included,
    initialise or assign."""
    return {st.name for st in statements(code) if isinstance(st, (TInit, TAssign))}


def mark_fresh(code: list) -> list:
    """``code`` with each assignment's ``fresh`` set (see ``TAssign``);
    an array initialised before a loop is not fresh inside it."""
    out, inits = [], set()
    for st in code:
        if isinstance(st, TAssign):
            st = replace(st, fresh=st.name in inits)
        elif isinstance(st, TWhile):
            st = TWhile(st.cond, mark_fresh(st.body))
        inits -= assigned([st])
        if isinstance(st, TInit):
            inits.add(st.name)
        out.append(st)
    return out


def carried_arrays(body: list, types: dict) -> list:
    """Arrays a loop body assigns that hold state across iterations, in
    order of first mention. An array whose first mention in the body is
    its re-initialisation (``TInit``) starts afresh in every iteration,
    and its lineage starts at the carried arrays: it needs no
    checkpoint."""
    first: dict = {}  # name -> True if a TInit mentions it first
    for st in statements(body):
        # a loop's test reads first; a group's members all read before any writes
        reads = ([st.cond] if isinstance(st, TWhile) else
                 [s.term for s in st.stmts] if isinstance(st, TGroup) else
                 [st.term] if isinstance(st, TAssign) else [])
        for n in (n for t in reads for n in state_refs(t)):
            first.setdefault(n, False)
        if isinstance(st, (TInit, TAssign)):
            first.setdefault(st.name, isinstance(st, TInit))
    names = assigned(body)
    return [n for n, init in first.items()
            if not init and n in names and isinstance(types.get(n), A.TArray)]


class Translator:
    """Stateful translator; tracks which names are comprehension-bound
    (loop indexes, for-in element variables, if-condition bindings)
    versus program state, and collects the types of state: the extern
    types it starts from, then each declaration's."""

    def __init__(self, types: dict | None = None):
        self.types: dict = dict(types or {})

    # ------------------------------------------------------------- E[e]
    def E(self, e, bound: frozenset):
        if isinstance(e, A.EVar):
            if e.name in bound:
                return Comp(Var(e.name), ())  # rule 11a, bound variable
            if isinstance(self.types.get(e.name), A.TArray):
                # a value is one element of the bag E[e]; an array is the
                # source of a for-in loop, or read element by element
                raise TranslationError(
                    f"array {e.name} used as a value: read its elements, or loop over it with for-in"
                )
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
            if s.var in bound:
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
            whole = isinstance(s.coll, A.EVar) and s.coll.name not in bound
            q = quals + (
                Generator(PVar(a), Comp(StateRef(s.coll.name), ()) if whole else self.E(s.coll, bound)),
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

        if isinstance(s, (A.SAssign, A.SIncr)) and isinstance(s.dest, A.DVar) and isinstance(
            self.types.get(s.dest.name), A.TArray
        ):
            # rules 14a and 15a give a variable the one element of a bag,
            # never an array: the engines would each do something else
            raise TranslationError(
                f"whole-array assignment to {s.dest.name}: assign its elements in a for loop"
            )

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
        name = dest.name if isinstance(dest, A.DVar) else dest.array
        t = self.types.get(name)
        elem = t.elem if isinstance(t, A.TArray) else t
        allowed = ("argmin",) if isinstance(elem, A.TRecord) else ("+", "argmin")
        if monoid not in allowed and (
            isinstance(elem, (A.TTuple, A.TRecord)) or isinstance(expr, A.ETuple)
        ):
            # the engines would disagree: the interpreter orders tuples as
            # wholes, the update below works componentwise and over tuples
            # only (Spark cannot sum a record's struct)
            raise TranslationError(
                f"{name} {monoid}= with a tuple or record value: only += "
                f"(componentwise, tuples only) and argmin= combine tuples or records"
            )
        if monoid == "argmin" and not (
            isinstance(elem, A.TTuple) and len(elem.items) == 2
            or elem is None and isinstance(expr, A.ETuple) and len(expr.items) == 2
        ):
            # the engines keep the pair (index, value) with the least value
            raise TranslationError(f"{name} argmin= needs pairs (index, value)")
        v, w = fresh("v"), fresh("w")
        ident = identity(monoid, elem)

        def update(old, new):
            # old ⊕ ⊕/new; a total aggregation (a scalar's, after rule 16)
            # has no row over no rows, so an empty bag leaves old as it is
            return BinOp(monoid, old, Agg(monoid, new))

        arity = (len(elem.items) if isinstance(elem, A.TTuple)
                 else len(expr.items) if isinstance(expr, A.ETuple) else 0)
        if monoid == "+" and arity:
            # componentwise, as the engines sum scalars only; a missed
            # lookup is NULL, which each component reads as 0
            default = None
            value = TupleT(tuple(
                update(Call("coalesce", (Proj(Var(w), f"_{i}"), Const(ident))),
                       Proj(Var(v), f"_{i}"))
                for i in range(1, arity + 1)
            ))
        else:
            default, value = ident, update(Var(w), Var(v))
        if isinstance(dest, A.DVar):
            # group-by over the unit key (); rule 16 later removes it
            k = fresh("k")
            q = quals + (
                Generator(PVar(v), self.E(expr, bound)),
                GroupByQ(PVar(k), TupleT(())),
                LetQ(PVar(w), StateRef(dest.name)),  # D[v](()) = {v}, rule 13a
            )
            return TAssign(dest.name, Comp(value, q))
        ks = [fresh("k") for _ in dest.indexes]
        q = list(quals)
        q.append(Generator(PVar(v), self.E(expr, bound)))
        for k, ix in zip(ks, dest.indexes):
            q.append(Generator(PVar(k), self.E(ix, bound)))
        key_pat = PTuple(tuple(PVar(k) for k in ks)) if len(ks) > 1 else PVar(ks[0])
        key = TupleT(tuple(Var(k) for k in ks)) if len(ks) > 1 else Var(ks[0])
        q.append(GroupByQ(key_pat, key))
        q.append(OuterLookup(w, dest.array, key, Const(default)))
        head = TupleT(tuple(Var(k) for k in ks) + (value,))
        comp = Comp(head, tuple(q))
        return TAssign(dest.array, Merge(StateRef(dest.array), comp))


def translate_program(program: A.SBlock, extern_types: dict | None = None):
    """Translate a whole program. Returns ``(target_code, types)`` where
    target_code is a list of TInit/TAssign/TWhile, each assignment's
    freshness marked (``mark_fresh``), and types maps the extern and
    declared names to their source types (a declaration wins)."""
    tr = Translator(extern_types)
    code = tr.S(program, (), frozenset())
    return mark_fresh(code), tr.types
