"""Comprehension IR utilities: the walk, free variables, substitution,
printing."""
import dataclasses
from typing import get_args

import pytest

from repro.core.comprehension import (
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
    Qualifier,
    RangeT,
    StateRef,
    Term,
    TupleT,
    UnOp,
    Var,
    fresh,
    free_vars,
    map_terms,
    pat_vars,
    show,
    subst,
    subterms,
)


def test_fresh_names_unique():
    names = {fresh("x") for _ in range(100)}
    assert len(names) == 100


def test_pat_vars_nested():
    p = PTuple((PVar("a"), PTuple((PVar("b"), PVar("c")))))
    assert pat_vars(p) == ["a", "b", "c"]


def test_free_vars_simple():
    assert free_vars(BinOp("+", Var("a"), Const(1))) == {"a"}


def test_free_vars_stateref_excluded():
    assert free_vars(BinOp("+", StateRef("s"), Var("a"))) == {"a"}


def test_free_vars_generator_binds():
    c = Comp(Var("v"), (Generator(PTuple((PVar("i"), PVar("v"))), StateRef("V")),))
    assert free_vars(c) == set()


def test_free_vars_generator_source_free():
    c = Comp(Var("v"), (Generator(PVar("v"), Var("A")),))
    assert free_vars(c) == {"A"}


def test_free_vars_groupby_key():
    c = Comp(
        Var("k"),
        (
            Generator(PTuple((PVar("i"), PVar("v"))), StateRef("V")),
            GroupByQ(PVar("k"), Var("i")),
        ),
    )
    assert free_vars(c) == set()


def test_free_vars_outer_lookup():
    c = Comp(
        Var("w"),
        (OuterLookup("w", "V", Var("k"), Const(0)),),
    )
    assert free_vars(c) == {"k"}


def test_subst_var():
    assert subst(Var("a"), {"a": Const(3)}) == Const(3)


def test_subst_into_binop():
    t = subst(BinOp("+", Var("a"), Var("b")), {"a": Const(1)})
    assert t == BinOp("+", Const(1), Var("b"))


def test_subst_respects_comp_binding():
    # a is rebound by the generator; only the source occurrence changes
    c = Comp(Var("a"), (Generator(PVar("a"), Var("a")),))
    out = subst(c, {"a": StateRef("X")})
    assert out == Comp(Var("a"), (Generator(PVar("a"), StateRef("X")),))


def test_subst_into_lookup_key():
    q = Comp(Var("w"), (OuterLookup("w", "V", Var("k"), Const(0)),))
    out = subst(q, {"k": Const(5)})
    assert out.quals[0].key == Const(5)


def test_show_roundtrips_structure():
    c = Comp(
        TupleT((Var("k"), Agg("+", Var("v")))),
        (
            Generator(PTuple((PVar("i"), PVar("v"))), StateRef("V")),
            GroupByQ(PVar("k"), Var("i")),
        ),
    )
    s = show(c)
    assert "group by" in s and "+/v" in s and "$V" in s


def test_show_merge():
    s = show(Merge(StateRef("V"), Comp(Const(1), ())))
    assert "<|" in s


def test_show_range_and_proj():
    assert show(RangeT(Const(0), Const(9))) == "range(0, 9)"
    assert show(Proj(Var("p"), "red")) == "p.red"


# ------------------------------------------------------------ the walk
TERMS, QUALS = get_args(Term), get_args(Qualifier)
a, b, c = Var("a"), Const(1), StateRef("S")
P = PTuple((PVar("i"), PVar("v")))
# one instance of every IR class
NODES = [
    Var("x"), Const(2), StateRef("X"), BinOp("+", a, b), UnOp("-", a),
    TupleT((a, b, c)), Proj(a, "_1"), Call("f", (a, b)), Agg("+", a),
    RangeT(a, b), InRange(a, b, c), Merge(c, a),
    Comp(a, (Generator(P, c), Cond(b), LetQ(PVar("l"), Var("v")))),
    Generator(P, c), Cond(a), LetQ(P, a), GroupByQ(PVar("k"), a),
    OuterLookup("w", "X", a, b),
]


def _term_fields(x) -> tuple:
    """The terms in the fields of ``x``, found by value: the subterms a
    walk must visit."""
    out = []
    for f in dataclasses.fields(x):
        v = getattr(x, f.name)
        for y in v if isinstance(v, tuple) else (v,):
            if isinstance(y, TERMS):
                out.append(y)
            elif isinstance(y, QUALS):
                out.extend(_term_fields(y))
    return tuple(out)


def _mark(t):
    return UnOp("mark", t)


def test_nodes_cover_every_ir_class():
    assert {type(x) for x in NODES} == set(TERMS) | set(QUALS)


@pytest.mark.parametrize("x", NODES, ids=lambda x: type(x).__name__)
def test_walk_visits_exactly_the_term_fields(x):
    assert subterms(x) == _term_fields(x)
    assert map_terms(x, lambda t: t) == x
    assert subterms(map_terms(x, _mark)) == tuple(map(_mark, _term_fields(x)))
