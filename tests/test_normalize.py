"""Normalization: Rule-2 unnesting, let inlining, constant folding."""
from repro.core.comprehension import (
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
    StateRef,
    TupleT,
    UnOp,
    Var,
)
from repro.core.normalize import norm_term


def test_unnest_rule2():
    # { v | v <- { m | (i, m) <- M } }  ⇒  { m | (i, m) <- M } (let inlined)
    inner = Comp(Var("m"), (Generator(PTuple((PVar("i"), PVar("m"))), StateRef("M")),))
    outer = Comp(Var("v"), (Generator(PVar("v"), inner),))
    out = norm_term(outer)
    assert out.head == Var("m")
    assert len(out.quals) == 1 and isinstance(out.quals[0], Generator)


def test_singleton_generator_inlined():
    # { v + 1 | v <- { 2 } }  ⇒  { 3 }
    out = norm_term(
        Comp(BinOp("+", Var("v"), Const(1)), (Generator(PVar("v"), Comp(Const(2), ())),))
    )
    assert out == Comp(Const(3), ())


def test_let_inlining_stops_at_rebinding():
    # let k = i, group by k : k — the key expr is substituted but the
    # group pattern re-binds k, so the head keeps referring to Var k
    c = Comp(
        Var("k"),
        (
            Generator(PTuple((PVar("i"), PVar("v"))), StateRef("V")),
            LetQ(PVar("k"), Var("i")),
            GroupByQ(PVar("k"), Var("k")),
        ),
    )
    out = norm_term(c)
    gb = [q for q in out.quals if isinstance(q, GroupByQ)][0]
    assert gb.key == Var("i")
    assert out.head == Var("k")


def test_tuple_let_split():
    c = Comp(
        BinOp("+", Var("a"), Var("b")),
        (
            Generator(PTuple((PVar("i"), PVar("v"))), StateRef("V")),
            LetQ(PTuple((PVar("a"), PVar("b"))), TupleT((Var("v"), Const(1)))),
        ),
    )
    out = norm_term(c)
    assert out.head == BinOp("+", Var("v"), Const(1))


def test_constant_folding():
    assert norm_term(BinOp("*", Const(3), Const(4))) == Const(12)
    assert norm_term(BinOp("-", Const(10), Const(1))) == Const(9)
    assert norm_term(UnOp("-", Const(5))) == Const(-5)
    assert norm_term(UnOp("!", Const(True))) == Const(False)


def test_constant_comparison_folds():
    assert norm_term(BinOp("<", Const(1), Const(2))) == Const(True)


def test_tuple_projection_folds():
    assert norm_term(Proj(TupleT((Const(7), Const(8))), "_2")) == Const(8)


def test_trivially_true_condition_dropped():
    c = Comp(
        Var("v"),
        (
            Generator(PTuple((PVar("i"), PVar("v"))), StateRef("V")),
            Cond(BinOp("==", Var("i"), Var("i"))),
        ),
    )
    out = norm_term(c)
    assert not any(isinstance(q, Cond) for q in out.quals)


def test_int_division_folds_like_the_engines():
    # every engine computes 7 / 2 as 3.5, so the fold must too
    assert norm_term(BinOp("/", Const(7), Const(2))) == Const(3.5)
    assert norm_term(BinOp("/", Const(-7), Const(2))) == Const(-3.5)


def test_float_division():
    assert norm_term(BinOp("/", Const(7.0), Const(2))) == Const(3.5)


def test_division_by_zero_not_folded():
    t = BinOp("/", Const(1), Const(0))
    assert norm_term(t) == t


def test_nested_comp_in_merge_normalized():
    from repro.core.comprehension import Merge

    inner = Comp(Var("v"), (Generator(PVar("v"), Comp(Const(1), ())),))
    out = norm_term(Merge(StateRef("V"), inner))
    assert out.new == Comp(Const(1), ())
