"""The one lowering of comprehensions to relational steps that both bulk
engines execute."""
import pytest

from repro.core import ast as A
from repro.core.backend import run_code
from repro.core.comprehension import (
    Agg,
    BinOp,
    Comp,
    Cond,
    Const,
    Generator,
    GroupByQ,
    LetQ,
    Merge,
    PTuple,
    PVar,
    StateRef,
    TupleT,
    Var,
)
from repro.core.convert import df_to_dict, dict_to_df
from repro.core.plan import (
    Filter, GroupBy, Join, Let, Lookup, Plan, PlanError, Scan, own_lookup, plan, plan_code,
)
from repro.core.seq_backend import SeqError, run_code_seq
from repro.core.translate import TAssign, TInit, TWhile

VEC_D = A.TArray(1, A.TBasic("double"))


def _gen(i, v, array):
    return Generator(PTuple((PVar(i), PVar(v))), StateRef(array))


def test_conditions_land_where_their_variables_are_bound():
    big = BinOp(">", Var("v"), Const(1.0))
    eq = BinOp("==", Var("i"), Var("j"))
    p = plan(Comp(TupleT((Var("i"), Var("w"))), (
        _gen("i", "v", "V"), _gen("j", "w", "W"), Cond(eq), Cond(big),
    )))
    assert p.driver == ()
    assert p.steps == (
        Scan(("i", "v"), "V"),
        Filter((big,)),
        Join(Scan(("j", "w"), "W"), (eq,), ((Var("i"), Var("j")),), ()),
    )


def test_reductions_become_the_variables_their_group_by_binds():
    key = BinOp("%", Var("i"), Const(2))
    p = plan(Comp(TupleT((Var("k"), Agg("+", Var("v")))), (
        _gen("i", "v", "V"), GroupByQ(PVar("k"), key),
    )))
    assert p.steps[1] == GroupBy(("k",), (key,), (("_agg0", "+", Var("v")),))
    assert p.head == TupleT((Var("k"), Var("_agg0")))


def test_generator_free_reduction_is_its_expression():
    p = plan(Comp(Agg("max", Var("x")), (
        LetQ(PVar("x"), Const(3)), GroupByQ(PVar("k"), TupleT(())),
    )))
    assert p.steps == () and p.head == Var("x")
    assert p.driver == (Let(("x",), Const(3)), Let(("k",), TupleT(())))


def test_own_lookup_is_rule_15a_lookup_of_the_destination_at_the_head_key():
    look = Lookup("w", "X", (Var("k"),), 0.0)
    head = TupleT((Var("k"), BinOp("+", Var("w"), Var("_agg0"))))
    group = GroupBy(("k",), (Var("i"),), (("_agg0", "+", Var("v")),))
    # the last step of an update with generators
    p = Plan((), (Scan(("i", "v"), "V"), group, look), head)
    assert own_lookup(p, "X") == (Plan((), (Scan(("i", "v"), "V"), group), head), look)
    # the last driver step of one without
    let = Let(("k",), Const(3))
    p = Plan((let, look), (), head)
    assert own_lookup(p, "X") == (Plan((let,), (), head), look)
    # another array, another key, or not the last step: none
    assert own_lookup(p, "Y") == (p, None)
    other = Plan((let, Lookup("w", "X", (Var("i"),), 0.0)), (), head)
    assert own_lookup(other, "X") == (other, None)
    early = Plan((look, let), (), head)
    assert own_lookup(early, "X") == (early, None)


def test_condition_on_a_reduction_filters_groups_on_both_engines(spark):
    # a HAVING-like condition: seq used to drop it, Spark to reject it
    term = Comp(TupleT((Var("k"), Agg("+", Var("v")))), (
        _gen("i", "v", "V"),
        GroupByQ(PVar("k"), BinOp("%", Var("i"), Const(2))),
        Cond(BinOp(">", Agg("+", Var("v")), Const(5.0))),
    ))
    V = {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}
    types = {"V": VEC_D, "C": VEC_D}
    code = plan_code([TInit("C", VEC_D), TAssign("C", Merge(StateRef("C"), term), fresh=True)])
    seq = run_code_seq(code, {"V": V}, types)
    sp = run_code(code, {"V": dict_to_df(spark, V, VEC_D)}, spark, types)
    assert seq["C"] == df_to_dict(sp["C"], 1) == {1: 6.0}


def test_plan_code_plans_each_comprehension_once_and_fails_at_compile_time():
    update = Comp(TupleT((Var("i"), Var("v"))), (_gen("i", "v", "V"),))
    test = Comp(BinOp(">", Var("v"), Const(0.0)), (_gen("i", "v", "V"),))
    (loop,) = plan_code([TWhile(test, [TAssign("C", Merge(StateRef("C"), update))])])
    assert loop.plan == plan(test) and loop.body[0].plan == plan(update)
    # y is bound by no generator: planning fails here, not when the code runs
    bad = Comp(Var("v"), (_gen("i", "v", "V"), Cond(BinOp(">", Var("y"), Const(0)))))
    with pytest.raises(PlanError, match="unbound"):
        plan_code([TAssign("s", bad)])
    # code that skipped plan_code is refused, not planned by the engine
    with pytest.raises(SeqError, match="not planned"):
        run_code_seq([TAssign("C", Merge(StateRef("C"), update))], {"V": {0: 1.0}, "C": {}},
                      {"V": VEC_D, "C": VEC_D})
