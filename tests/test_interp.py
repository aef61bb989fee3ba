"""Sequential reference interpreter: literal loop semantics."""
import math

import pytest

from repro.core import ast as A
from repro.core.interp import MISSING, interpret


def test_scalar_decl_and_assign():
    out = interpret("var x: double = 1.5; x := x + 1.0;", {})
    assert out["x"] == 2.5


def test_sum_loop():
    out = interpret("var s: double = 0.0; for v in V do s += v;", {"V": {0: 1.0, 1: 2.0, 2: 3.0}})
    assert out["s"] == 6.0


def test_count_loop():
    out = interpret("var c: long = 0; for v in V do c += 1;", {"V": {i: i for i in range(7)}})
    assert out["c"] == 7


def test_conditional_increment():
    out = interpret(
        "var s: double = 0.0; for v in V do if (v < 10.0) s += v;",
        {"V": {0: 5.0, 1: 50.0, 2: 3.0}},
    )
    assert out["s"] == 8.0


def test_for_range_inclusive():
    out = interpret("var s: long = 0; for i = 1, 4 do s += i;", {})
    assert out["s"] == 10


def test_vector_write():
    out = interpret("for i = 0, 3 do V[i] := i * 2;", {"V": {}})
    assert out["V"] == {0: 0, 1: 2, 2: 4, 3: 6}


def test_matrix_write_uses_tuple_keys():
    out = interpret("for i = 0, 1 do for j = 0, 1 do M[i, j] := i + j;", {"M": {}})
    assert out["M"] == {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}


def test_missing_read_skips_statement():
    # W[5] does not exist: the assignment is a no-op (empty bag)
    out = interpret("V[0] := W[5];", {"V": {0: 99}, "W": {}})
    assert out["V"] == {0: 99}


def test_missing_in_condition_skips_branch():
    out = interpret("if (E[0, 0]) c += 1;", {"E": {}, "c": 0})
    assert out["c"] == 0


def test_increment_missing_starts_from_identity():
    out = interpret("C[0] += 5;", {"C": {}})
    assert out["C"] == {0: 5}


def test_min_max_monoids():
    out = interpret(
        "var mx: double = 0.0; var mn: double = 1e9;"
        "for v in V do { mx max= v; mn min= v; };",
        {"V": {0: 3.0, 1: 9.0, 2: 1.0}},
    )
    assert out["mx"] == 9.0 and out["mn"] == 1.0


def test_bool_monoids():
    out = interpret(
        "var a: bool = true; var o: bool = false;"
        "for v in V do { a &&= v > 0.0; o ||= v > 5.0; };",
        {"V": {0: 1.0, 1: -2.0, 2: 9.0}},
    )
    assert out["a"] is False and out["o"] is True


def test_argmin_monoid():
    out = interpret(
        "for i = 0, 2 do c[0] argmin= (i, V[i]);",
        {"c": {}, "V": {0: 5.0, 1: 2.0, 2: 7.0}},
    )
    assert out["c"][0] == (1, 2.0)


def test_tuple_increment_componentwise():
    out = interpret(
        "for i = 0, 2 do A[0] += (V[i], 1);",
        {"A": {}, "V": {0: 1.0, 1: 2.0, 2: 3.0}},
    )
    assert out["A"][0] == (6.0, 3)


def test_while_loop():
    out = interpret("var k: long = 0; while (k < 5) k += 1;", {})
    assert out["k"] == 5


def test_if_else():
    out = interpret("if (x > 0) y := 1; else y := 2;", {"x": -3, "y": 0})
    assert out["y"] == 2


def test_record_projection():
    out = interpret(
        "var c: long = 0; for p in P do c += p.red;",
        {"P": {0: {"red": 2, "green": 0}, 1: {"red": 3, "green": 1}}},
    )
    assert out["c"] == 5


def test_tuple_projection():
    out = interpret(
        "var s: double = 0.0; for p in P do s += p._2;",
        {"P": {0: (1.0, 10.0), 1: (2.0, 20.0)}},
    )
    assert out["s"] == 30.0


def test_calls():
    out = interpret("var x: double = 0.0; x := sqrt(9.0) + abs(0.0 - 2.0);", {})
    assert out["x"] == 5.0


def test_dist2():
    out = interpret(
        "var d: double = 0.0; d := dist2(P[0], P[1]);",
        {"P": {0: (0.0, 0.0), 1: (3.0, 4.0)}},
    )
    assert out["d"] == 25.0


def test_indirect_index_group():
    out = interpret(
        "for i = 0, 3 do C[K[i]] += V[i];",
        {"C": {}, "K": {0: 1, 1: 2, 2: 1, 3: 2}, "V": {0: 10, 1: 20, 2: 30, 3: 40}},
    )
    assert out["C"] == {1: 40, 2: 60}


def test_input_not_mutated():
    env = {"V": {0: 1.0}}
    interpret("V[0] := 2.0;", env)
    assert env["V"] == {0: 1.0}


def test_decl_resets_array_inside_while():
    out = interpret(
        "var k: long = 0;"
        "while (k < 2) { k += 1; var A: vector[long] = vector(); A[0] += 1; };",
        {},
    )
    assert out["A"] == {0: 1}  # reset each iteration, incremented once


# --------------------------------------------------- the MISSING rule
ONE, ZERO, ABSENT = A.EConst(1), A.EConst(0), A.EIndex("W", (A.EConst(5),))

# Each expression class with subexpressions: a name, a builder from its
# operands, and operands under which the expression has a value.
STRICT_CASES = [
    ("a + b", A.EBin, lambda *xs: A.EBin("+", *xs), [ONE, ONE]),
    ("a && b", A.EBin, lambda *xs: A.EBin("&&", *xs), [A.EConst(False)] * 2),
    ("-a", A.EUn, lambda x: A.EUn("-", x), [ONE]),
    ("V[i]", A.EIndex, lambda *xs: A.EIndex("V", xs), [ZERO]),
    ("M[i, j, k]", A.EIndex, lambda *xs: A.EIndex("M", xs), [ZERO] * 3),
    ("t._2", A.EProj, lambda x: A.EProj(x, "_2"), [A.ETuple((ONE, ONE))]),
    ("(a, b, c)", A.ETuple, lambda *xs: A.ETuple(xs), [ONE] * 3),
    ("coalesce(a, b)", A.ECall, lambda *xs: A.ECall("coalesce", xs), [ONE] * 2),
]

STORES = {
    "x := e": lambda e: A.SAssign(A.DVar("x"), e),
    "x += e": lambda e: A.SIncr(A.DVar("x"), "+", e),
    "var x: long = e": lambda e: A.SDecl("x", A.TBasic("long"), e),
    "A[0] := e": lambda e: A.SAssign(A.DIndex("A", (ZERO,)), e),
    "A[e] := 1": lambda e: A.SAssign(A.DIndex("A", (e,)), ONE),
}


def _state():
    # x is a value that no case's expression has
    return {"x": 0.5, "A": {}, "W": {}, "V": {0: 7}, "M": {(0, 0, 0): 7}}


def _expr(case, pos=None):
    """The case's expression, its operand at ``pos`` absent."""
    _, _, build, ops = case
    return build(*(ABSENT if i == pos else x for i, x in enumerate(ops)))


def test_every_compound_expression_class_has_a_case():
    assert {c for _, c, _, _ in STRICT_CASES} == {
        c for c, fields in A.SUBEXPR_FIELDS.items() if fields
    }


@pytest.mark.parametrize("case", STRICT_CASES, ids=lambda c: c[0])
@pytest.mark.parametrize("store", ["x := e", "A[e] := 1"])
def test_present_operands_store(case, store):
    # the no-op cases below are not vacuous: with every operand present,
    # the expression has a value and the store writes it
    prog = A.SBlock([STORES[store](_expr(case))])
    assert interpret(prog, _state()) != _state()


@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize(
    "case, pos",
    [(c, i) for c in STRICT_CASES for i in range(len(c[3]))],
    ids=lambda v: v[0] if isinstance(v, tuple) else f"operand{v}",
)
def test_absent_operand_makes_store_a_noop(case, pos, store):
    prog = A.SBlock([STORES[store](_expr(case, pos))])
    assert interpret(prog, _state()) == _state()
