"""Figure-2 translation rules: structure of the emitted target code."""
import pytest

from repro.core import ast as A
from repro.core.comprehension import (
    Agg,
    BinOp,
    Comp,
    Cond,
    Generator,
    GroupByQ,
    Merge,
    OuterLookup,
    RangeT,
    StateRef,
    Var,
)
from repro.core.normalize import normalize_code
from repro.core.optimize import optimize_code
from repro.core.parser import parse
from repro.core.pipeline import compile_program
from repro.core.translate import TAssign, TInit, TWhile, statements, translate_program
from repro.programs.suite import BY_NAME, build_envs


def tr(src):
    code, types = translate_program(parse(src))
    return normalize_code(code), types


def _quals_of(term):
    if isinstance(term, Merge):
        term = term.new
    assert isinstance(term, Comp)
    return term.quals


def test_scalar_decl_becomes_assign():
    code, types = tr("var x: double = 1.5;")
    assert len(code) == 1 and isinstance(code[0], TAssign)
    assert types["x"] == A.TBasic("double")


def test_empty_array_decl_becomes_init():
    code, types = tr("var V: vector[double] = vector();")
    assert isinstance(code[0], TInit) and code[0].type.ndims == 1


def test_array_assign_is_merge():
    code, _ = tr("V[3] := 1;")
    assert isinstance(code[0].term, Merge)
    assert code[0].term.old == StateRef("V")


def test_for_becomes_range_generator():
    code, _ = tr("for i = 0, 9 do V[i] := 0;")
    gens = [q for q in _quals_of(code[0].term) if isinstance(q, Generator)]
    assert any(isinstance(g.source, RangeT) for g in gens)


def test_for_in_becomes_array_generator():
    code, _ = tr("for v in V do s += v;")
    gens = [q for q in _quals_of(code[0].term) if isinstance(q, Generator)]
    assert any(g.source == StateRef("V") for g in gens)


def test_incr_emits_groupby_and_lookup():
    code, _ = tr("for i = 0, 9 do C[K[i]] += V[i];")
    quals = _quals_of(code[0].term)
    assert any(isinstance(q, GroupByQ) for q in quals)
    lookups = [q for q in quals if isinstance(q, OuterLookup)]
    assert len(lookups) == 1 and lookups[0].array == "C"


def test_incr_head_is_w_plus_agg():
    code, _ = tr("for i = 0, 9 do C[K[i]] += V[i];")
    head = code[0].term.new.head
    val = head.items[-1]
    assert isinstance(val, BinOp) and val.op == "+"
    assert isinstance(val.right, Agg) and val.right.monoid == "+"


def test_scalar_incr_unit_groupby():
    code, _ = tr("var s: double = 0.0; for v in V do s += v;")
    # before optimization the scalar increment carries a unit group-by
    quals = code[1].term.quals
    assert any(isinstance(q, GroupByQ) for q in quals)


def test_while_translated_sequentially():
    code, _ = tr("var k: long = 0; while (k < 3) k += 1;")
    assert isinstance(code[1], TWhile)
    assert isinstance(code[1].cond, Comp)


def test_if_condition_becomes_qualifier():
    code, _ = tr("for v in V do if (v < 10) s += v;")
    conds = [q for q in _quals_of(code[0].term) if isinstance(q, Cond)]
    assert conds, "expected the if-condition as a comprehension condition"


def test_if_else_negates():
    code, _ = tr("if (f) x := 1; else x := 2;")
    assert len(code) == 2  # one statement per branch


def test_block_splits_per_statement():
    # Theorem 3.1: each statement of the loop body becomes its own
    # bulk update
    code, _ = tr("for i = 0, 9 do { V[i] := 0.0; W[i] := 1.0; };")
    assert len(code) == 2
    assert {code[0].name, code[1].name} == {"V", "W"}


def test_matrix_incr_two_key_generators():
    code, _ = tr("for i = 0, 4 do for j = 0, 4 do M[i, j] += 1.0;")
    head = code[0].term.new.head
    assert len(head.items) == 3  # two keys + value


def test_matmul_structure():
    src = """
    for i = 0, 9 do
      for j = 0, 9 do
        for k = 0, 9 do
          R[i, j] += M[i, k] * N[k, j];
    """
    code, _ = tr(src)
    quals = _quals_of(code[0].term)
    arr_gens = [
        q for q in quals
        if isinstance(q, Generator) and isinstance(q.source, StateRef)
    ]
    assert {g.source.name for g in arr_gens} == {"M", "N"}


def test_types_collected():
    _, types = tr("var V: vector[long] = vector(); var x: bool = true;")
    assert types["V"].ndims == 1 and types["x"] == A.TBasic("bool")


def test_nested_duplicate_index_raises():
    from repro.core.translate import TranslationError

    with pytest.raises(TranslationError):
        translate_program(parse("for i = 0, 9 do for i = 0, 9 do V[i] := 0;"))


@pytest.mark.parametrize("name,want", [
    # the fill R[i, j] := 0.0, then the update R[i, j] += …
    ("Matrix Multiplication", [("R", True), ("R", False)]),
    # closest and avg are re-initialised at the top of each iteration
    ("KMeans", [("closest", True), ("avg", True), ("C", False)]),
])
def test_fresh_merges_are_marked_at_compile_time(name, want):
    _, _, types = build_envs(BY_NAME[name], "tiny")
    comp = compile_program(BY_NAME[name].source, types)
    merges = [(st.name, st.fresh) for st in statements(comp.code)
              if isinstance(st, TAssign) and isinstance(comp.types[st.name], A.TArray)]
    assert merges == want
    assert "fresh=True" in repr(comp.code)
