"""Parser unit tests: Figure-1 syntax → AST."""
import pytest

from repro.core import ast as A
from repro.core.parser import ParseError, parse, parse_expr


# ----------------------------------------------------------- expressions
def test_int_literal():
    assert parse_expr("42") == A.EConst(42)


def test_float_literal():
    assert parse_expr("3.5") == A.EConst(3.5)


def test_scientific_literal():
    assert parse_expr("1e3") == A.EConst(1000.0)


def test_string_literal():
    assert parse_expr('"abc"') == A.EConst("abc")


def test_bool_literals():
    assert parse_expr("true") == A.EConst(True)
    assert parse_expr("false") == A.EConst(False)


def test_variable():
    assert parse_expr("x") == A.EVar("x")


def test_binary_precedence():
    # a + b * c parses as a + (b * c)
    e = parse_expr("a + b * c")
    assert e == A.EBin("+", A.EVar("a"), A.EBin("*", A.EVar("b"), A.EVar("c")))


def test_parens_override_precedence():
    e = parse_expr("(a + b) * c")
    assert e == A.EBin("*", A.EBin("+", A.EVar("a"), A.EVar("b")), A.EVar("c"))


def test_comparison():
    assert parse_expr("a < 5") == A.EBin("<", A.EVar("a"), A.EConst(5))


def test_binary_ops_associate_left():
    a, b, c = A.EVar("a"), A.EVar("b"), A.EVar("c")
    assert parse_expr("a - b - c") == A.EBin("-", A.EBin("-", a, b), c)
    assert parse_expr("a / b * c") == A.EBin("*", A.EBin("/", a, b), c)


def test_comparisons_do_not_chain():
    with pytest.raises(ParseError):
        parse_expr("a < b < c")


def test_chained_comparison_in_a_statement_is_reported_as_such():
    # it used to end the statement after "a < b" and fail on "<" as a
    # destination
    with pytest.raises(ParseError, match="comparisons do not chain"):
        parse("x := a < b < c;")
    assert parse("x := (a < b) == c;").stmts[0].expr.op == "=="


def test_boolean_ops():
    e = parse_expr("a && b || c")
    assert e == A.EBin("||", A.EBin("&&", A.EVar("a"), A.EVar("b")), A.EVar("c"))


def test_unary_minus():
    assert parse_expr("-x") == A.EUn("-", A.EVar("x"))


def test_unary_not():
    assert parse_expr("!x") == A.EUn("!", A.EVar("x"))


def test_vector_indexing():
    assert parse_expr("V[i]") == A.EIndex("V", (A.EVar("i"),))


def test_matrix_indexing():
    assert parse_expr("M[i, j]") == A.EIndex("M", (A.EVar("i"), A.EVar("j")))


def test_affine_index():
    assert parse_expr("V[i - 1]") == A.EIndex(
        "V", (A.EBin("-", A.EVar("i"), A.EConst(1)),)
    )


def test_record_projection():
    assert parse_expr("p.red") == A.EProj(A.EVar("p"), "red")


def test_tuple_projection():
    assert parse_expr("t._2") == A.EProj(A.EVar("t"), "_2")


def test_chained_projection():
    assert parse_expr("P[i]._1") == A.EProj(A.EIndex("P", (A.EVar("i"),)), "_1")


def test_tuple_construction():
    assert parse_expr("(a, b)") == A.ETuple((A.EVar("a"), A.EVar("b")))


def test_call():
    assert parse_expr("sqrt(x)") == A.ECall("sqrt", (A.EVar("x"),))


def test_call_two_args():
    assert parse_expr("dist2(P[i], C[j])") == A.ECall(
        "dist2", (A.EIndex("P", (A.EVar("i"),)), A.EIndex("C", (A.EVar("j"),)))
    )


def test_call_no_args():
    assert parse_expr("f()") == A.ECall("f", ())


def test_comment_skipped():
    assert parse_expr("x # trailing comment") == A.EVar("x")


# ------------------------------------------------------------ statements
def test_scalar_decl():
    p = parse("var x: double = 0.0;")
    assert p.stmts == [A.SDecl("x", A.TBasic("double"), A.EConst(0.0))]


def test_int_aliases_to_long():
    p = parse("var x: int = 1;")
    assert p.stmts[0].type == A.TBasic("long")


def test_vector_decl_empty():
    p = parse("var V: vector[double] = vector();")
    assert p.stmts[0] == A.SDecl("V", A.TArray(1, A.TBasic("double")), None)


def test_matrix_decl_empty():
    p = parse("var M: matrix[long] = matrix();")
    d = p.stmts[0]
    assert d.type.ndims == 2 and d.type.elem == A.TBasic("long")


def test_map_decl():
    p = parse("var C: map[string, long] = map();")
    t = p.stmts[0].type
    assert t.ndims == 1 and t.key == A.TBasic("string") and t.elem == A.TBasic("long")


def test_tuple_type_decl():
    p = parse("var V: vector[(long, double)] = vector();")
    assert p.stmts[0].type.elem == A.TTuple((A.TBasic("long"), A.TBasic("double")))


def test_assignment():
    p = parse("x := 1;")
    assert p.stmts == [A.SAssign(A.DVar("x"), A.EConst(1))]


def test_array_assignment():
    p = parse("V[i] := 0;")
    assert p.stmts == [A.SAssign(A.DIndex("V", (A.EVar("i"),)), A.EConst(0))]


def test_incr_plus():
    p = parse("x += 1;")
    assert p.stmts == [A.SIncr(A.DVar("x"), "+", A.EConst(1))]


def test_incr_minus_desugars():
    p = parse("x -= 1;")
    assert p.stmts == [A.SIncr(A.DVar("x"), "+", A.EUn("-", A.EConst(1)))]


def test_incr_times():
    p = parse("x *= 2;")
    assert p.stmts[0].monoid == "*"


def test_incr_min_max():
    p = parse("x min= v; y max= v;")
    assert p.stmts[0].monoid == "min" and p.stmts[1].monoid == "max"


def test_incr_bool():
    p = parse("a &&= x; b ||= y;")
    assert p.stmts[0].monoid == "&&" and p.stmts[1].monoid == "||"


def test_incr_argmin():
    p = parse("c[i] argmin= (j, d);")
    s = p.stmts[0]
    assert s.monoid == "argmin" and isinstance(s.expr, A.ETuple)


def test_for_range():
    p = parse("for i = 0, 9 do V[i] := 0;")
    s = p.stmts[0]
    assert isinstance(s, A.SFor) and s.var == "i"
    assert s.lo == A.EConst(0) and s.hi == A.EConst(9)


def test_for_in():
    p = parse("for v in V do s += v;")
    s = p.stmts[0]
    assert isinstance(s, A.SForIn) and s.var == "v" and s.coll == A.EVar("V")


def test_nested_for():
    p = parse("for i = 0, 2 do for j = 0, 3 do M[i, j] := 0;")
    s = p.stmts[0]
    assert isinstance(s.body, A.SFor) and s.body.var == "j"


def test_while():
    p = parse("while (k < 10) k += 1;")
    s = p.stmts[0]
    assert isinstance(s, A.SWhile) and isinstance(s.body, A.SIncr)


def test_if_without_else():
    p = parse("if (v < 100) sum += v;")
    s = p.stmts[0]
    assert isinstance(s, A.SIf) and s.els is None


def test_if_with_else():
    p = parse("if (a) x := 1; else x := 2;")
    s = p.stmts[0]
    assert s.els is not None


def test_block():
    p = parse("{ x := 1; y := 2; };")
    assert len(p.stmts[0].stmts) == 2


def test_empty_array_condition():
    # if (E[i,j]) — array lookup used as a condition
    p = parse("if (E[i, j]) C[i] += 1;")
    assert isinstance(p.stmts[0].cond, A.EIndex)


def test_bad_character_raises():
    with pytest.raises(ParseError):
        parse("x := @;")


def test_missing_assign_op_raises():
    with pytest.raises(ParseError):
        parse("x 1;")


def test_trailing_garbage_in_expr_raises():
    with pytest.raises(ParseError):
        parse_expr("a b")


def test_keyword_destination_raises():
    with pytest.raises(ParseError):
        parse("for := 3;")
