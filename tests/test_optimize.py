"""Optimizer: range elimination (Sec. 3.6), Rules 16/17 (Sec. 4), and
the shape of the incremental updates it leaves."""
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
    Merge,
    OuterLookup,
    RangeT,
    StateRef,
    TupleT,
    Var,
)
from repro.core.normalize import normalize_code
from repro.core.optimize import optimize_code
from repro.core.parser import parse
from repro.core.translate import translate_program


def compile_to(src):
    code, types = translate_program(parse(src))
    return optimize_code(normalize_code(code)), types


def _comp(term):
    return term.new if isinstance(term, Merge) else term


def _range_gens(comp):
    return [
        q for q in comp.quals
        if isinstance(q, Generator) and isinstance(q.source, RangeT)
    ]


def _has_inrange(comp):
    def walk(t):
        if isinstance(t, InRange):
            return True
        if isinstance(t, BinOp):
            return walk(t.left) or walk(t.right)
        return False

    return any(isinstance(q, Cond) and walk(q.expr) for q in comp.quals) or any(
        isinstance(q, Cond) and isinstance(q.expr, InRange) for q in comp.quals
    )


def test_range_eliminated_for_copy_loop():
    # for i = 1,10 do V[i] := W[i]  ⇒  traversal of W with inRange
    code, _ = compile_to("for i = 1, 10 do V[i] := W[i];")
    comp = _comp(code[0].term)
    assert not _range_gens(comp)
    assert _has_inrange(comp)


def test_range_kept_for_initialization():
    # for i = 1,10 do V[i] := 0 has no array to traverse
    code, _ = compile_to("for i = 1, 10 do V[i] := 0;")
    comp = _comp(code[0].term)
    assert len(_range_gens(comp)) == 1


def test_affine_inverse_plus():
    # V[i] := W[i + 1]: the inverse i = I - 1 is applied
    code, _ = compile_to("for i = 0, 8 do V[i] := W[i + 1];")
    comp = _comp(code[0].term)
    assert not _range_gens(comp)
    assert _has_inrange(comp)


def test_affine_inverse_minus():
    code, _ = compile_to("for i = 1, 9 do V[i] := W[i - 1];")
    comp = _comp(code[0].term)
    assert not _range_gens(comp)


def test_matmul_all_ranges_eliminated():
    src = """
    for i = 0, 9 do
      for j = 0, 9 do
        for k = 0, 9 do
          R[i, j] += M[i, k] * N[k, j];
    """
    code, _ = compile_to(src)
    comp = _comp(code[0].term)
    assert not _range_gens(comp)
    # one equality condition left: the join M.k = N.k
    eqs = [
        q for q in comp.quals
        if isinstance(q, Cond) and isinstance(q.expr, BinOp) and q.expr.op == "=="
    ]
    assert len(eqs) == 1


def test_rule16_scalar_increment_drops_groupby():
    code, _ = compile_to("var s: double = 0.0; for v in V do s += v;")
    comp = code[1].term
    assert not any(isinstance(q, GroupByQ) for q in comp.quals)
    # the total aggregation remains in the head, as w ⊕ ⊕/v: it gives no
    # row over no rows, which leaves s unchanged
    assert comp.head == BinOp("+", StateRef("s"), Agg("+", Var("v")))


def test_rule16_pure_scalar_increment():
    # k += 1 with no generators reduces to a closed form
    code, _ = compile_to("var k: long = 0; k += 1;")
    comp = code[1].term
    assert not comp.quals


def test_rule17_unique_key_drops_groupby():
    # V[i] += W[i]: group-by key is W's index — unique
    code, _ = compile_to("for i = 1, 10 do V[i] += W[i];")
    comp = _comp(code[0].term)
    assert not any(isinstance(q, GroupByQ) for q in comp.quals)

    # and the aggregation is gone too (groups are singletons)
    def has_agg(t):
        if isinstance(t, Agg):
            return True
        if isinstance(t, BinOp):
            return has_agg(t.left) or has_agg(t.right)
        if isinstance(t, TupleT):
            return any(has_agg(x) for x in t.items)
        return False

    assert not has_agg(comp.head)


def test_rule17_not_applied_on_join():
    # R[i,j] += M[i,k]*N[k,j] joins two arrays; key is not provably
    # unique, the group-by must stay
    src = """
    for i = 0, 9 do
      for j = 0, 9 do
        for k = 0, 9 do
          R[i, j] += M[i, k] * N[k, j];
    """
    code, _ = compile_to(src)
    comp = _comp(code[0].term)
    assert any(isinstance(q, GroupByQ) for q in comp.quals)


def test_group_by_with_indirect_key_stays():
    code, _ = compile_to("for i = 0, 9 do C[K[i]] += V[i];")
    comp = _comp(code[0].term)
    assert any(isinstance(q, GroupByQ) for q in comp.quals)


def test_tuple_monoid_expanded():
    code, _ = compile_to("for i = 0, 9 do A[K[i]] += (V[i], 1);")
    comp = _comp(code[0].term)
    val = comp.head.items[-1]
    assert isinstance(val, TupleT) and len(val.items) == 2
    # each component is coalesce(w._i, 0) + ⊕/e_i
    first = val.items[0]
    assert isinstance(first, BinOp) and isinstance(first.left, Call)
    assert first.left.fn == "coalesce"
    # the lookup default switched to NULL
    lookups = [q for q in comp.quals if isinstance(q, OuterLookup)]
    assert lookups[0].default == Const(None)


def test_argmin_not_expanded():
    code, _ = compile_to("for i = 0, 9 do c[i] argmin= (i, V[i]);")
    comp = _comp(code[0].term)
    val = comp.head.items[-1]
    assert isinstance(val, BinOp) and val.op == "argmin"


def _scans(comp, name):
    return [
        q for q in comp.quals
        if isinstance(q, Generator) and q.source == StateRef(name)
    ]


def _stmt(code, name):
    from repro.core.translate import TAssign, TWhile

    for st in code:
        if isinstance(st, TWhile):
            found = _stmt(st.body, name)
            if found is not None:
                return found
        elif isinstance(st, TAssign) and st.name == name:
            return _comp(st.term)
    return None


def test_kmeans_same_key_self_joins_eliminated():
    from repro.programs.suite import KMEANS_SRC

    code, _ = compile_to(KMEANS_SRC)
    # avg[closest[i]._1] += (P[i]._1, P[i]._2, 1) reads P[i] once
    assert len(_scans(_stmt(code, "avg"), "P")) == 1
    # C[j] := (avg[j]._1 / avg[j]._3, …) reads avg[j] once
    c = _stmt(code, "C")
    assert [q for q in c.quals if isinstance(q, Generator)] == _scans(c, "avg")
    assert len(_scans(c, "avg")) == 1


def test_pca_partial_key_self_join_kept():
    from repro.programs.suite import PCA_SRC

    code, _ = compile_to(PCA_SRC)
    # M[i, j] × M[i, k] agree on i only: a real join
    assert len(_scans(_stmt(code, "cov"), "M")) == 2


def test_equal_keys_of_different_arrays_kept():
    code, _ = compile_to("for i = 0, 9 do R[i] := A[i] * B[i];")
    comp = _comp(code[0].term)
    assert len(_scans(comp, "A")) == len(_scans(comp, "B")) == 1


def test_same_key_self_join_enables_rule17():
    code, _ = compile_to("for i = 0, 9 do V[i] += W[i] * W[i];")
    comp = _comp(code[0].term)
    assert len(_scans(comp, "W")) == 1
    assert not any(isinstance(q, GroupByQ) for q in comp.quals)
