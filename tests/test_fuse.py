"""Sibling statements over one source run as one scan (``plan.fuse_code``):
which statements are grouped, that programs with nothing to fuse compile
as before, which range fills and keyless joins the pass marks, and that
the interpreter, seq and Spark agree on grouped programs, edge cases
included."""
import itertools

import pytest

from repro.core import ast as A
from repro.core import comprehension
from repro.core.pipeline import compile_program
from repro.core.translate import TGroup, TWhile, statements
from repro.programs.suite import BY_NAME, PROGRAMS, build_envs
from tests.test_backend_sql import _same, three_engines
from tests.test_fill import broadcasts

L, S = A.TBasic("long"), A.TBasic("string")
VEC_L = A.TArray(1, L)


def groups(code) -> list:
    """The destinations of each group in a block, loop bodies included."""
    out = []
    for st in code:
        if isinstance(st, TGroup):
            out.append([s.name for s in st.stmts])
        elif isinstance(st, TWhile):
            out += groups(st.body)
    return out


def _compiled(name, **kw):
    _, _, types = build_envs(BY_NAME[name], "tiny", None)
    return compile_program(BY_NAME[name].source, types, **kw)


@pytest.mark.parametrize("name,want", [
    ("Histogram", [["R", "G", "B"]]),
    ("String Match", [["b1", "b2", "b3"]]),
    ("Linear Regression", [["sum_x", "sum_y"], ["xx_bar", "yy_bar", "xy_bar"]]),
    ("Average", [["sum", "cnt"]]),
    ("Equal Frequency", [["mx", "mn"]]),
])
def test_siblings_over_one_source_are_grouped(name, want):
    assert groups(_compiled(name).code) == want


@pytest.mark.parametrize("prog", PROGRAMS, ids=lambda p: p.name)
def test_no_fuse_leaves_every_statement_alone(prog):
    assert groups(_compiled(prog.name, fuse=False).code) == []


def _both(monkeypatch, name) -> list:
    """The code of a program compiled with and without ``fuse``, with the
    same fresh names on both sides, so that it compares as a whole."""
    codes = []
    for fuse in (True, False):
        monkeypatch.setattr(comprehension, "_fresh_counter", itertools.count())
        codes.append(_compiled(name, fuse=fuse).code)
    return codes


@pytest.mark.parametrize("name", ["Word Count", "Group-By", "Matrix Addition"])
def test_programs_with_nothing_to_fuse_are_untouched(monkeypatch, name):
    codes = _both(monkeypatch, name)
    assert codes[0] == codes[1]


@pytest.mark.parametrize("name,fills,broadcast", [
    # the fill of C moves past P's to meet C's update; P's fill in the
    # loop meets P's update
    ("PageRank", [("P", 1, True), ("C", 2, True), ("P", 2, False)], []),
    ("KMeans", [], ["closest"]),
    ("Matrix Multiplication", [("R", 2, True)], []),
    ("Matrix Factorization", [("pq", 2, True)], []),
], ids=["PageRank", "KMeans", "Matrix Multiplication", "Matrix Factorization"])
def test_fuse_lowers_range_fills_and_small_joins(monkeypatch, name, fills, broadcast):
    # (destination, statements the fill stands for, fresh): 1 for a fill
    # alone, 2 for a fill and the update after it
    fused, plain = (list(statements(c)) for c in _both(monkeypatch, name))
    marked = [st for st in fused if getattr(st, "fill", None) is not None]
    assert [(st.name, 1 if st.plan is None else 2, st.fresh) for st in marked] == fills
    assert [st.name for st in fused if broadcasts(st)] == broadcast
    assert len(plain) - len(fused) == sum(n - 1 for _, n, _ in fills)
    assert not any(getattr(st, "fill", None) or broadcasts(st) for st in plain)


SCALARS = "var s: long = 0; var c: long = 0;"
ARRAYS = "var C: vector[long] = vector(); var D: vector[long] = vector();"
V = {0: 3, 1: -4, 2: 8, 3: 5, 4: 8}

# (id, source, inputs, extern types, outputs, the groups it must form)
CASES = [
    ("empty-scalars", SCALARS + "for v in V do { s += v; c += 1; };",
     {"V": {}}, {"V": VEC_L}, ["s", "c"], [["s", "c"]]),
    ("empty-arrays", ARRAYS + "for v in V do { C[v % 3] += v; D[v % 2] += 1; };",
     {"V": {}}, {"V": VEC_L}, ["C", "D"], [["C", "D"]]),
    ("all-false-scalar", SCALARS + "for v in V do { if (v > 100) s += v; c += 1; };",
     {"V": V}, {"V": VEC_L}, ["s", "c"], [["s", "c"]]),
    ("all-false-array",
     ARRAYS + "for v in V do { if (v > 100) C[v % 3] += v; if (v < 6) D[v % 2] += 1; };",
     {"V": V}, {"V": VEC_L}, ["C", "D"], [["C", "D"]]),
    ("own-conditions", SCALARS + "for v in V do { if (v > 4) s += v; if (v < 6) c += v; };",
     {"V": V}, {"V": VEC_L}, ["s", "c"], [["s", "c"]]),
    ("all-false-both", SCALARS + "for v in V do { if (v > 100) s += v; if (v < -100) c += 1; };",
     {"V": V}, {"V": VEC_L}, ["s", "c"], [["s", "c"]]),
    ("key-types-differ",
     "var N: map[long, long] = map(); var W: map[string, long] = map();"
     "for p in P do { N[p._1 % 2] += 1; W[p._2] += p._1; };",
     {"P": {0: (1, "a"), 1: (2, "b"), 2: (3, "a")}}, {"P": A.TArray(1, A.TTuple((L, S)))},
     ["N", "W"], [["N", "W"]]),
    ("not-fresh",
     "var D: vector[long] = vector(); for v in V do { C[v % 3] += v; D[v % 2] min= v; };",
     {"V": V, "C": {0: 10, 2: 20, 7: 70}}, {"V": VEC_L, "C": VEC_L}, ["C", "D"], [["C", "D"]]),
    ("in-while",
     SCALARS + ARRAYS + "var k: long = 0;"
     "while (k < 3) { k += 1; for v in V do {"
     " s += v * k; c += 1; C[v % 3] += v; D[v % 2] max= v * k; }; };",
     {"V": V}, {"V": VEC_L}, ["s", "c", "C", "D", "k"], [["s", "c"], ["C", "D"]]),
    ("shared-condition", SCALARS + "for v in V do if (v > 0) { s += v; c += 1; };",
     {"V": V}, {"V": VEC_L}, ["s", "c"], [["s", "c"]]),
    ("shared-join", SCALARS + "for i = 0, 4 do { s += V[i] * W[i]; c max= V[i] - W[i]; };",
     {"V": V, "W": {0: 1, 1: 2, 3: -3, 4: 7, 6: 9}}, {"V": VEC_L, "W": VEC_L}, ["s", "c"],
     [["s", "c"]]),
    ("names-differ", SCALARS + "for v in V do s += v; for w in V do c max= w;",
     {"V": V}, {"V": VEC_L}, ["s", "c"], [["s", "c"]]),
    ("reads-sibling", SCALARS + "for v in V do s += v; for v in V do c += v * s;",
     {"V": V}, {"V": VEC_L}, ["s", "c"], []),
]


@pytest.mark.parametrize("src,env,types,outs,want", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_grouped_programs_agree_on_three_engines(spark, src, env, types, outs, want):
    assert groups(compile_program(src, types).code) == want
    interp, seq, par = three_engines(spark, src, env, types)
    for o in outs:
        assert _same(seq[o], interp[o]), (o, seq[o], interp[o])
        assert _same(par[o], interp[o]), (o, par[o], interp[o])
