"""Sequential bulk backend (Table 2 "seq"): must agree with the literal
interpreter on every construct."""
import pytest

from repro.core.convert import approx_dict_equal
from repro.core.interp import interpret
from repro.core.pipeline import compile_program
from repro.core.seq_backend import run_program_seq
from repro.core import ast as A

VEC_D = A.TArray(1, A.TBasic("double"))
VEC_L = A.TArray(1, A.TBasic("long"))
MAT_D = A.TArray(2, A.TBasic("double"))


def run_both(src, env, types):
    compiled = compile_program(src, types)
    seq = run_program_seq(compiled, env)
    ref = interpret(src, env)
    return seq, ref


def test_total_sum():
    src = "var s: double = 0.0; for v in V do s += v;"
    seq, ref = run_both(src, {"V": {i: float(i) for i in range(50)}}, {"V": VEC_D})
    assert seq["s"] == ref["s"]


def test_filtered_sum():
    src = "var s: double = 0.0; for v in V do if (v < 10.0) s += v;"
    seq, ref = run_both(src, {"V": {i: float(i) for i in range(50)}}, {"V": VEC_D})
    assert seq["s"] == ref["s"]


def test_group_by_hash_join():
    src = "var C: vector[long] = vector(); for i = 0, 9 do C[K[i]] += V[i];"
    env = {
        "K": {i: i % 3 for i in range(10)},
        "V": {i: i for i in range(10)},
    }
    seq, ref = run_both(src, env, {"K": VEC_L, "V": VEC_L})
    assert seq["C"] == ref["C"]


def test_elementwise_join():
    src = "var R: vector[double] = vector(); for i = 0, 9 do R[i] := A[i] * B[i];"
    env = {
        "A": {i: float(i) for i in range(10)},
        "B": {i: float(i * 2) for i in range(10)},
    }
    seq, ref = run_both(src, env, {"A": VEC_D, "B": VEC_D})
    assert seq["R"] == ref["R"]


def test_matrix_multiply():
    src = """
    var R: matrix[double] = matrix();
    for i = 0, n-1 do
      for j = 0, n-1 do {
        R[i, j] := 0.0;
        for k = 0, n-1 do
          R[i, j] += M[i, k] * N[k, j];
      };
    """
    import random

    random.seed(1)
    n = 5
    env = {
        "M": {(i, j): random.random() for i in range(n) for j in range(n)},
        "N": {(i, j): random.random() for i in range(n) for j in range(n)},
        "n": n,
    }
    seq, ref = run_both(src, env, {"M": MAT_D, "N": MAT_D})
    assert approx_dict_equal(seq["R"], ref["R"])


def test_merge_prefers_new():
    src = "V[1] := 99.0;"
    seq, ref = run_both(src, {"V": {0: 1.0, 1: 2.0}}, {"V": VEC_D})
    assert seq["V"] == {0: 1.0, 1: 99.0} == ref["V"]


def test_while_scalar():
    src = "var k: long = 0; var s: long = 0; while (k < 4) { k += 1; s += k; };"
    seq, ref = run_both(src, {}, {})
    assert seq["k"] == ref["k"] == 4 and seq["s"] == ref["s"] == 10


def test_missing_lookup_skips():
    src = "var R: vector[double] = vector(); for i = 0, 5 do R[i] := W[i];"
    seq, ref = run_both(src, {"W": {0: 1.0, 3: 2.0}}, {"W": VEC_D})
    assert seq["R"] == ref["R"] == {0: 1.0, 3: 2.0}


def test_argmin_group():
    src = """
    var c: vector[(long, double)] = vector();
    for i = 0, 2 do
      for j = 0, 2 do
        c[i] argmin= (j, D[i, j]);
    """
    env = {"D": {(i, j): float((i * 3 + j * 7) % 5) for i in range(3) for j in range(3)}}
    seq, ref = run_both(src, env, {"D": MAT_D})
    assert seq["c"] == ref["c"]


def test_conditional_branch_false_keeps_value():
    src = "var x: long = 7; if (x > 100) x := 0;"
    seq, ref = run_both(src, {}, {})
    assert seq["x"] == ref["x"] == 7


def test_constant_index_increment_seq():
    src = "M[1, 2] += 1.0;"
    seq, ref = run_both(src, {"M": {(1, 2): 5.0}}, {"M": MAT_D})
    assert seq["M"] == ref["M"] == {(1, 2): 6.0}


def test_constant_index_increment_missing_seq():
    src = "M[0, 0] += 4.0;"
    seq, ref = run_both(src, {"M": {}}, {"M": MAT_D})
    assert seq["M"] == ref["M"] == {(0, 0): 4.0}


def test_while_condition_reads_array():
    # the condition is a one-row bag, not a generator-free scalar
    src = "var k: long = 0; while (V[0] > k) k += 1;"
    seq, ref = run_both(src, {"V": {0: 3, 1: 5}}, {"V": VEC_L})
    assert seq["k"] == ref["k"] == 3


def test_scalar_assignment_from_many_rows_fails():
    from repro.core.comprehension import Comp, Generator, PTuple, PVar, StateRef, Var
    from repro.core.plan import plan_code
    from repro.core.seq_backend import SeqError, run_code_seq
    from repro.core.translate import TAssign

    code = plan_code([TAssign("s", Comp(Var("v"), (
        Generator(PTuple((PVar("i"), PVar("v"))), StateRef("V")),
    )))])
    with pytest.raises(SeqError, match="more than one"):
        run_code_seq(code, {"V": {0: 1, 1: 2}, "s": 0}, {"V": VEC_L, "s": A.TBasic("long")})
