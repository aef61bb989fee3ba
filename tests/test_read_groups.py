"""Reads of another assignment's groups on Spark (``plan.fuse_code``,
``Join.reads`` and ``TAssign.inside``): a join of a filled array
inside its fill reads the update's groups, a fill of an array that holds
no key outside it drops the rest of the array, and a join of a group-by
to its own source reads the groups that carry the source's element.
Each case runs on the interpreter, on seq and on Spark, with ``fuse`` on
and off, and checks which statements get which mark; the cases whose
guard fails check that none is set. Also: ``TInit``s that nothing reads
build no empty array (``plan.unread_inits``)."""
import pytest

from repro.core import ast as A
from repro.core.convert import df_to_dict, dict_to_df
from repro.core.interp import interpret
from repro.core.pipeline import compile_program, run_program
from repro.core.plan import Join
from repro.core.seq_backend import run_program_seq
from repro.core.translate import TAssign, TInit, statements
from tests.test_backend_sql import _same, sql_calls  # noqa: F401  (a fixture)
from tests.test_programs_e2e import same_schema

L, D, B = A.TBasic("long"), A.TBasic("double"), A.TBasic("bool")
MAT_B, MAT_D = A.TArray(2, B), A.TArray(2, D)
PAIR_D = A.TArray(1, A.TTuple((D, D)))
# edges out of 0, 1 and 3; none out of 2 or 4
E = {(0, 1): True, (1, 0): True, (1, 1): True, (3, 2): True, (0, 2): False}


def engines(spark, src, env, types):
    """The final environments of ``src`` on the interpreter, then on seq
    and Spark with ``fuse`` on and off, arrays as dicts."""
    outs = [interpret(src, env)]
    sp_env = {k: dict_to_df(spark, v, types[k]) if k in types else v for k, v in env.items()}
    for fuse in (True, False):
        comp = compile_program(src, types, fuse=fuse)
        outs.append(run_program_seq(comp, env))
        out = run_program(comp, sp_env, spark)
        for k, t in comp.types.items():
            if isinstance(t, A.TArray) and k in out:
                assert same_schema(out[k], t), (k, out[k].schema)
        outs.append({k: df_to_dict(v, comp.types[k].ndims) if isinstance(comp.types.get(k), A.TArray)
                     else v for k, v in out.items()})
    return outs


def marks(src, types, fuse=True):
    """``(name, inside, names of the assignments it reads)`` of each
    assignment that has a mark."""
    code = compile_program(src, types, fuse=fuse).code
    out = []
    for st in statements(code):
        if isinstance(st, TAssign):
            steps = st.plan.steps if st.plan is not None else ()
            reads = list(dict.fromkeys(j.reads.name for j in steps
                                       if isinstance(j, Join) and j.reads is not None))
            if st.inside or reads:
                out.append((st.name, st.inside, reads))
    return out


# the degrees C as PageRank fills and updates them, over 0..n, and X,
# which reads C at the rows of W as PageRank's P reads it at Q's
DEGREES = ("var C: vector[long] = vector(); for i = 0, n do C[i] := i * 10; "
           "for i = 0, n do for j = 0, 4 do if (E[i, j]) C[i] += 1; var X: vector[double] = vector(); ")
READ_C = "for i = 0, {hi} do for j = 0, 4 do X[j] += W[i, j] * C[i];"
# rows at 0, 1 and 3, which have edges; at 2 and 4, which have none; and at 5
W = {(0, 1): 1.0, (1, 1): 0.5, (2, 3): 2.0, (4, 0): 1.0, (5, 0): 3.0}
KMEANS = """
var closest: vector[(long, double)] = vector();
var avg: vector[(double, long)] = vector();
for i = 0, N-1 do {{
  for j = 0, K-1 do
    closest[i] argmin= (j, dist2(P[i], C[j]));
  {body}
}};
{after}
"""
POINTS = {0: (0.0, 0.0), 1: (1.0, 1.0), 2: (5.0, 5.0), 3: (6.0, 5.0), 7: (9.0, 9.0)}
CENTROIDS = {0: (0.0, 0.5), 1: (5.5, 5.0), 2: (100.0, 100.0)}
KM_ENV = {"P": POINTS, "C": CENTROIDS, "N": 4, "K": 3}
KM_TYPES = {"P": PAIR_D, "C": PAIR_D}

CASES = {
    # (R1) X reads C at 0..4, inside C's fill: C's groups LEFT JOIN, and
    # the fill's i * 10 where a key (2, 4) has no group
    "fill-groups": (
        DEGREES + READ_C.format(hi="n"), {"E": E, "W": W, "n": 4}, {"E": MAT_B, "W": MAT_D},
        {"X": {0: 40.0, 1: 7.0, 3: 40.0}, "C": {0: 1, 1: 12, 2: 20, 3: 31, 4: 40}},
        [("C", True, []), ("X", False, ["C"])]),
    # X reads C at 0..6, which is not inside the fill: C has no key 5
    "key-outside-fill": (
        DEGREES + READ_C.format(hi="n + 2"), {"E": E, "W": W, "n": 4}, {"E": MAT_B, "W": MAT_D},
        {"X": {0: 40.0, 1: 7.0, 3: 40.0}},
        [("C", True, [])]),
    # n, which the fill's bounds read, grows in the loop before X reads C:
    # C has no key 3 or 4, so X reads none there
    "bound-assigned-in-loop": (
        DEGREES + "var k: long = 0; while (k < 1) { k += 1; n := n + 2; "
        + READ_C.format(hi="n") + " };", {"E": E, "W": W, "n": 2}, {"E": MAT_B, "W": MAT_D},
        {"X": {1: 7.0, 3: 40.0}, "n": 4},
        []),
    # C[2] is assigned after the pair: X reads 5 there, not the fill's 20
    "assigned-after-the-pair": (
        DEGREES + "C[2] := 5; " + READ_C.format(hi="n"), {"E": E, "W": W, "n": 4},
        {"E": MAT_B, "W": MAT_D},
        {"X": {0: 40.0, 1: 7.0, 3: 10.0}, "C": {0: 1, 1: 12, 2: 5, 3: 31, 4: 40}},
        []),
    # C's pair is in a loop that runs no iteration: X reads the empty C
    "pair-in-a-loop-that-may-not-run": (
        "var C: vector[long] = vector(); var X: vector[double] = vector(); var k: long = 0; "
        "while (k < m) { k += 1; for i = 0, n do C[i] := i * 10; "
        "for i = 0, n do for j = 0, 4 do if (E[i, j]) C[i] += 1; }; " + READ_C.format(hi="n"),
        {"E": E, "W": W, "n": 4, "m": 0}, {"E": MAT_B, "W": MAT_D},
        {"X": {}, "C": {}},
        [("C", True, [])]),
    # C is initialised again in the loop after X reads it: in the second
    # iteration X reads the empty C, and adds nothing
    "init-again-in-a-loop": (
        DEGREES + "var k: long = 0; while (k < 2) { k += 1; " + READ_C.format(hi="n")
        + " var C: vector[long] = vector(); };", {"E": E, "W": W, "n": 4}, {"E": MAT_B, "W": MAT_D},
        {"X": {0: 40.0, 1: 7.0, 3: 40.0}},
        [("C", True, [])]),
    # (R2) P's fill in the loop drops "P outside 0..4": P never holds a key there
    "fill-inside": (
        "var P: vector[double] = vector(); for i = 0, 4 do P[i] := 1.0; var k: long = 0; "
        "while (k < 2) { k += 1; for i = 0, 4 do P[i] := 0.5; "
        "for i = 0, 4 do for j = 0, 4 do if (E[i, j]) P[j] += 1.0; };",
        {"E": E}, {"E": MAT_B},
        {"P": {0: 1.5, 1: 2.5, 2: 1.5, 3: 0.5, 4: 0.5}},
        [("P", True, []), ("P", True, [])]),
    # P[7] is written before the fill: the fill keeps it
    "key-written-outside": (
        "var P: vector[double] = vector(); P[7] := 3.0; for i = 0, 4 do P[i] := 0.5; "
        "for i = 0, 4 do for j = 0, 4 do if (E[i, j]) P[j] += 1.0;",
        {"E": E}, {"E": MAT_B},
        {"P": {0: 1.5, 1: 2.5, 2: 1.5, 3: 0.5, 4: 0.5, 7: 3.0}},
        []),
    # P is filled over 0..6, then over 0..4: the second fill keeps 5 and 6
    "fills-over-other-ranges": (
        "var P: vector[double] = vector(); for i = 0, 6 do P[i] := 1.0; for i = 0, 4 do P[i] := 0.5; "
        "for i = 0, 4 do for j = 0, 4 do if (E[i, j]) P[j] += 1.0;",
        {"E": E}, {"E": MAT_B},
        {"P": {0: 1.5, 1: 2.5, 2: 1.5, 3: 0.5, 4: 0.5, 5: 1.0, 6: 1.0}},
        []),
    # n shrinks in the loop: the second fill keeps the first's key 3
    "fill-bound-assigned-in-loop": (
        "var P: vector[double] = vector(); var k: long = 0; "
        "while (k < 2) { k += 1; n := n - 1; for i = 0, n do P[i] := 0.5; "
        "for i = 0, n do for j = 0, n do if (E[i, j]) P[j] += 1.0; };",
        {"E": E, "n": 4}, {"E": MAT_B},
        {"P": {0: 1.5, 1: 2.5, 2: 0.5, 3: 0.5}, "n": 2},
        []),
    # (R3) avg reads closest's groups, each carrying its point of P
    "carried": (
        KMEANS.format(body="avg[closest[i]._1] += (P[i]._1, 1);", after=""), KM_ENV, KM_TYPES,
        {"closest": {0: (0, 0.25), 1: (0, 1.25), 2: (1, 0.25), 3: (1, 0.25)},
         "avg": {0: (1.0, 2), 1: (11.0, 2)}},
        [("avg", False, ["closest"])]),
    # closest is an input, not fresh: its old (2, -1.0) at 0 beats every
    # candidate, which closest's groups alone do not know
    "group-by-not-fresh": (
        KMEANS.format(body="avg[closest[i]._1] += (P[i]._1, 1);", after="")
        .replace("var closest: vector[(long, double)] = vector();", ""),
        {**KM_ENV, "closest": {0: (2, -1.0)}}, {**KM_TYPES, "closest": A.TArray(1, A.TTuple((L, D)))},
        {"closest": {0: (2, -1.0), 1: (0, 1.25), 2: (1, 0.25), 3: (1, 0.25)},
         "avg": {0: (1.0, 1), 1: (11.0, 2), 2: (0.0, 1)}},
        []),
    # the carried element is a double, not a struct
    "carried-double": (
        "var best: vector[(long, double)] = vector(); var S: vector[double] = vector(); "
        "for i = 0, N-1 do { for j = 0, K-1 do best[i] argmin= (j, (V[i] - U[j]) * (V[i] - U[j])); "
        "S[best[i]._1] += V[i]; };",
        {"V": {0: 0.0, 1: 1.0, 2: 5.0, 3: 6.0, 9: 2.0}, "U": {0: 0.5, 1: 5.5}, "N": 4, "K": 2},
        {"V": A.TArray(1, D), "U": A.TArray(1, D)},
        {"S": {0: 1.0, 1: 11.0}},
        [("S", False, ["best"])]),
    # T reads closest again after avg: closest is still assigned
    "read-again-after": (
        KMEANS.format(body="avg[closest[i]._1] += (P[i]._1, 1); T[i] := closest[i]._1;", after="")
        .replace("var avg", "var T: vector[long] = vector(); var avg"), KM_ENV, KM_TYPES,
        {"T": {0: 0, 1: 0, 2: 1, 3: 1}, "avg": {0: (1.0, 2), 1: (11.0, 2)}},
        [("avg", False, ["closest"])]),
    # closest is grouped by N - 1 - i, not by P's key: each group holds
    # another point than the one avg joins it to
    "group-by-of-another-key": (
        KMEANS.format(body="", after="for i = 0, N-1 do avg[closest[i]._1] += (P[i]._1, 1);")
        .replace("closest[i] argmin=", "closest[N - 1 - i] argmin="), KM_ENV, KM_TYPES,
        {"closest": {0: (1, 0.25), 1: (1, 0.25), 2: (0, 1.25), 3: (0, 0.25)},
         "avg": {0: (11.0, 2), 1: (1.0, 2)}},
        []),
    # avg joins closest at i + 1, not at P's key: no groups to carry
    "joined-on-another-key": (
        KMEANS.format(body="", after="for i = 0, N-2 do avg[closest[i + 1]._1] += (P[i]._1, 1);"),
        KM_ENV, KM_TYPES, {"avg": {0: (0.0, 1), 1: (6.0, 2)}},
        []),
}


@pytest.mark.parametrize("case", CASES)
def test_reads_of_groups_agree(spark, case):
    src, env, types, want, marked = CASES[case]
    assert marks(src, types) == marked
    assert marks(src, types, fuse=False) == []
    for out in engines(spark, src, env, types):
        for k, v in want.items():
            assert _same(out[k], v), (k, out[k])


# --------------------------------------------------------- unread inits
def _inits(src, types, fuse=True):
    code = compile_program(src, types, fuse=fuse).code
    return [(st.name, st.unread) for st in statements(code) if isinstance(st, TInit)]


@pytest.mark.parametrize("fuse", [True, False])
def test_unread_inits_run_no_query(spark, sql_calls, fuse):  # noqa: F811
    src, env, types, want, _ = CASES["fill-groups"]
    assert _inits(src, types, fuse) == [("C", True), ("X", True)]
    sp_env = {k: dict_to_df(spark, v, types[k]) if k in types else v for k, v in env.items()}
    sql_calls.clear()
    out = run_program(compile_program(src, types, fuse=fuse), sp_env, spark)
    assert not any("LIMIT 0" in q for q in sql_calls)
    assert df_to_dict(out["X"], 1) == want["X"]


@pytest.mark.parametrize("src,env,inits,want", [
    # read before its fresh assignment: built
    ("var X: vector[double] = vector(); var s: double = 0.0; for v in X do s += v; X[0] := 1.0;",
     {}, [("X", False)], {"X": {0: 1.0}, "s": 0.0}),
    # the fresh assignment reads X other than by its lookup: built
    ("var X: vector[double] = vector(); X[0] := X[1] + 1.0;", {}, [("X", False)], {"X": {}}),
    # never assigned: the output keeps its empty, typed array
    ("var X: vector[double] = vector();", {}, [("X", False)], {"X": {}}),
    # X ⊲ ∅ = X with no X built: still the empty array
    ("var X: vector[double] = vector(); if (n > 5) X[0] := 1.0;", {"n": 1}, [("X", True)], {"X": {}}),
    # the same in a loop: the second iteration's X is empty again, not
    # the first's
    ("var k: long = 0; while (k < 2) { k += 1; var X: vector[double] = vector(); "
     "if (k < 2) X[0] := 1.0; };", {}, [("X", True)], {"X": {}}),
    # a fresh update (rule 15a) reads X only by its lookup, in a loop
    ("var k: long = 0; while (k < 2) { k += 1; var X: vector[long] = vector(); "
     "for v in V do X[v] += k; };", {"V": {0: 1, 1: 1, 2: 3}}, [("X", True)], {"X": {1: 4, 3: 2}}),
], ids=["read-first", "reads-itself", "never-assigned", "empty-bag", "empty-bag-in-loop",
        "update-in-loop"])
def test_unread_inits_agree(spark, src, env, inits, want):
    types = {"V": A.TArray(1, L)} if "V" in env else {}
    assert _inits(src, types) == inits
    for out in engines(spark, src, env, types):
        for k, v in want.items():
            assert _same(out[k], v), (k, out[k])
