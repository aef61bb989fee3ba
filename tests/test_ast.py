"""The loop-language AST's one expression walk."""
import dataclasses
from typing import get_args

import pytest

from repro.core import ast as A

EXPRS = get_args(A.Expr)
a, b, c = A.EVar("a"), A.EConst(1), A.EIndex("V", (A.EVar("i"),))
# one instance of every expression class, each with nested subexpressions
NODES = [
    a, b, c,
    A.EBin("+", c, A.EUn("-", a)),
    A.EUn("!", A.EBin("<", a, b)),
    A.EIndex("M", (A.EBin("+", a, b), c)),
    A.EProj(c, "_1"),
    A.ETuple((a, A.EProj(c, "x"), b)),
    A.ECall("pow", (c, A.ETuple((a, b)))),
]


def _preorder(e) -> list:
    """``e`` and the expressions in its fields, found by value, in
    preorder: what the walk must visit."""
    out = [e]
    for f in dataclasses.fields(e):
        v = getattr(e, f.name)
        for y in v if isinstance(v, tuple) else (v,):
            if isinstance(y, EXPRS):
                out.extend(_preorder(y))
    return out


def test_every_expression_class_has_fields():
    assert set(A.SUBEXPR_FIELDS) == set(EXPRS)


def test_nodes_cover_every_expression_class():
    assert {type(x) for x in NODES} == set(EXPRS)


@pytest.mark.parametrize("x", NODES, ids=lambda x: type(x).__name__)
def test_walk_visits_exactly_the_expression_fields(x):
    assert list(A.walk(x)) == _preorder(x)


@pytest.mark.parametrize(
    "x", [A.DVar("s"), A.SBlock([]), 3, A.EBin("+", a, A.DIndex("V", (a,)))],
    ids=["dest", "stmt", "int", "nested-dest"],
)
def test_walk_rejects_a_non_expression(x):
    with pytest.raises(TypeError):
        list(A.walk(x))
