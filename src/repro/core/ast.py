"""AST for the loop-based source language (paper Figure 1).

The language is the paper's proof-of-concept imperative language:
destinations (L-values), expressions, and statements. Types are parsed
and kept only to the extent needed to build empty Spark DataFrames with
the right schema (array arity + element type).

Monoids for incremental updates ``d ⊕= e`` are named by strings:
``"+"``, ``"*"``, ``"min"``, ``"max"``, ``"&&"``, ``"||"``, and
``"argmin"`` (pairs ``(index, score)`` combined by smaller score).
Tuple values combine componentwise under ``"+"`` (the paper's ``Avg``
monoid is a componentwise sum of ``(sum_x, sum_y, count)``).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


# ---------------------------------------------------------------- types
@dataclass(frozen=True)
class TBasic:
    """Basic scalar type: ``long``, ``double``, ``string``, ``bool``."""

    name: str


@dataclass(frozen=True)
class TTuple:
    """Tuple type ``(t1, ..., tn)``; stored as a Spark struct ``_1.._n``."""

    items: tuple


@dataclass(frozen=True)
class TRecord:
    """Record type ``<A1: t1, ..., An: tn>``; stored as a Spark struct."""

    fields: tuple  # of (name, Type)


@dataclass(frozen=True)
class TArray:
    """Array type: ``vector[T]`` (1 index), ``matrix[T]`` (2 indexes),
    ``map[K, T]`` (1 index of type K)."""

    ndims: int
    elem: "Type"
    key: "Type" = TBasic("long")


Type = Union[TBasic, TTuple, TRecord, TArray]


# ---------------------------------------------------------- expressions
@dataclass(frozen=True)
class EVar:
    """Variable reference (loop index, bound pattern var, or state var)."""

    name: str


@dataclass(frozen=True)
class EConst:
    """Literal constant (int, float, str, bool)."""

    value: object


@dataclass(frozen=True)
class EBin:
    """Binary operation ``e1 op e2`` (arithmetic, comparison, boolean)."""

    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class EUn:
    """Unary operation: ``-e`` or ``!e``."""

    op: str
    expr: "Expr"


@dataclass(frozen=True)
class EIndex:
    """Array indexing ``V[e1, ..., en]`` over a named array."""

    array: str
    indexes: tuple


@dataclass(frozen=True)
class EProj:
    """Projection ``e.A`` (record field) or ``e._k`` (tuple position)."""

    expr: "Expr"
    field: str


@dataclass(frozen=True)
class ETuple:
    """Tuple construction ``(e1, ..., en)``."""

    items: tuple


@dataclass(frozen=True)
class ECall:
    """Builtin call, e.g. ``sqrt(e)``, ``abs(e)``, ``pow(e1, e2)``."""

    fn: str
    args: tuple


Expr = Union[EVar, EConst, EBin, EUn, EIndex, EProj, ETuple, ECall]

# The fields of each expression class that hold subexpressions (one, or
# a tuple of them): the only code that knows them.
SUBEXPR_FIELDS = {
    EVar: (),
    EConst: (),
    EBin: ("left", "right"),
    EUn: ("expr",),
    EIndex: ("indexes",),
    EProj: ("expr",),
    ETuple: ("items",),
    ECall: ("args",),
}


def walk(e):
    """``e`` and all its subexpressions, in preorder."""
    fields = SUBEXPR_FIELDS.get(type(e))
    if fields is None:
        raise TypeError(f"not an expression: {e!r}")
    yield e
    for f in fields:
        v = getattr(e, f)
        for x in v if isinstance(v, tuple) else (v,):
            yield from walk(x)


# --------------------------------------------------------- destinations
@dataclass(frozen=True)
class DVar:
    """Scalar variable destination."""

    name: str


@dataclass(frozen=True)
class DIndex:
    """Array element destination ``V[e1, ..., en]``."""

    array: str
    indexes: tuple


Dest = Union[DVar, DIndex]


# ----------------------------------------------------------- statements
@dataclass
class SDecl:
    """``var v: t = e`` — declaration (not allowed inside for-loops)."""

    name: str
    type: Type
    init: Optional[Expr]  # None for empty-array initializers vector()/map()


@dataclass
class SAssign:
    """Non-incremental update ``d := e``."""

    dest: Dest
    expr: Expr


@dataclass
class SIncr:
    """Incremental update ``d ⊕= e`` for a commutative monoid ⊕."""

    dest: Dest
    monoid: str
    expr: Expr


@dataclass
class SFor:
    """``for v = e1, e2 do s`` — iterate v over the inclusive int range."""

    var: str
    lo: Expr
    hi: Expr
    body: "Stmt"


@dataclass
class SForIn:
    """``for v in e do s`` — iterate v over the values of a collection."""

    var: str
    coll: Expr
    body: "Stmt"


@dataclass
class SWhile:
    """``while (e) s`` — sequential loop (not parallelized)."""

    cond: Expr
    body: "Stmt"


@dataclass
class SIf:
    """``if (e) s1 [else s2]``."""

    cond: Expr
    then: "Stmt"
    els: Optional["Stmt"] = None


@dataclass
class SBlock:
    """``{ s1; ...; sn }``."""

    stmts: list = field(default_factory=list)


Stmt = Union[SDecl, SAssign, SIncr, SFor, SForIn, SWhile, SIf, SBlock]


def block(stmts) -> SBlock:
    """Build a block, flattening nested blocks for convenience."""
    out = []
    for s in stmts:
        if isinstance(s, SBlock):
            out.extend(s.stmts)
        else:
            out.append(s)
    return SBlock(out)
