"""Static restrictions for parallelization (paper Definition 3.1).

For every top-level for-loop nest we compute, per elementary statement,
the readers R[s], writers W[s], and aggregators A[s] (sets of L-values),
plus ``context(s)`` (enclosing loop indexes) and ``indexes(d)`` (loop
indexes used in a destination), and check:

1. every non-incremental update destination is *affine*: its array
   indexes are affine expressions of loop indexes and cover all indexes
   in ``context(s)`` (a scalar destination is affine only outside loops);
2. no overlapping (A∪W)[s1] / R[s2] pair exists, except
   (a) writes read later at the *same* location, or
   (b) increments read later at the same location when
       ``context(s1) ∩ context(s2) = indexes(d)`` and the read site is
       affine.

The paper's negative examples (``V[i] := V[i-1] + V[i+1]``, the scalar
temporary ``n := V[i]``, bubble-sort swaps) are all rejected here.
"""
from __future__ import annotations

from dataclasses import dataclass

from .ast import (
    DIndex,
    DVar,
    EBin,
    EConst,
    EIndex,
    EUn,
    EVar,
    SAssign,
    SBlock,
    SDecl,
    SFor,
    SForIn,
    SIf,
    SIncr,
    SWhile,
    walk,
)


class RestrictionError(Exception):
    """The program violates Definition 3.1 and cannot be parallelized."""


@dataclass
class _Elem:
    """An elementary (assignment) statement inside a for-loop nest."""

    pos: int
    stmt: object
    context: frozenset  # enclosing loop-index names
    readers: list  # of Dest
    writers: list
    aggregators: list


def _expr_readers(e, iter_vars: set, out: list) -> None:
    """Collect L-values read by expression ``e``.

    ``iter_vars`` are iteration-bound names (loop indexes and for-in
    element variables) — these are not L-values.
    """
    for x in walk(e):
        if isinstance(x, EVar) and x.name not in iter_vars:
            out.append(DVar(x.name))
        elif isinstance(x, EIndex):
            out.append(DIndex(x.array, x.indexes))


def _affine_expr(e, loop_indexes: set):
    """Return the set of loop indexes used by affine expression ``e``
    (``c0 + c1*i1 + ... + ck*ik``), or None if ``e`` is not affine.

    State scalars not written in the loop act as symbolic constants.
    """
    if isinstance(e, EConst):
        return set()
    if isinstance(e, EVar):
        return {e.name} if e.name in loop_indexes else set()
    if isinstance(e, EUn) and e.op == "-":
        return _affine_expr(e.expr, loop_indexes)
    if isinstance(e, EBin) and e.op in ("+", "-"):
        a = _affine_expr(e.left, loop_indexes)
        b = _affine_expr(e.right, loop_indexes)
        return None if a is None or b is None else a | b
    if isinstance(e, EBin) and e.op == "*":
        a = _affine_expr(e.left, loop_indexes)
        b = _affine_expr(e.right, loop_indexes)
        if a is None or b is None:
            return None
        # affine requires one side free of loop indexes
        if not a or not b:
            return a | b
        return None
    return None


def _dest_loop_indexes(d, loop_indexes: set) -> set:
    """``indexes(d)``: loop indexes appearing anywhere in ``d``."""
    if isinstance(d, DVar):
        return set()
    return {
        x.name for ix in d.indexes for x in walk(ix)
        if isinstance(x, EVar) and x.name in loop_indexes
    }


def _affine_dest(d, context: frozenset, loop_indexes: set) -> bool:
    """``affine(d, s)`` from the paper."""
    if isinstance(d, DVar):
        return not context
    if any(_affine_expr(x, loop_indexes) is None for x in d.indexes):
        return False
    return set(context) <= _dest_loop_indexes(d, loop_indexes)


def _overlap(d1, d2) -> bool:
    if isinstance(d1, DVar) and isinstance(d2, DVar):
        return d1.name == d2.name
    if isinstance(d1, DIndex) and isinstance(d2, DIndex):
        return d1.array == d2.array
    return False


def _collect(stmt, context, iter_vars, elems, counter) -> None:
    """Flatten a for-loop body into elementary statements with contexts."""
    if isinstance(stmt, SBlock):
        for s in stmt.stmts:
            _collect(s, context, iter_vars, elems, counter)
    elif isinstance(stmt, SFor):
        if stmt.var in iter_vars:
            raise RestrictionError(
                f"duplicate loop index {stmt.var!r}; loop indexes must be distinct"
            )
        _collect(
            stmt.body,
            context | {stmt.var},
            iter_vars | {stmt.var},
            elems,
            counter,
        )
    elif isinstance(stmt, SForIn):
        # for-in introduces an implicit positional index; the element
        # variable itself is iteration-bound.
        idx = f"#{stmt.var}"
        _collect(
            stmt.body,
            context | {idx},
            iter_vars | {idx, stmt.var},
            elems,
            counter,
        )
    elif isinstance(stmt, SIf):
        readers: list = []
        _expr_readers(stmt.cond, iter_vars, readers)
        # condition reads take part in both branches' dependence checks
        for br in (stmt.then, stmt.els):
            if br is not None:
                start = len(elems)
                _collect(br, context, iter_vars, elems, counter)
                for el in elems[start:]:
                    el.readers.extend(readers)
    elif isinstance(stmt, SWhile):
        raise RestrictionError(
            "while-loop inside a for-loop: the for-loop would become "
            "sequential; not supported by this reproduction"
        )
    elif isinstance(stmt, SDecl):
        raise RestrictionError(
            f"declaration of {stmt.name!r} inside a for-loop is not allowed"
        )
    elif isinstance(stmt, (SAssign, SIncr)):
        readers: list = []
        if isinstance(stmt.dest, DIndex):
            for x in stmt.dest.indexes:
                _expr_readers(x, iter_vars, readers)
        _expr_readers(stmt.expr, iter_vars, readers)
        el = _Elem(counter[0], stmt, frozenset(context), readers, [], [])
        counter[0] += 1
        if isinstance(stmt, SAssign):
            el.writers.append(stmt.dest)
        else:
            el.aggregators.append(stmt.dest)
        elems.append(el)
    else:
        raise TypeError(f"unknown statement {stmt!r}")


def check_loop(loop) -> None:
    """Check one top-level for-loop nest against Definition 3.1."""
    elems: list = []
    _collect(loop, frozenset(), set(), elems, [0])
    loop_indexes = set().union(*[set(e.context) for e in elems]) if elems else set()

    # Restriction 1: non-incremental destinations must be affine.
    for el in elems:
        for d in el.writers:
            if not _affine_dest(d, el.context, loop_indexes):
                raise RestrictionError(
                    f"destination {_show_dest(d)} of a non-incremental update "
                    f"is not affine in context {sorted(el.context)} "
                    "(its indexes must be affine and cover all enclosing "
                    "loop indexes)"
                )

    # Restriction 2 with exceptions (a) and (b).
    for s1 in elems:
        for s2 in elems:
            for d1 in s1.writers + s1.aggregators:
                for d2 in s2.readers:
                    if not _overlap(d1, d2):
                        continue
                    if d1 in s1.writers:
                        if d1 == d2 and s1.pos < s2.pos:
                            continue  # exception (a)
                    else:  # aggregator
                        if (
                            d1 == d2
                            and s1.pos < s2.pos
                            and _affine_dest(d2, s2.context, loop_indexes)
                            and set(s1.context) & set(s2.context)
                            == _dest_loop_indexes(d1, loop_indexes)
                        ):
                            continue  # exception (b)
                    kind = "written" if d1 in s1.writers else "incremented"
                    raise RestrictionError(
                        f"{_show_dest(d1)} is {kind} and {_show_dest(d2)} is "
                        "read in the same loop; no exception of Definition "
                        "3.1 applies"
                    )


def _show_dest(d) -> str:
    if isinstance(d, DVar):
        return d.name
    return f"{d.array}[...{len(d.indexes)} indexes]"


def check_program(program: SBlock) -> None:
    """Check all for-loop nests of a program (recursing through
    sequential constructs: blocks, while-loops, top-level ifs)."""

    def visit(stmt):
        if isinstance(stmt, SBlock):
            for s in stmt.stmts:
                visit(s)
        elif isinstance(stmt, (SFor, SForIn)):
            check_loop(stmt)
        elif isinstance(stmt, SWhile):
            visit(stmt.body)
        elif isinstance(stmt, SIf):
            visit(stmt.then)
            if stmt.els is not None:
                visit(stmt.els)
        # declarations and plain assignments at sequential level are fine

    visit(program)
