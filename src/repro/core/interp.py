"""Sequential reference interpreter for the loop language.

This is the ground truth for correctness tests (the paper's soundness
theorem says the translated DISC program must be equivalent to the
sequential loop program). It is not Table 2's "seq" side: that is
``seq_backend.run_program_seq``, which runs the translated program.

Arrays are Python dicts (sparse: key → value; a 1-D key is the bare
index, an n-D key the tuple of indexes). Reading an absent element
yields the ``MISSING`` sentinel. One rule, ``_strict``, gives it its
meaning: an expression, store or loop with a ``MISSING`` operand does
nothing and yields ``MISSING``, so the enclosing statement is a no-op —
exactly the empty-bag semantics of the translation. An incremental
update to an absent element starts from the ⊕-monoid identity, matching
the backend's outer lookup.

Statements compile once to Python closures (a tree-walking interpreter
would be ~10× slower).
"""
from __future__ import annotations

from . import ast as A
from .monoids import BIN, CALLS, IDENTITY, UN
from .parser import parse


class _MissingType:
    __slots__ = ()

    def __repr__(self):
        return "MISSING"


MISSING = _MissingType()

class InterpError(Exception):
    pass


def _strict(fn, subexprs):
    """Compile ``fn(sig, *values)`` over the compiled ``subexprs``,
    evaluated left to right: the first ``MISSING`` stops the evaluation
    and is the result. One and two operands, the common cases, build no
    list."""
    if len(subexprs) == 1:
        (f,) = subexprs

        def strict1(sig):
            a = f(sig)
            return a if a is MISSING else fn(sig, a)

        return strict1
    if len(subexprs) == 2:
        f, g = subexprs

        def strict2(sig):
            a = f(sig)
            if a is MISSING:
                return a
            b = g(sig)
            return b if b is MISSING else fn(sig, a, b)

        return strict2

    def strict(sig):
        vs = []
        for f in subexprs:
            v = f(sig)
            if v is MISSING:
                return v
            vs.append(v)
        return fn(sig, *vs)

    return strict


def _key(ks):
    """The dict key of an array element from its index values: a 1-D
    key is the bare index, an n-D key the tuple of indexes."""
    return ks[0] if len(ks) == 1 else ks


def _compile_expr(e):
    """Compile an expression to ``fn(sig) -> value | MISSING``."""
    if isinstance(e, A.EConst):
        v = e.value
        return lambda sig: v
    if isinstance(e, A.EVar):
        n = e.name
        return lambda sig: sig[n]
    if isinstance(e, A.EBin):
        op = BIN[e.op]
        fn, subs = (lambda sig, a, b: op(a, b)), (e.left, e.right)
    elif isinstance(e, A.EUn):
        op1 = UN[e.op]
        fn, subs = (lambda sig, v: op1(v)), (e.expr,)
    elif isinstance(e, A.EIndex):
        n = e.array
        fn, subs = (lambda sig, *ks: sig[n].get(_key(ks), MISSING)), e.indexes
    elif isinstance(e, A.EProj):
        # a tuple position ``_k`` is item k-1, a record field its name
        f = e.field.lstrip("_")
        i = int(f) - 1 if f.isdigit() else e.field
        fn, subs = (lambda sig, v: v[i]), (e.expr,)
    elif isinstance(e, A.ETuple):
        fn, subs = (lambda sig, *vs: vs), e.items
    elif isinstance(e, A.ECall):
        call = CALLS[e.fn]
        fn, subs = (lambda sig, *vs: call(*vs)), e.args
    else:
        raise InterpError(f"cannot compile expression {e!r}")
    return _strict(fn, [_compile_expr(x) for x in subs])


def _compile_store(dest, value, combine=None):
    """Compile ``dest := value`` (and ``var dest: t = value``), or
    ``dest ⊕= value`` when ``combine`` names the monoid ⊕: an absent
    current value reads as ⊕'s identity. The value is evaluated before
    the indexes."""
    if combine is None:

        def put(d, k, v):
            d[k] = v

    else:
        op, ident = BIN[combine], IDENTITY[combine]

        def put(d, k, v):
            d[k] = op(d.get(k, ident), v)

    fv = _compile_expr(value)
    if isinstance(dest, A.DVar):
        n = dest.name

        def store(sig, v):
            if isinstance(v, dict):  # sig[n] would alias the array
                raise InterpError(f"whole-array assignment to {n}: assign its elements in a for loop")
            put(sig, n, v)

        return _strict(store, [fv])
    n = dest.array

    def store_elem(sig, v, *ks):
        if isinstance(v, dict):  # an element would alias the array
            raise InterpError(f"array used as a value: stored into an element of {n}")
        put(sig[n], _key(ks), v)

    return _strict(store_elem, [fv, *map(_compile_expr, dest.indexes)])


def _compile_stmt(s):
    """Compile a statement to ``fn(sig)`` (mutates sig)."""
    if isinstance(s, A.SBlock):
        fs = [_compile_stmt(x) for x in s.stmts]

        def fblock(sig):
            for f in fs:
                f(sig)

        return fblock
    if isinstance(s, A.SDecl):
        if s.init is not None:
            return _compile_store(A.DVar(s.name), s.init)
        n = s.name

        def fempty(sig):
            sig[n] = {}

        return fempty
    if isinstance(s, A.SAssign):
        return _compile_store(s.dest, s.expr)
    if isinstance(s, A.SIncr):
        return _compile_store(s.dest, s.expr, s.monoid)
    if isinstance(s, (A.SFor, A.SForIn)):
        if isinstance(s, A.SFor):
            values = _strict(
                lambda sig, lo, hi: range(int(lo), int(hi) + 1),
                [_compile_expr(s.lo), _compile_expr(s.hi)],
            )
        else:
            values = _strict(lambda sig, c: list(c.values()), [_compile_expr(s.coll)])
        var, body = s.var, _compile_stmt(s.body)

        def loop(sig, vs):
            for v in vs:
                sig[var] = v
                body(sig)
            sig.pop(var, None)

        return _strict(loop, [values])
    if isinstance(s, A.SWhile):
        fc, body = _compile_expr(s.cond), _compile_stmt(s.body)

        def fwhile(sig):
            while (c := fc(sig)) is not MISSING and c:
                body(sig)

        return fwhile
    if isinstance(s, A.SIf):
        then = _compile_stmt(s.then)
        els = _compile_stmt(s.els) if s.els is not None else (lambda sig: None)
        return _strict(lambda sig, c: (then if c else els)(sig), [_compile_expr(s.cond)])
    raise InterpError(f"cannot compile statement {s!r}")


def interpret(src_or_ast, env: dict) -> dict:
    """Run the program (source text or AST) sequentially over ``env``
    (arrays: dicts keyed by int/str or index tuples; scalars: plain
    values). Returns the final state; the input dict is not mutated
    (arrays are shallow-copied)."""
    run = _compile_stmt(parse(src_or_ast) if isinstance(src_or_ast, str) else src_or_ast)
    sig = {k: (dict(v) if isinstance(v, dict) else v) for k, v in env.items()}
    run(sig)
    return sig
