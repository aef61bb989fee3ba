"""Sequential reference interpreter for the loop language.

This is the ground truth for correctness tests (the paper's soundness
theorem says the translated DISC program must be equivalent to the
sequential loop program). It is not Table 2's "seq" side: that is
``seq_backend.run_program_seq``, which runs the translated program.

Arrays are Python dicts (sparse: key → value; multi-dimensional keys
are tuples). Reading an absent element yields the ``MISSING`` sentinel,
which propagates through expressions and makes the enclosing statement
a no-op — exactly the empty-bag semantics of the translation. An
incremental update to an absent element starts from the ⊕-monoid
identity, matching the backend's outer lookup.

Statements compile once to Python closures (a tree-walking interpreter
would be ~10× slower).
"""
from __future__ import annotations

from . import ast as A
from .monoids import BIN, CALLS, IDENTITY


class _MissingType:
    __slots__ = ()

    def __repr__(self):
        return "MISSING"


MISSING = _MissingType()

class InterpError(Exception):
    pass


def _compile_expr(e):
    """Compile an expression to ``fn(sig) -> value | MISSING``."""
    if isinstance(e, A.EConst):
        v = e.value
        return lambda sig: v
    if isinstance(e, A.EVar):
        n = e.name
        return lambda sig: sig[n]
    if isinstance(e, A.EBin):
        f, g, op = _compile_expr(e.left), _compile_expr(e.right), BIN[e.op]

        def fbin(sig):
            a = f(sig)
            if a is MISSING:
                return MISSING
            b = g(sig)
            if b is MISSING:
                return MISSING
            return op(a, b)

        return fbin
    if isinstance(e, A.EUn):
        f = _compile_expr(e.expr)
        if e.op == "-":
            return lambda sig: MISSING if (v := f(sig)) is MISSING else -v
        return lambda sig: MISSING if (v := f(sig)) is MISSING else (not v)
    if isinstance(e, A.EIndex):
        n = e.array
        fs = [_compile_expr(x) for x in e.indexes]
        if len(fs) == 1:
            f0 = fs[0]

            def fidx1(sig):
                k = f0(sig)
                if k is MISSING:
                    return MISSING
                return sig[n].get(k, MISSING)

            return fidx1

        def fidxn(sig):
            ks = tuple(f(sig) for f in fs)
            if any(k is MISSING for k in ks):
                return MISSING
            return sig[n].get(ks, MISSING)

        return fidxn
    if isinstance(e, A.EProj):
        f = _compile_expr(e.expr)
        fld = e.field
        if fld.lstrip("_").isdigit():
            i = int(fld.lstrip("_")) - 1
            return lambda sig: MISSING if (v := f(sig)) is MISSING else v[i]
        return lambda sig: MISSING if (v := f(sig)) is MISSING else v[fld]
    if isinstance(e, A.ETuple):
        fs = [_compile_expr(x) for x in e.items]

        def ftup(sig):
            vs = tuple(f(sig) for f in fs)
            if any(v is MISSING for v in vs):
                return MISSING
            return vs

        return ftup
    if isinstance(e, A.ECall):
        fs = [_compile_expr(x) for x in e.args]
        fn = CALLS[e.fn]

        def fcall(sig):
            vs = [f(sig) for f in fs]
            if any(v is MISSING for v in vs):
                return MISSING
            return fn(*vs)

        return fcall
    raise InterpError(f"cannot compile expression {e!r}")


def _compile_stmt(s):
    """Compile a statement to ``fn(sig) -> None`` (mutates sig)."""
    if isinstance(s, A.SBlock):
        fs = [_compile_stmt(x) for x in s.stmts]

        def fblock(sig):
            for f in fs:
                f(sig)

        return fblock
    if isinstance(s, A.SDecl):
        n = s.name
        if s.init is None:

            def fdecl0(sig):
                sig[n] = {}

            return fdecl0
        f = _compile_expr(s.init)

        def fdecl(sig):
            v = f(sig)
            if v is not MISSING:
                sig[n] = v

        return fdecl
    if isinstance(s, A.SAssign):
        f = _compile_expr(s.expr)
        if isinstance(s.dest, A.DVar):
            n = s.dest.name

            def fassignv(sig):
                v = f(sig)
                if v is not MISSING:
                    sig[n] = v

            return fassignv
        n = s.dest.array
        ks = [_compile_expr(x) for x in s.dest.indexes]

        def fassigna(sig):
            v = f(sig)
            if v is MISSING:
                return
            key = tuple(k(sig) for k in ks)
            if any(k is MISSING for k in key):
                return
            sig[n][key if len(key) > 1 else key[0]] = v

        return fassigna
    if isinstance(s, A.SIncr):
        f = _compile_expr(s.expr)
        op = BIN[s.monoid]
        ident = IDENTITY[s.monoid]
        if isinstance(s.dest, A.DVar):
            n = s.dest.name

            def fincrv(sig):
                v = f(sig)
                if v is MISSING:
                    return
                cur = sig.get(n, MISSING)
                if cur is MISSING:
                    cur = ident
                sig[n] = op(cur, v)

            return fincrv
        n = s.dest.array
        ks = [_compile_expr(x) for x in s.dest.indexes]

        def fincra(sig):
            v = f(sig)
            if v is MISSING:
                return
            key = tuple(k(sig) for k in ks)
            if any(k is MISSING for k in key):
                return
            key = key if len(key) > 1 else key[0]
            arr = sig[n]
            cur = arr.get(key, MISSING)
            if cur is MISSING:
                cur = ident
            arr[key] = op(cur, v)

        return fincra
    if isinstance(s, A.SFor):
        flo, fhi = _compile_expr(s.lo), _compile_expr(s.hi)
        fb = _compile_stmt(s.body)
        var = s.var

        def ffor(sig):
            lo, hi = flo(sig), fhi(sig)
            if lo is MISSING or hi is MISSING:
                return
            for v in range(int(lo), int(hi) + 1):
                sig[var] = v
                fb(sig)
            sig.pop(var, None)

        return ffor
    if isinstance(s, A.SForIn):
        fc = _compile_expr(s.coll)
        fb = _compile_stmt(s.body)
        var = s.var

        def fforin(sig):
            coll = fc(sig)
            if coll is MISSING:
                return
            for v in list(coll.values()):
                sig[var] = v
                fb(sig)
            sig.pop(var, None)

        return fforin
    if isinstance(s, A.SWhile):
        fc = _compile_expr(s.cond)
        fb = _compile_stmt(s.body)

        def fwhile(sig):
            while True:
                c = fc(sig)
                if c is MISSING or not c:
                    return
                fb(sig)

        return fwhile
    if isinstance(s, A.SIf):
        fc = _compile_expr(s.cond)
        ft = _compile_stmt(s.then)
        fe = _compile_stmt(s.els) if s.els is not None else None

        def fif(sig):
            c = fc(sig)
            if c is MISSING:
                return
            if c:
                ft(sig)
            elif fe is not None:
                fe(sig)

        return fif
    raise InterpError(f"cannot compile statement {s!r}")


def compile_interp(src_or_ast):
    """Compile a program (source text or AST) to an executable closure."""
    from .parser import parse

    ast = parse(src_or_ast) if isinstance(src_or_ast, str) else src_or_ast
    return _compile_stmt(ast)


def interpret(src_or_ast, env: dict) -> dict:
    """Run the program sequentially over ``env`` (arrays: dicts keyed by
    int/str or index tuples; scalars: plain values). Returns the final
    state; the input dict is not mutated (arrays are shallow-copied)."""
    fn = compile_interp(src_or_ast)
    sig = {k: (dict(v) if isinstance(v, dict) else v) for k, v in env.items()}
    fn(sig)
    return sig
