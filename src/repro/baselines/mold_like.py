"""MOLD-like baseline translator (paper [37], Table 1 comparison).

MOLD translates imperative loops to MapReduce by *searching*: a rewrite
system transforms the AST step by step and a library of code templates
is matched against every intermediate state; the search is guided by
heuristics and the translator is only as strong as its template
library. (The DIABLO authors could not run MOLD either — its Table 1
column is copied from the MOLD paper — so this reproduction rebuilds
the *mechanism*: backtracking search over rewrites × templates, with a
library covering the program shapes MOLD handled, and failure when no
template matches, notably PageRank and Matrix Factorization, which the
paper singles out as untranslatable by MOLD.)

The output is a Spark pseudo-program (a string); the deliverable of
this baseline is its *compile-time behaviour*, which Table 1 measures.
"""
from __future__ import annotations

from repro.core import ast as A
from repro.core.parser import parse


class MoldFail(Exception):
    """No template matched any reachable rewrite of the program."""


# ----------------------------------------------------------- rewrites
def _fission(stmt):
    """Loop fission: for i do {s1; s2} → [for i do s1; for i do s2];
    applied recursively so nested blocks eventually surface."""
    if isinstance(stmt, A.SFor) and isinstance(stmt.body, A.SBlock) and len(stmt.body.stmts) > 1:
        return [
            A.SFor(stmt.var, stmt.lo, stmt.hi, s) for s in stmt.body.stmts
        ]
    if isinstance(stmt, A.SForIn) and isinstance(stmt.body, A.SBlock) and len(stmt.body.stmts) > 1:
        return [A.SForIn(stmt.var, stmt.coll, s) for s in stmt.body.stmts]
    if isinstance(stmt, (A.SFor, A.SForIn)):
        sub = _fission(stmt.body)
        if sub is not None:
            if isinstance(stmt, A.SFor):
                return [A.SFor(stmt.var, stmt.lo, stmt.hi, s) for s in sub]
            return [A.SForIn(stmt.var, stmt.coll, s) for s in sub]
    if isinstance(stmt, A.SBlock) and len(stmt.stmts) == 1:
        return _fission(stmt.stmts[0])
    return None


def _if_split(stmt):
    """Push a loop into both branches of a conditional body."""
    body = getattr(stmt, "body", None)
    if isinstance(stmt, (A.SFor, A.SForIn)) and isinstance(body, A.SIf) and body.els:
        mk = (
            (lambda b: A.SFor(stmt.var, stmt.lo, stmt.hi, b))
            if isinstance(stmt, A.SFor)
            else (lambda b: A.SForIn(stmt.var, stmt.coll, b))
        )
        return [mk(A.SIf(body.cond, body.then, None)),
                mk(A.SIf(A.EUn("!", body.cond), body.els, None))]
    return None


_REWRITES = (_fission, _if_split)


def _states(stmts, max_states):
    """BFS over statement-list rewrites (the 'search' part of MOLD)."""
    seen, frontier, explored = set(), [tuple(stmts)], 0
    while frontier:
        state = frontier.pop(0)
        key = repr(state)
        if key in seen:
            continue
        seen.add(key)
        explored += 1
        if explored > max_states:
            return
        yield state
        for i, s in enumerate(state):
            for rw in _REWRITES:
                out = rw(s)
                if out is not None:
                    frontier.append(state[:i] + tuple(out) + state[i + 1:])


# ----------------------------------------------------------- templates
def _flat_body(stmt):
    """Peel a single-statement body, keeping at most one guard."""
    guard = None
    while True:
        if isinstance(stmt, A.SBlock):
            if len(stmt.stmts) != 1:
                return None, None
            stmt = stmt.stmts[0]
        elif isinstance(stmt, A.SIf) and stmt.els is None:
            if guard is not None:
                return None, None
            guard, stmt = stmt.cond, stmt.then
        else:
            return guard, stmt


def _reads_only(expr):
    """True if expr reads no arrays: only the loop variable and scalar
    state (which MOLD treats as broadcast values) may appear."""
    return not any(isinstance(x, A.EIndex) for x in A.walk(expr))


def _t_scalar_fold(stmt):
    """for v in V do [if (p)] s ⊕= f(v)  →  filter/map/reduce."""
    if not isinstance(stmt, A.SForIn):
        return None
    guard, body = _flat_body(stmt.body)
    if not (isinstance(body, A.SIncr) and isinstance(body.dest, A.DVar)):
        return None
    if not _reads_only(body.expr):
        return None
    if guard is not None and not _reads_only(guard):
        return None
    pred = f".filter({stmt.var} => <pred>)" if guard is not None else ""
    return (
        f"{body.dest.name} = {_coll(stmt)}{pred}"
        f".map({stmt.var} => <f>).reduce(_{body.monoid}_)"
    )


def _t_keyed_fold(stmt):
    """for v in V do [if (p)] C[k(v)] ⊕= g(v)  →  map/reduceByKey."""
    if not isinstance(stmt, A.SForIn):
        return None
    guard, body = _flat_body(stmt.body)
    if not (isinstance(body, A.SIncr) and isinstance(body.dest, A.DIndex)):
        return None
    if not all(_reads_only(ix) for ix in body.dest.indexes):
        return None
    if not _reads_only(body.expr):
        return None
    return (
        f"{body.dest.array} = {_coll(stmt)}.map({stmt.var} => (<key>, <val>))"
        f".reduceByKey(_{body.monoid}_)"
    )


def _nest(stmt):
    """Unpack a perfect for-range nest; returns (indexes, innermost)."""
    idx = []
    while isinstance(stmt, A.SFor):
        idx.append(stmt.var)
        g, inner = _flat_body(stmt.body)
        if g is not None:
            return idx, A.SIf(g, inner, None)
        stmt = inner
        if stmt is None:
            return idx, None
    return idx, stmt


def _t_dense_map(stmt):
    """Range nest with an affine write whose reads are indexed by loop
    variables only  →  join/map."""
    idx, inner = _nest(stmt)
    if not idx or not isinstance(inner, A.SAssign):
        return None
    if not isinstance(inner.dest, A.DIndex):
        return None
    reads = [x for x in A.walk(inner.expr) if isinstance(x, A.EIndex)]
    for r in reads:
        for ix in r.indexes:
            if not isinstance(ix, A.EVar) or ix.name not in idx:
                return None
    arrays = sorted({r.array for r in reads})
    if not arrays:  # pure initialization, e.g. R[i,j] := 0
        return f"{inner.dest.array} = range({'*'.join(idx)}).map(<f>)"
    return (
        f"{inner.dest.array} = "
        + ".join(".join(arrays)
        + ")" * (len(arrays) - 1)
        + ".map(<f>)"
    )


def _t_matmul(stmt):
    """The exact MOLD matrix-multiplication template."""
    idx, inner = _nest(stmt)
    if len(idx) != 3 or not isinstance(inner, A.SIncr) or inner.monoid != "+":
        return None
    if not isinstance(inner.dest, A.DIndex) or len(inner.dest.indexes) != 2:
        return None
    e = inner.expr
    if not (isinstance(e, A.EBin) and e.op == "*"
            and isinstance(e.left, A.EIndex) and isinstance(e.right, A.EIndex)):
        return None
    return (
        f"{inner.dest.array} = {e.left.array}.map(sw).join({e.right.array}.map(sw))"
        ".map(mul).reduceByKey(_+_)"
    )


def _t_dense_fold(stmt):
    """Range nest with an increment to a (possibly scalar-indexed)
    destination and reads of at most one distinct array plus vector
    lookups  →  keyed fold over the dense array (covers PCA's mean and
    covariance loops and KMeans-style folds over a matrix)."""
    idx, inner = _nest(stmt)
    if not idx or not isinstance(inner, A.SIncr):
        return None
    dest_ixs = inner.dest.indexes if isinstance(inner.dest, A.DIndex) else ()
    reads = [x for e in (*dest_ixs, inner.expr) for x in A.walk(e) if isinstance(x, A.EIndex)]
    matrices = {r.array for r in reads if len(r.indexes) == 2}
    if len(matrices) > 1:
        return None  # e.g. PageRank's Q and C, MF's err/Pp/Qp — no template
    dest = inner.dest.array if isinstance(inner.dest, A.DIndex) else inner.dest.name
    src = next(iter(matrices)) if matrices else "range"
    return f"{dest} = {src}.map(<key,val>).reduceByKey(_{inner.monoid}_)"


def _t_kmeans(stmts):
    """Whole-scope template for the two-phase clustering shape
    (assign-to-nearest, then per-cluster average): a while-loop whose
    body holds an argmin fold and a componentwise-average fold;
    surrounding declarations and scalar steps are allowed."""
    whiles = [s for s in stmts if isinstance(s, A.SWhile)]
    others = [s for s in stmts if not isinstance(s, (A.SWhile, A.SDecl))]
    if len(whiles) != 1 or any(
        not (isinstance(s, A.SAssign) and isinstance(s.dest, A.DVar)) for s in others
    ):
        return None
    body = whiles[0].body
    body_stmts = body.stmts if isinstance(body, A.SBlock) else [body]
    has_argmin = _contains(body_stmts, lambda s: isinstance(s, A.SIncr) and s.monoid == "argmin")
    has_avg = _contains(
        body_stmts,
        lambda s: isinstance(s, A.SIncr) and s.monoid == "+" and isinstance(s.expr, A.ETuple),
    )
    if has_argmin and has_avg:
        return "centroids = points.map(closest).reduceByKey(avg) [broadcast centroids]"
    return None


def _contains(stmts, pred):
    for s in stmts:
        if pred(s):
            return True
        for sub in ("body", "then", "els"):
            b = getattr(s, sub, None)
            if b is not None:
                if _contains(b.stmts if isinstance(b, A.SBlock) else [b], pred):
                    return True
    return False


def _coll(stmt):
    return stmt.coll.name if isinstance(stmt.coll, A.EVar) else "<coll>"


_STMT_TEMPLATES = (
    _t_scalar_fold,
    _t_keyed_fold,
    _t_matmul,
    _t_dense_map,
    _t_dense_fold,
)


def _translate_stmt(stmt):
    if isinstance(stmt, A.SDecl):
        return f"val {stmt.name} = <init>"
    if isinstance(stmt, A.SAssign) and isinstance(stmt.dest, A.DVar):
        return f"{stmt.dest.name} = <expr>"
    for t in _STMT_TEMPLATES:
        out = t(stmt)
        if out is not None:
            return out
    return None


def translate(src: str, max_states: int = 4000):
    """Translate a loop program by template search. Returns the list of
    emitted Spark pseudo-statements or raises ``MoldFail``.

    The cost profile is the point: every reachable rewrite state is
    tried against every template, so complex programs that ultimately
    fail burn the whole search budget — like the original system.
    """
    prog = parse(src)
    stmts = prog.stmts

    # whole-scope templates first (they see the original statement list)
    whole = _t_kmeans(stmts)
    if whole is not None:
        return [whole]

    best = None
    for state in _states(stmts, max_states):
        out = []
        for s in state:
            r = _translate_stmt(s)
            if r is None:
                out = None
                break
            out.append(r)
        if out is not None:
            return out
        best = state
    raise MoldFail(
        f"no template covers the program after exploring the rewrite space "
        f"({len(best) if best else 0} statements in last state)"
    )
