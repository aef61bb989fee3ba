"""Sequential collections backend for target code (Table 2's "seq").

The paper's Table 2 compares the *same* DIABLO-translated program run
on Scala parallel collections versus plain sequential lists. The
analogue here: the same target code that the Spark backend executes,
lowered by the same ``plan.plan``, is evaluated with plain Python
collections — arrays are dicts, rows are dicts of bound variables, joins
are hash joins on their equalities, group-bys are dict folds. The
literal loop interpreter (``interp.py``) stays the ground truth; this
backend is the sequential *bulk* evaluation.
"""
from __future__ import annotations

from functools import reduce

from . import ast as A
from .comprehension import Comp, Merge, StateRef, show
from .monoids import BIN
from .plan import (
    Filter,
    GroupBy,
    Join,
    Let,
    Lookup,
    Scan,
    Total,
    bind,
    compile_term,
    member_comp,
    plan,
    plan_group,
    run_driver,
)
from .translate import TAssign, TGroup, TInit, TWhile


class SeqError(Exception):
    pass


def _array_rows(arr: dict, nvars: int):
    """Yield flat tuples (k1..kn, v) from a dict array."""
    if nvars == 2:
        yield from arr.items()
    else:
        for k, v in arr.items():
            yield (*k, v)


def _get(arr: dict, key: tuple, default):
    return arr.get(key[0] if len(key) == 1 else key, default)


def _source(src, env, b) -> list:
    if isinstance(src, Scan):
        return [dict(zip(src.names, t)) for t in _array_rows(env[src.array], len(src.names))]
    lo, hi = (int(compile_term(x, env)(b)) for x in (src.lo, src.hi))
    return [{src.name: v} for v in range(lo, hi + 1)]


def _folds(aggs, env) -> list:
    """``(name, fold)`` of each ``(name, monoid, expr)`` reduction, where
    ``fold(rows)`` folds ``expr`` over the rows from the first one and is
    None over no rows, as SQL's aggregates are."""
    def fold(op, f):
        return lambda rows: reduce(op, map(f, rows)) if rows else None

    return [(n, fold(BIN[m], compile_term(e, env))) for n, m, e in aggs]


def eval_comp(comp: Comp, env: dict):
    """Evaluate a comprehension sequentially: its rows (dicts) and the
    head to evaluate over them, or None for an empty bag. A
    generator-free comprehension is one row of driver bindings."""
    p = plan(comp)
    b = run_driver(p, env, lambda a, k, d: _get(env[a], k, d))
    if b is None:
        return None
    if not p.steps:
        return [b], p.head
    return _run_steps(_source(p.steps[0], env, b), p.steps[1:], env, b), p.head


def _run_steps(rows: list, steps: tuple, env: dict, b: dict) -> list:
    """Rows (dicts) extended by plan steps; ``b`` holds the driver's
    bindings."""
    for st in steps:
        if isinstance(st, Join):
            new = _source(st.source, env, b)
            fs = [compile_term(c, env) for c in st.residual]
            if st.keys:
                # hash join on the equalities, the rest filter the pairs
                okeys = [compile_term(k, env) for k, _ in st.keys]
                nkeys = [compile_term(k, env) for _, k in st.keys]
                index: dict = {}
                for m in new:
                    index.setdefault(tuple(f(m) for f in nkeys), []).append(m)
                pairs = ((r, m) for r in rows for m in index.get(tuple(f(r) for f in okeys), ()))
            else:
                pairs = ((r, m) for r in rows for m in new)
            out = []
            for r, m in pairs:
                rm = {**r, **m}
                if all(f(rm) for f in fs):
                    out.append(rm)
            rows = out
        elif isinstance(st, Filter):
            for c in st.conds:
                f = compile_term(c, env)
                rows = [r for r in rows if f(r)]
        elif isinstance(st, Let):
            f = compile_term(st.expr, env)
            for r in rows:
                bind(r, st.names, f(r))
        elif isinstance(st, GroupBy):
            kfs = [compile_term(k, env) for k in st.keys]
            groups: dict = {}
            for r in rows:
                groups.setdefault(tuple(f(r) for f in kfs), []).append(r)
            folds = _folds(st.aggs, env)
            rows = [
                {**dict(zip(st.names, k)), **{n: fold(g) for n, fold in folds}}
                for k, g in groups.items()
            ]
        elif isinstance(st, Lookup):
            arr = env[st.array]
            kfs = [compile_term(k, env) for k in st.key]
            for r in rows:
                r[st.var] = _get(arr, tuple(f(r) for f in kfs), st.default)
        elif isinstance(st, Total):
            if rows:  # no row over no rows, as on Spark
                rows = [{n: fold(rows) for n, fold in _folds(st.aggs, env)}]
        else:
            raise SeqError(f"unknown plan step {st!r}")
    return rows


def _bag_to_dict(term, env, ndims: int):
    if isinstance(term, Merge):
        old = env[term.old.name]
        new = _bag_to_dict(term.new, env, ndims)
        if new is None:
            return old
        merged = dict(old)
        merged.update(new)
        return merged
    if isinstance(term, StateRef):
        return env[term.name]
    res = eval_comp(term, env)
    return None if res is None else _rows_to_dict(*res, env, ndims)


def _rows_to_dict(rows: list, head, env: dict, ndims: int) -> dict:
    fs = [compile_term(x, env) for x in head.items]
    if ndims == 1:
        return {fs[0](r): fs[1](r) for r in rows}
    return {tuple(f(r) for f in fs[:-1]): fs[-1](r) for r in rows}


def _eval_scalar(term, env):
    """Evaluate a bag term expected to hold ≤1 scalar element. Returns
    (present, value); an empty bag leaves the destination unchanged."""
    if not isinstance(term, Comp):
        return True, compile_term(term, env)({})
    res = eval_comp(term, env)
    return (False, None) if res is None else _row_value(*res, env, term)


def _row_value(rows: list, head, env: dict, term):
    """(present, value) of a scalar's head over at most one row."""
    if not rows:
        return False, None
    if len(rows) > 1:
        raise SeqError(
            f"scalar assignment from a bag with more than one element: {show(term)}"
        )
    return True, compile_term(head, env)(rows[0])


def run_group_seq(st: TGroup, env: dict, types: dict) -> None:
    """Run a group of sibling assignments (``plan.fuse_code``): the
    shared steps once, then each member's own steps over their rows,
    each member reading the state from before the group."""
    gp = plan_group([member_comp(s) for s in st.stmts])
    if gp is None:
        raise SeqError("a group of statements that share no scan")
    rows = _run_steps(_source(gp.shared[0], env, {}), gp.shared[1:], env, {})
    new = {}
    for s, m in zip(st.stmts, gp.members):
        # a member's steps start with a filter or a reduction, which
        # build new rows: the shared ones are not changed
        own = _run_steps(rows, m.steps, env, {})
        if isinstance(s.term, Comp):
            present, v = _row_value(own, m.head, env, s.term)
            if present:
                new[s.name] = v
        else:
            new[s.name] = {**env[s.name], **_rows_to_dict(own, m.head, env, types[s.name].ndims)}
    env.update(new)


def run_code_seq(code, env: dict, types: dict) -> dict:
    """Execute target code over dict arrays / Python scalars."""
    for st in code:
        if isinstance(st, TInit):
            env[st.name] = {}
        elif isinstance(st, TAssign):
            t = types.get(st.name)
            if isinstance(t, A.TArray):
                env[st.name] = _bag_to_dict(st.term, env, t.ndims)
            else:
                present, v = _eval_scalar(st.term, env)
                if present:
                    env[st.name] = v
        elif isinstance(st, TGroup):
            run_group_seq(st, env, types)
        elif isinstance(st, TWhile):
            while True:
                present, c = _eval_scalar(st.cond, env)
                if not present or not c:
                    break
                run_code_seq(st.body, env, types)
        else:
            raise SeqError(f"unknown target statement {st!r}")
    return env


def run_program_seq(compiled, env: dict) -> dict:
    """Sequential-bulk execution of a compiled program (Table 2 'seq')."""
    e = {k: (dict(v) if isinstance(v, dict) else v) for k, v in env.items()}
    return run_code_seq(compiled.code, e, compiled.types)
