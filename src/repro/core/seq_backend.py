"""Sequential collections backend for target code (Table 2's "seq").

The paper's Table 2 compares the *same* DIABLO-translated program run
on Scala parallel collections versus plain sequential lists. The
analogue here: the same target code that the Spark backend executes,
with the same plans (``plan.plan_code``), is evaluated with plain Python
collections — arrays are dicts, rows are dicts of bound variables, joins
are hash joins on their equalities, group-bys are dict folds. It ignores
the marks that only change how Spark lowers a step (``plan.Join``). The
literal loop interpreter (``interp.py``) stays the ground truth; this
backend is the sequential *bulk* evaluation, run by ``plan.exec_code``.
"""
from __future__ import annotations

import itertools
from functools import reduce

from .comprehension import Comp, TupleT, Var
from .monoids import BIN
from .plan import (
    Filter,
    GroupBy,
    Join,
    Let,
    Lookup,
    Plan,
    Scan,
    Total,
    bind,
    compile_term,
    exec_code,
    run_driver,
)


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
    ``fold(rows)`` folds ``expr`` over some rows from the first one, as
    SQL's aggregates do. There is always a row: a group has one, and a
    ``Total`` over no rows gives no row."""
    def fold(op, f):
        return lambda rows: reduce(op, map(f, rows))

    return [(n, fold(BIN[m], compile_term(e, env))) for n, m, e in aggs]


def _rows(p: Plan, env: dict, look=None):
    """The rows (dicts) of a plan, then of its own lookup ``look`` if
    any, or None for an empty bag. A generator-free plan is one row of
    driver bindings."""
    b = run_driver(p, env, lambda a, k, d: _get(env[a], k, d))
    if b is None:
        return None
    rows = _run_steps(_source(p.steps[0], env, b), p.steps[1:], env, b) if p.steps else [b]
    return _run_steps(rows, (look,) if look else (), env, b)


def _run_steps(rows: list, steps: tuple, env: dict, b: dict) -> list:
    """Rows (dicts) extended by plan steps; ``b`` holds the driver's
    bindings."""
    for st in steps:
        if isinstance(st, Join):
            # hash join on the equalities (with none, every pair), the
            # rest filter the pairs
            okeys = [compile_term(k, env) for k, _ in st.keys]
            nkeys = [compile_term(k, env) for _, k in st.keys]
            index: dict = {}
            for m in _source(st.source, env, b):
                index.setdefault(tuple(f(m) for f in nkeys), []).append(m)
            fs = [compile_term(c, env) for c in st.residual]
            pairs = ({**r, **m} for r in rows for m in index.get(tuple(f(r) for f in okeys), ()))
            rows = [rm for rm in pairs if all(f(rm) for f in fs)]
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


def _rows_to_dict(rows: list, head, env: dict, ndims: int) -> dict:
    fs = [compile_term(x, env) for x in head.items]
    if ndims == 1:
        return {fs[0](r): fs[1](r) for r in rows}
    return {tuple(f(r) for f in fs[:-1]): fs[-1](r) for r in rows}


class _Seq:
    """``plan.exec_code``'s engine over dict arrays and Python
    scalars."""

    error = SeqError

    def empty(self, t) -> dict:
        return {}

    def array(self, st, t, env: dict) -> dict:
        env = {**env, st.name: {}} if st.fresh else env
        if st.fill is not None:  # V := (V ⊲ fill) ⊲ e
            f = st.fill
            ranges = [range(int(compile_term(lo, env)({})), int(compile_term(hi, env)({})) + 1)
                      for lo, hi in f.bounds]
            rows = [dict(zip(f.keys, ks)) for ks in itertools.product(*ranges)]
            head = TupleT((*map(Var, f.keys), f.value))
            env = {**env, st.name: {**env[st.name], **_rows_to_dict(rows, head, env, t.ndims)}}
            if st.plan is None:  # the fill alone
                return env[st.name]
        rows = _rows(st.plan, env, st.look)
        new = {} if rows is None else _rows_to_dict(rows, st.plan.head, env, t.ndims)
        return {**env[st.name], **new}

    def scalar(self, p: Plan, env: dict, what: str) -> list:
        rows = _rows(p, env)
        return [] if rows is None else list(map(compile_term(p.head, env), rows))

    def group(self, gp, stmts, env: dict, types: dict) -> dict:
        """The shared steps once, then each member's own steps over
        their rows."""
        env = {**env, **{s.name: {} for s in stmts if s.fresh}}
        rows = _run_steps(_source(gp.shared[0], env, {}), gp.shared[1:], env, {})
        new = {}
        for s, m, look in zip(stmts, gp.members, gp.looks):
            # a member's steps start with a filter or a reduction, which
            # build new rows: the shared ones are not changed
            own = _run_steps(rows, m.steps + ((look,) if look else ()), env, {})
            if isinstance(s.term, Comp):
                if own:  # a Total's one row, or none
                    new[s.name] = compile_term(m.head, env)(own[0])
            else:
                new[s.name] = {**env[s.name], **_rows_to_dict(own, m.head, env, types[s.name].ndims)}
        return new

    def boundary(self, env: dict, carried: list) -> None:
        pass


def run_code_seq(code, env: dict, types: dict) -> dict:
    """Execute target code over dict arrays / Python scalars."""
    return exec_code(code, env, _Seq(), types)


def run_program_seq(compiled, env: dict) -> dict:
    """Sequential-bulk execution of a compiled program (Table 2 'seq')."""
    e = {k: (dict(v) if isinstance(v, dict) else v) for k, v in env.items()}
    return run_code_seq(compiled.code, e, compiled.types)
