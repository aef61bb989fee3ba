"""Sequential collections backend for target code (Table 2's "seq").

The paper's Table 2 compares the *same* DIABLO-translated program run
on Scala parallel collections versus plain sequential lists. The
analogue here: the same target code that the Spark backend executes is
evaluated with plain Python collections — arrays are dicts, generators
are loops, equality conditions become hash joins, group-bys are dict
folds. The literal loop interpreter (``interp.py``) stays the ground
truth; this backend is the sequential *bulk* evaluation.
"""
from __future__ import annotations

import math

from . import ast as A
from .comprehension import (
    Agg,
    BinOp,
    Call,
    Comp,
    Cond,
    Const,
    Generator,
    GroupByQ,
    InRange,
    LetQ,
    Merge,
    OuterLookup,
    Proj,
    PTuple,
    PVar,
    RangeT,
    StateRef,
    TupleT,
    UnOp,
    Var,
    free_vars,
    pat_vars,
    show,
)
from .translate import TAssign, TInit, TWhile

_IDENT = {
    "+": 0,
    "*": 1,
    "min": float("inf"),
    "max": float("-inf"),
    "&&": True,
    "||": False,
    "argmin": None,
}


def _argmin(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a if a[1] <= b[1] else b


_BIN = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "&&": lambda a, b: a and b,
    "||": lambda a, b: a or b,
    "min": min,
    "max": max,
    "argmin": _argmin,
}

_CALLS = {
    "sqrt": math.sqrt,
    "abs": abs,
    "exp": math.exp,
    "log": math.log,
    "floor": math.floor,
    "ceil": math.ceil,
    "dist2": lambda p, c: (p[0] - c[0]) ** 2 + (p[1] - c[1]) ** 2,
    "coalesce": lambda a, b: b if a is None else a,
}


class SeqError(Exception):
    pass


def _compile_term(t, env):
    """Compile a term to ``fn(row_dict) -> value`` (env is closed over;
    ``Agg`` nodes must have been replaced by Vars before compiling)."""
    if isinstance(t, Const):
        v = t.value
        return lambda r: v
    if isinstance(t, Var):
        n = t.name
        return lambda r: r[n]
    if isinstance(t, StateRef):
        n = t.name
        return lambda r: env[n]
    if isinstance(t, BinOp):
        f, g, op = _compile_term(t.left, env), _compile_term(t.right, env), _BIN[t.op]
        return lambda r: op(f(r), g(r))
    if isinstance(t, UnOp):
        f = _compile_term(t.expr, env)
        return (lambda r: -f(r)) if t.op == "-" else (lambda r: not f(r))
    if isinstance(t, TupleT):
        fs = [_compile_term(x, env) for x in t.items]
        return lambda r: tuple(f(r) for f in fs)
    if isinstance(t, Proj):
        f = _compile_term(t.expr, env)
        fld = t.field
        if fld.lstrip("_").isdigit():
            i = int(fld.lstrip("_")) - 1
            return lambda r: (v[i] if (v := f(r)) is not None else None)
        return lambda r: (v[fld] if (v := f(r)) is not None else None)
    if isinstance(t, Call):
        fs = [_compile_term(x, env) for x in t.args]
        fn = _CALLS[t.fn]
        return lambda r: fn(*[f(r) for f in fs])
    if isinstance(t, InRange):
        f = _compile_term(t.expr, env)
        lo = _compile_term(t.lo, env)
        hi = _compile_term(t.hi, env)
        return lambda r: lo(r) <= f(r) <= hi(r)
    raise SeqError(f"cannot compile term {show(t)}")


def _array_rows(arr: dict, nvars: int):
    """Yield flat tuples (k1..kn, v) from a dict array."""
    if nvars == 2:
        for k, v in arr.items():
            yield (k, v)
    else:
        for k, v in arr.items():
            yield (*k, v)


def _split_join_cond(e, old: set, new: set):
    """For ``a == b``: return (old_side, new_side) or None."""
    if not (isinstance(e, BinOp) and e.op == "=="):
        return None
    fa, fb = free_vars(e.left), free_vars(e.right)
    if fa <= old and fb <= new:
        return e.left, e.right
    if fb <= old and fa <= new:
        return e.right, e.left
    return None


def eval_comp(comp: Comp, env: dict):
    """Evaluate a comprehension sequentially.

    Returns ("rows", rows, head) for bag results (rows = list of dicts)
    or ("scalar", value) / ("empty", None) for generator-free cases.
    """
    rows = None  # list of dicts
    bound: set = set()
    pending: list = []
    driver: dict = {}  # bindings resolved before any generator

    def flush():
        nonlocal rows
        still = []
        for c in pending:
            if free_vars(c) <= bound:
                f = _compile_term(c, env)
                rows = [r for r in rows if f(r)]
            else:
                still.append(c)
        pending[:] = still

    # hoist variable-bearing, aggregation-free conditions for join
    # detection (see backend.compile_comp for the rationale)
    def _hoistable(q):
        if not isinstance(q, Cond) or not free_vars(q.expr):
            return False
        aggs: list = []
        _collect_aggs(q.expr, aggs)
        return not aggs

    pending.extend(q.expr for q in comp.quals if _hoistable(q))

    quals = list(comp.quals)
    i = 0
    grouped = False
    agg_repl: dict = {}
    head = comp.head
    while i < len(quals):
        q = quals[i]
        i += 1
        if isinstance(q, Cond):
            if _hoistable(q):
                continue  # already hoisted into the pending set
            if rows is None:
                f = _compile_term(q.expr, env)
                if not f(driver):
                    return ("empty", None)
            else:
                pending.append(q.expr)
                flush()
            continue
        if isinstance(q, LetQ):
            names = pat_vars(q.pat)
            f = _compile_term(q.expr, env)
            if rows is None:
                v = f(driver)
                if len(names) == 1:
                    driver[names[0]] = v
                else:
                    driver.update(zip(names, v))
                continue
            if len(names) == 1:
                n = names[0]
                for r in rows:
                    r[n] = f(r)
            else:
                for r in rows:
                    v = f(r)
                    for j, n in enumerate(names):
                        r[n] = v[j]
            bound |= set(names)
            flush()
            continue
        if isinstance(q, Generator):
            names = pat_vars(q.pat)
            if isinstance(q.source, StateRef):
                arr = env[q.source.name]
                new_rows = [
                    dict(zip(names, tup)) for tup in _array_rows(arr, len(names))
                ]
            elif isinstance(q.source, RangeT):
                lo = _compile_term(q.source.lo, env)({})
                hi = _compile_term(q.source.hi, env)({})
                n = names[0]
                new_rows = [{n: v} for v in range(int(lo), int(hi) + 1)]
            else:
                raise SeqError(f"bad generator source {show(q.source)}")
            new = set(names)
            if rows is None:
                rows, bound = new_rows, new
            else:
                both = bound | new
                join_conds, still = [], []
                for c in pending:
                    fv = free_vars(c)
                    if fv <= both and (fv & new):
                        join_conds.append(c)
                    else:
                        still.append(c)
                pending[:] = still
                # hash-join on the equality conditions; any remaining
                # join predicates (e.g. inRange) become post-join filters
                splits, residual = [], []
                for c in join_conds:
                    sp = _split_join_cond(c, bound, new)
                    if sp is not None:
                        splits.append(sp)
                    else:
                        residual.append(c)
                if splits:
                    okeys = [_compile_term(sp[0], env) for sp in splits]
                    nkeys = [_compile_term(sp[1], env) for sp in splits]
                    fs = [_compile_term(c, env) for c in residual]
                    index: dict = {}
                    for r in new_rows:
                        index.setdefault(tuple(f(r) for f in nkeys), []).append(r)
                    out = []
                    for r in rows:
                        for m in index.get(tuple(f(r) for f in okeys), ()):
                            rm = {**r, **m}
                            if all(f(rm) for f in fs):
                                out.append(rm)
                    rows = out
                else:
                    fs = [_compile_term(c, env) for c in join_conds]
                    out = []
                    for r in rows:
                        for m in new_rows:
                            rm = {**r, **m}
                            if all(f(rm) for f in fs):
                                out.append(rm)
                    rows = out
                bound = both
            flush()
            continue
        if isinstance(q, GroupByQ):
            key_items = list(q.key.items) if isinstance(q.key, TupleT) else [q.key]
            key_names = pat_vars(q.pat)
            kfs = [_compile_term(k, env) for k in key_items]
            if rows is None:
                # generator-free singleton bag: bind the key, and every
                # reduction over it is the identity map
                for n, f in zip(key_names, kfs):
                    driver[n] = f(driver)
                aggs = []
                _collect_aggs(head, aggs)
                for a in aggs:
                    agg_repl[id(a)] = None
                head = _sub_aggs(head, {"*": None})
                continue
            aggs: list = []
            _collect_aggs(head, aggs)
            for r in quals[i:]:
                if isinstance(r, (Cond, LetQ)):
                    _collect_aggs(r.expr, aggs)
                elif isinstance(r, OuterLookup):
                    _collect_aggs(r.key, aggs)
            plans = []
            for a in aggs:
                if id(a) in agg_repl:
                    continue
                nm = f"_agg{len(agg_repl)}"
                agg_repl[id(a)] = nm
                plans.append((nm, _BIN[a.monoid], _IDENT[a.monoid],
                              _compile_term(a.expr, env)))
            groups: dict = {}
            for r in rows:
                k = tuple(f(r) for f in kfs)
                acc = groups.get(k)
                if acc is None:
                    acc = [ident for (_, _, ident, _) in plans]
                    groups[k] = acc
                for j, (_, op, _, f) in enumerate(plans):
                    acc[j] = op(acc[j], f(r))
            rows = []
            for k, acc in groups.items():
                r = dict(zip(key_names, k))
                for j, (nm, _, _, _) in enumerate(plans):
                    r[nm] = acc[j]
                rows.append(r)
            bound = set(key_names) | {nm for (nm, _, _, _) in plans}
            head = _sub_aggs(head, agg_repl)
            quals[i:] = [_sub_aggs_qual(r, agg_repl) for r in quals[i:]]
            grouped = True
            flush()
            continue
        if isinstance(q, OuterLookup):
            arr = env[q.array]
            key_items = list(q.key.items) if isinstance(q.key, TupleT) else [q.key]
            kfs = [_compile_term(k, env) for k in key_items]
            default = q.default.value if isinstance(q.default, Const) else None
            single = len(key_items) == 1
            n = q.var
            if rows is None:
                k = kfs[0](driver) if single else tuple(f(driver) for f in kfs)
                driver[n] = arr.get(k, default)
                continue
            for r in rows:
                k = kfs[0](r) if single else tuple(f(r) for f in kfs)
                r[n] = arr.get(k, default)
            bound.add(n)
            flush()
            continue
        raise SeqError(f"unknown qualifier {q!r}")

    if pending:
        raise SeqError("unbound conditions: " + "; ".join(show(c) for c in pending))

    if rows is None:
        return ("scalar", _compile_term(_sub_aggs(head, {"*": None}), env)(driver))

    if not grouped:
        aggs: list = []
        _collect_aggs(head, aggs)
        if aggs:
            accs = {}
            plans = []
            for a in aggs:
                if id(a) in agg_repl:
                    continue
                nm = f"_agg{len(agg_repl)}"
                agg_repl[id(a)] = nm
                plans.append((nm, _BIN[a.monoid], _compile_term(a.expr, env)))
                accs[nm] = _IDENT[a.monoid]
            for r in rows:
                for nm, op, f in plans:
                    accs[nm] = op(accs[nm], f(r))
            head = _sub_aggs(head, agg_repl)
            rows = [accs]

    return ("rows", rows, head)


def _collect_aggs(t, out):
    if isinstance(t, Agg):
        out.append(t)
        return
    if isinstance(t, BinOp):
        _collect_aggs(t.left, out)
        _collect_aggs(t.right, out)
    elif isinstance(t, UnOp):
        _collect_aggs(t.expr, out)
    elif isinstance(t, TupleT):
        for x in t.items:
            _collect_aggs(x, out)
    elif isinstance(t, Call):
        for x in t.args:
            _collect_aggs(x, out)
    elif isinstance(t, Proj):
        _collect_aggs(t.expr, out)
    elif isinstance(t, InRange):
        _collect_aggs(t.expr, out)
        _collect_aggs(t.lo, out)
        _collect_aggs(t.hi, out)


def _sub_aggs(t, repl):
    """Replace Agg nodes by their accumulator Vars; with the sentinel
    mapping {"*": None} an Agg over a singleton bag reduces to its
    expression (generator-free scalar case)."""
    if isinstance(t, Agg):
        if repl.get("*", "") is None:
            return _sub_aggs(t.expr, repl)
        return Var(repl[id(t)])
    if isinstance(t, BinOp):
        return BinOp(t.op, _sub_aggs(t.left, repl), _sub_aggs(t.right, repl))
    if isinstance(t, UnOp):
        return UnOp(t.op, _sub_aggs(t.expr, repl))
    if isinstance(t, TupleT):
        return TupleT(tuple(_sub_aggs(x, repl) for x in t.items))
    if isinstance(t, Call):
        return Call(t.fn, tuple(_sub_aggs(x, repl) for x in t.args))
    if isinstance(t, Proj):
        return Proj(_sub_aggs(t.expr, repl), t.field)
    if isinstance(t, InRange):
        return InRange(
            _sub_aggs(t.expr, repl), _sub_aggs(t.lo, repl), _sub_aggs(t.hi, repl)
        )
    return t


def _sub_aggs_qual(q, repl):
    if isinstance(q, Cond):
        return Cond(_sub_aggs(q.expr, repl))
    if isinstance(q, LetQ):
        return LetQ(q.pat, _sub_aggs(q.expr, repl))
    if isinstance(q, OuterLookup):
        return OuterLookup(q.var, q.array, _sub_aggs(q.key, repl), q.default)
    return q


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
    if res[0] == "empty":
        return None
    if res[0] == "scalar":
        v = res[1]
        key = v[:-1]
        return {key if ndims > 1 else key[0]: v[-1]}
    _, rows, head = res
    fs = [_compile_term(x, env) for x in head.items]
    out = {}
    if ndims == 1:
        for r in rows:
            out[fs[0](r)] = fs[1](r)
    else:
        for r in rows:
            out[tuple(f(r) for f in fs[:-1])] = fs[-1](r)
    return out


def _eval_scalar(term, env):
    """Evaluate a bag term expected to hold ≤1 scalar element. Returns
    (present, value); an empty bag leaves the destination unchanged."""
    if not isinstance(term, Comp):
        return True, _compile_term(term, env)({})
    res = eval_comp(term, env)
    if res[0] == "scalar":
        return True, res[1]
    if res[0] == "empty":
        return False, None
    _, rows, head = res
    if not rows:
        return False, None
    if len(rows) > 1:
        raise SeqError(
            f"scalar assignment from a bag with more than one element: {show(term)}"
        )
    return True, _compile_term(head, env)(rows[0])


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
