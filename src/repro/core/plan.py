"""One lowering of a normalized comprehension to relational steps (paper
Section 3.4), shared by the Spark and the sequential engine.

``plan(comp)`` walks the qualifiers once and reads nothing from the
program state. It returns:

* ``driver``: the steps before the first generator (conditions, lets,
  constant-key lookups), which both engines evaluate on the driver with
  ``compile_term``; a generator-free group-by binds its key there, and
  every ``⊕/e`` over that singleton bag reduces to ``e``;
* ``steps``: a ``Scan`` or ``Range`` source, then ``Join``, ``Filter``,
  ``Let``, ``GroupBy``, ``Lookup`` and ``Total`` steps; empty when the
  comprehension has no generator;
* ``head``: the head, each ``Agg`` replaced by the variable ``_aggN``
  that its ``GroupBy`` or ``Total`` step binds.

Conditions are applied as soon as all their variables are bound (filter
pushup is semantics-preserving for pure predicates). Those with
variables and no reduction are hoisted ahead of the generators they
constrain, so that they become the join conditions of the generator
that binds their last variable: rule 11c emits index equalities after
the array scan, and without hoisting a two-array access would be a
cross join plus a filter. Key-pattern names rebound by a group-by are
bound to the same values before the group-by, so key filters commute
too.

``plan_group`` lowers sibling comprehensions that start with the same
scan and joins to those shared steps plus each one's own; ``fuse_code``
groups the target-code assignments it can serve into a ``TGroup``, and
marks the range fills and the keyless joins with a small side that the
Spark engine lowers the way hand-written programs do (``TAssign.fill``,
``TAssign.broadcast``). ``exec_code`` runs target code (Section 3.8) on
either engine.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from .comprehension import (
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
    aggs,
    free_vars,
    pat_vars,
    show,
    state_refs,
    sub_aggs,
    subst,
    unagg,
)
from . import ast as A
from .monoids import BIN, CALLS
from .translate import TAssign, TGroup, TInit, TWhile, carried_arrays


class PlanError(Exception):
    pass


@dataclass(frozen=True)
class Scan:
    """The rows ``(names…)`` of state array ``array``."""

    names: tuple
    array: str


@dataclass(frozen=True)
class Range:
    """``name`` over the integers ``lo..hi``, inclusive."""

    name: str
    lo: object
    hi: object

    @property
    def names(self) -> tuple:
        return (self.name,)


@dataclass(frozen=True)
class Join:
    """Join with ``source`` on ``conds``, in qualifier order; ``keys``
    are the equalities among them as ``(left side, source side)`` pairs,
    ``residual`` the rest."""

    source: Union[Scan, Range]
    conds: tuple
    keys: tuple
    residual: tuple


@dataclass(frozen=True)
class Filter:
    conds: tuple


@dataclass(frozen=True)
class Let:
    """Bind ``names`` to ``expr``, or to its components if several."""

    names: tuple
    expr: object


@dataclass(frozen=True)
class GroupBy:
    """Group by ``keys`` (bound to ``names``); ``aggs`` are the
    ``(name, monoid, expr)`` reductions of each group."""

    names: tuple
    keys: tuple
    aggs: tuple


@dataclass(frozen=True)
class Lookup:
    """Bind ``var`` to ``array[key]``, or to ``default`` if absent."""

    var: str
    array: str
    key: tuple
    default: object


@dataclass(frozen=True)
class Total:
    """Reduce the whole relation to one row of ``(name, monoid, expr)``
    reductions; an empty relation gives no row, so a scalar update over
    an empty bag leaves its destination unchanged."""

    aggs: tuple


@dataclass(frozen=True)
class Plan:
    driver: tuple
    steps: tuple
    head: object


def _items(key) -> tuple:
    return key.items if isinstance(key, TupleT) else (key,)


def _split(c, old: set, new: set) -> Optional[tuple]:
    """``(old side, new side)`` of an equality ``c`` between the bound
    variables and the new generator's, or None."""
    if not (isinstance(c, BinOp) and c.op == "=="):
        return None
    fa, fb = free_vars(c.left), free_vars(c.right)
    if fa <= old and fb <= new:
        return c.left, c.right
    if fb <= old and fa <= new:
        return c.right, c.left
    return None


def plan(comp: Comp) -> Plan:
    """Lower a normalized comprehension to a ``Plan``."""
    quals = comp.quals
    hoisted = {
        i for i, q in enumerate(quals)
        if isinstance(q, Cond) and free_vars(q.expr) and not aggs(q.expr)
    }
    pending = [quals[i].expr for i in sorted(hoisted)]
    driver: list = []
    steps: list = []
    bound: set = set()
    names_of: dict = {}  # id(Agg) -> the name of its reduction

    def reduce(t):
        if not steps:  # a singleton bag: ⊕/e is e
            return unagg(t)
        return sub_aggs(t, lambda a: Var(names_of[id(a)]) if id(a) in names_of else a)

    def name_aggs(ts) -> tuple:
        out = []
        for a in [a for t in ts for a in aggs(t)]:
            if id(a) not in names_of:
                names_of[id(a)] = f"_agg{len(names_of)}"
                out.append((names_of[id(a)], a.monoid, a.expr))
        return tuple(out)

    def add(step, names=()):
        """Append a relational step (if any) binding ``names``, then a
        filter by the conditions that are now ready."""
        if step is not None:
            steps.append(step)
        bound.update(names)
        ready = [c for c in pending if free_vars(c) <= bound]
        if ready:
            pending[:] = [c for c in pending if not free_vars(c) <= bound]
            steps.append(Filter(tuple(ready)))

    for i, q in enumerate(quals):
        if i in hoisted:
            continue
        if isinstance(q, Cond):
            if steps:
                pending.append(reduce(q.expr))
                add(None)
            else:
                driver.append(Filter((reduce(q.expr),)))
        elif isinstance(q, LetQ):
            let = Let(tuple(pat_vars(q.pat)), reduce(q.expr))
            if steps:
                add(let, let.names)
            else:
                driver.append(let)
        elif isinstance(q, Generator):
            names = tuple(pat_vars(q.pat))
            if isinstance(q.source, StateRef):
                src = Scan(names, q.source.name)
            elif isinstance(q.source, RangeT):
                src = Range(names[0], q.source.lo, q.source.hi)
            else:
                raise PlanError(f"unnormalized generator source {show(q.source)}")
            if not steps:
                add(src, names)
                continue
            new = set(names)
            both = bound | new
            conds, still = [], []
            for c in pending:
                fv = free_vars(c)
                (conds if fv <= both and fv & new else still).append(c)
            pending[:] = still
            splits = [_split(c, bound, new) for c in conds]
            add(Join(
                src, tuple(conds),
                tuple(s for s in splits if s is not None),
                tuple(c for c, s in zip(conds, splits) if s is None),
            ), names)
        elif isinstance(q, GroupByQ):
            names, keys = tuple(pat_vars(q.pat)), _items(q.key)
            if not steps:
                driver.append(Let(names, q.key))
                continue
            if len(names) != len(keys):
                raise PlanError("group-by pattern/key arity mismatch")
            reductions = name_aggs([comp.head, *quals[i + 1:]])
            bound.clear()
            add(GroupBy(names, keys, reductions), names + tuple(n for n, _, _ in reductions))
        elif isinstance(q, OuterLookup):
            default = q.default.value if isinstance(q.default, Const) else None
            look = Lookup(q.var, q.array, tuple(map(reduce, _items(q.key))), default)
            if steps:
                add(look, (q.var,))
            else:
                driver.append(look)
        else:
            raise PlanError(f"unknown qualifier {q!r}")

    if pending:
        raise PlanError(
            "conditions with unbound variables: " + "; ".join(show(c) for c in pending)
        )
    if steps and not any(isinstance(s, GroupBy) for s in steps) and aggs(comp.head):
        steps.append(Total(name_aggs([comp.head])))
    return Plan(tuple(driver), tuple(steps), reduce(comp.head))


# ------------------------------------------------------- range bounds
def bounds(conds) -> dict:
    """``{var: [(lo, hi), …]}``: the ``inRange(var, lo, hi)`` among
    ``conds`` whose bounds read no variable, so the driver can evaluate
    them."""
    out: dict = {}
    for c in conds:
        if (isinstance(c, InRange) and isinstance(c.expr, Var)
                and not free_vars(c.lo) | free_vars(c.hi)):
            out.setdefault(c.expr.name, []).append((c.lo, c.hi))
    return out


def join_bounds(join: Join) -> Optional[tuple]:
    """The ``(lo, hi)`` of each key of a join's source, if the join has
    no key equalities and its conditions bound every key of the array it
    scans by ``inRange``; else None. Such a source has at most the
    product of the ranges' sizes rows."""
    src = join.source
    if join.keys or not isinstance(src, Scan) or len(src.names) < 2:
        return None
    bs = bounds(join.conds)
    if any(k not in bs for k in src.names[:-1]):
        return None
    return tuple(bs[k][0] for k in src.names[:-1])


@dataclass(frozen=True)
class Fill:
    """A range fill ``{(i…, c) | i <- range…}``: the head's indexes
    ``keys``, the ``(lo, hi)`` of each one's range, and the value
    ``c``, which reads no other variable."""

    keys: tuple
    bounds: tuple
    value: object


def range_fill(comp) -> Optional[Fill]:
    """``comp`` as a ``Fill``, or None if it is not one: only generators
    over ranges whose bounds read no variable, and a head of those
    indexes, each once in any order, and a value."""
    if not (isinstance(comp, Comp) and isinstance(comp.head, TupleT) and comp.quals):
        return None
    ranges: dict = {}
    for q in comp.quals:
        if not (isinstance(q, Generator) and isinstance(q.pat, PVar)
                and isinstance(q.source, RangeT) and not free_vars(q.source)):
            return None
        ranges[q.pat.name] = (q.source.lo, q.source.hi)
    *keys, value = comp.head.items
    names = [k.name for k in keys if isinstance(k, Var)]
    if (len(names) != len(keys) or sorted(names) != sorted(ranges) or aggs(value)
            or not free_vars(value) <= set(names)):
        return None
    return Fill(tuple(names), tuple(ranges[n] for n in names), value)


def own_lookup(p: Plan, name: str) -> tuple:
    """``(p without it, the lookup)`` if ``p`` ends in rule 15a's lookup
    ``w <~ X[k] ?? d`` of the array ``name`` at the head's key ``k``, as
    its last step or, without generators, its last driver step; else
    ``(p, None)``. Such a plan is an update of ``name``, whose merge
    reads ``w`` from its old side instead of looking it up."""
    look = (p.steps or p.driver or (None,))[-1]
    if not (isinstance(look, Lookup) and look.array == name and isinstance(p.head, TupleT)
            and look.key == p.head.items[:-1]):
        return p, None
    return (replace(p, steps=p.steps[:-1]) if p.steps else replace(p, driver=p.driver[:-1])), look


def fills_before(fill: Fill, name: str, comp: Comp) -> bool:
    """Whether the update ``comp`` (rule 15a) of the array ``name`` can
    be lowered with a range ``fill`` of that array that comes before
    it: it reads the array only by its lookup, and an ``inRange``
    on the fill's bounds (or a range over them) constrains every key it
    groups by, so every key it updates was filled."""
    if state_refs(comp).count(name) != 1:
        return False
    p, look = own_lookup(plan(comp), name)
    if look is None or p.driver or not p.steps:
        return False
    keys = p.head.items[:-1]
    groups = [i for i, st in enumerate(p.steps) if isinstance(st, GroupBy)]
    if len(keys) != len(fill.keys) or len(groups) != 1:
        return False
    g, before = p.steps[groups[0]], p.steps[:groups[0]]
    conds = [c for st in before if isinstance(st, (Filter, Join)) for c in st.conds]
    bs = bounds(conds)
    for st in before:
        src = st.source if isinstance(st, Join) else st
        if isinstance(src, Range):
            bs.setdefault(src.name, []).append((src.lo, src.hi))
    for k, b in zip(keys, fill.bounds):
        if not (isinstance(k, Var) and k.name in g.names):
            return False
        key = g.keys[g.names.index(k.name)]
        if not (isinstance(key, Var) and b in bs.get(key.name, ())):
            return False
    return True


# ------------------------------------------------------- sibling groups
@dataclass(frozen=True)
class GroupPlan:
    """Sibling comprehensions over one source (``plan_group``):
    ``shared`` are the steps they all start with, a ``Scan`` and then
    joins, filters and lets; each of ``members`` (a ``Plan`` with no
    driver steps) continues from the rows ``shared`` gives with its own
    ``Filter`` (if it has conditions), then its ``GroupBy`` or ``Total``,
    whose terms read only the names ``shared`` binds, then the rest of
    its steps. ``total`` tells which of the two reductions they all end
    with."""

    shared: tuple
    members: tuple
    total: bool


def _canonical(c: Comp) -> Comp:
    """``c`` with its bound variables renamed ``_b0, _b1, …`` in the
    order they are bound, so that comprehensions that differ only in
    those names are equal and plan to equal steps."""
    ren: dict = {}

    def pat(p):
        if isinstance(p, PVar):
            return PVar(ren.setdefault(p.name, f"_b{len(ren)}"))
        return PTuple(tuple(map(pat, p.items)))

    quals = []
    for q in c.quals:
        q = subst(q, {o: Var(n) for o, n in ren.items()})
        if isinstance(q, OuterLookup):
            q = replace(q, var=pat(PVar(q.var)).name)
        elif not isinstance(q, Cond):
            q = replace(q, pat=pat(q.pat))
        quals.append(q)
    return Comp(subst(c.head, {o: Var(n) for o, n in ren.items()}), tuple(quals))


def _own(steps: tuple) -> Optional[tuple]:
    """A member's steps after the shared ones, ``(Filter|Let)* reduction
    rest``, as ``[Filter] reduction rest`` with each let inlined into the
    terms after it; None if a join or a second source follows, or no
    ``GroupBy`` or ``Total``."""
    env: dict = {}
    conds: list = []
    for i, st in enumerate(steps):
        if isinstance(st, Filter):
            conds.extend(subst(c, env) for c in st.conds)
        elif isinstance(st, Let):
            e = subst(st.expr, env)
            env.update({st.names[0]: e} if len(st.names) == 1 else {
                n: Proj(e, f"_{j + 1}") for j, n in enumerate(st.names)
            })
        elif isinstance(st, (GroupBy, Total)):
            rest = steps[i + 1:]
            if any(isinstance(r, (Join, Scan, Range)) for r in rest):
                return None
            aggs = tuple((n, m, subst(e, env)) for n, m, e in st.aggs)
            red = (GroupBy(st.names, tuple(subst(k, env) for k in st.keys), aggs)
                   if isinstance(st, GroupBy) else Total(aggs))
            return ((Filter(tuple(conds)),) if conds else ()) + (red,) + rest
        else:
            return None
    return None


def plan_group(comps) -> Optional[GroupPlan]:
    """Lower sibling comprehensions to one ``GroupPlan``: they must plan
    without driver steps, start with the same scan of an array and the
    same joins, up to the names of their variables, and all end in a
    ``GroupBy`` or all in a ``Total``. None if they do not."""
    plans = [plan(_canonical(c)) for c in comps]
    first = plans[0].steps
    if any(p.driver or not p.steps for p in plans) or not isinstance(first[0], Scan):
        return None
    n = 0
    while n < len(first) and isinstance(first[n], (Scan, Join, Filter, Let)) and all(
        n < len(p.steps) and p.steps[n] == first[n] for p in plans
    ):
        n += 1
    own = [_own(p.steps[n:]) for p in plans]
    if any(o is None for o in own):
        return None
    kinds = {isinstance(o[1] if isinstance(o[0], Filter) else o[0], Total) for o in own}
    if len(kinds) > 1:
        return None
    return GroupPlan(first[:n], tuple(Plan((), o, p.head) for o, p in zip(own, plans)),
                     kinds.pop())


def member_comp(st: TAssign):
    """The comprehension of an assignment that may join a group: a
    scalar's term, or the new bag of an array's merge into itself."""
    t = st.term
    if isinstance(t, Comp):
        return t
    if isinstance(t, Merge) and t.old == StateRef(st.name) and isinstance(t.new, Comp):
        return t.new
    return None


def _fits(group: list, st: TAssign) -> bool:
    """Whether ``st`` can join the assignments ``group``: a destination
    of its own, none of theirs read by it nor its read by them, its
    comprehension of the same kind (a scalar's ``Total``, an array's
    ``GroupBy``), and one ``GroupPlan`` for all of them."""
    names = {g.name for g in group}
    if st.fill is not None or group[0].fill is not None:
        return False
    if st.name in names or names & set(state_refs(st.term)):
        return False
    if any(st.name in state_refs(g.term) for g in group):
        return False
    comps = [member_comp(s) for s in group + [st]]
    if any(c is None for c in comps):
        return False
    try:
        gp = plan_group(comps)
    except PlanError:  # left alone, running it reports the error
        return False
    return gp is not None and all(
        gp.total == isinstance(s.term, Comp) for s in group + [st]
    )


def _broadcast(st: TAssign) -> TAssign:
    """``st`` with ``broadcast`` set if a join of its comprehension has
    no key equalities and a source that ``inRange`` bounds
    (``join_bounds``)."""
    comp = member_comp(st)
    try:
        steps = plan(comp).steps if comp is not None else ()
    except PlanError:  # left alone, running it reports the error
        steps = ()
    small = any(isinstance(s, Join) and join_bounds(s) is not None for s in steps)
    return replace(st, broadcast=small)


def _open_fill(out: list, name: str) -> Optional[int]:
    """The position in the block ``out`` of the last assignment to the
    array ``name``, if that is a range fill alone (``TAssign.fill``)
    that can move to the end of ``out``: no statement after it mentions
    ``name`` or assigns a scalar the fill reads."""
    later: set = set()  # the names the statements after it assign
    for j in range(len(out) - 1, -1, -1):
        st = out[j]
        if isinstance(st, TAssign) and st.name == name:
            alone = st.fill is not None and st.fill is member_comp(st)
            return j if alone and not later & set(state_refs(st.term)) else None
        if not isinstance(st, (TAssign, TInit)) or st.name == name or (
                isinstance(st, TAssign) and name in state_refs(st.term)):
            return None
        later.add(st.name)
    return None


def _fill(code: list) -> list:
    """Mark the range fills of a block (``TAssign.fill``). A fill and an
    update of the same array after it (``fills_before``) become one
    assignment, the update's, marked with the fill and as fresh as the
    fill was, when the statements between them neither mention the
    array nor assign what the fill reads (``_open_fill``)."""
    out: list = []
    for st in code:
        new = member_comp(st) if isinstance(st, TAssign) else None
        j = _open_fill(out, st.name) if new is not None else None
        if j is not None and fills_before(range_fill(out[j].fill), st.name, new):
            fill = out.pop(j)
            out.append(replace(st, fresh=fill.fresh, fill=fill.fill))
        elif new is not None and isinstance(st.term, Merge) and range_fill(new) is not None:
            out.append(replace(st, fill=new))
        else:
            out.append(st)
    return out


def fuse_code(code: list) -> list:
    """Lower a block for the Spark engine the way a hand-written program
    would: mark its range fills (``_fill``) and its joins that may
    broadcast (``_broadcast``), then group each run of consecutive
    assignments that one scan can serve (``_fits``) into a ``TGroup``,
    in ``while`` bodies too. Sources that are ranges are never grouped:
    a range costs nothing to generate again."""
    out: list = []
    run: list = []

    def close():
        if run:
            out.append(run[0] if len(run) == 1 else TGroup(list(run)))
            run.clear()

    for st in _fill(code):
        if isinstance(st, TAssign):
            st = _broadcast(st)
        if isinstance(st, TAssign) and run and _fits(run, st):
            run.append(st)
            continue
        close()
        if isinstance(st, TAssign):
            run.append(st)
        elif isinstance(st, TWhile):
            out.append(TWhile(st.cond, fuse_code(st.body)))
        else:
            out.append(st)
    close()
    return out


# ------------------------------------------------------ Python evaluation
def compile_term(t, env: dict):
    """Compile a term to ``fn(bindings) -> value`` over the state ``env``
    (a ``plan`` has replaced every ``Agg``)."""
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
        f, g, op = compile_term(t.left, env), compile_term(t.right, env), BIN[t.op]
        return lambda r: op(f(r), g(r))
    if isinstance(t, UnOp):
        f = compile_term(t.expr, env)
        return (lambda r: -f(r)) if t.op == "-" else (lambda r: not f(r))
    if isinstance(t, TupleT):
        fs = [compile_term(x, env) for x in t.items]
        return lambda r: tuple(f(r) for f in fs)
    if isinstance(t, Proj):
        f = compile_term(t.expr, env)
        fld = t.field
        if fld.lstrip("_").isdigit():
            i = int(fld.lstrip("_")) - 1
            return lambda r: (v[i] if (v := f(r)) is not None else None)
        return lambda r: (v[fld] if (v := f(r)) is not None else None)
    if isinstance(t, Call):
        fs = [compile_term(x, env) for x in t.args]
        fn = CALLS[t.fn]
        return lambda r: fn(*[f(r) for f in fs])
    if isinstance(t, InRange):
        f, lo, hi = (compile_term(x, env) for x in (t.expr, t.lo, t.hi))
        return lambda r: lo(r) <= f(r) <= hi(r)
    raise PlanError(f"cannot evaluate term {show(t)}")


def bind(row: dict, names: tuple, value) -> None:
    """Bind ``names`` to ``value``, or to its components if several."""
    if len(names) == 1:
        row[names[0]] = value
    else:
        row.update(zip(names, value))


def run_driver(p: Plan, env: dict, lookup) -> Optional[dict]:
    """Evaluate the plan's driver steps; ``lookup(array, key, default)``
    reads one element of a state array. Returns the bindings, or None
    when a condition is false (the bag is empty)."""
    b: dict = {}
    for st in p.driver:
        if isinstance(st, Filter):
            if not all(compile_term(c, env)(b) for c in st.conds):
                return None
        elif isinstance(st, Let):
            bind(b, st.names, compile_term(st.expr, env)(b))
        else:
            key = tuple(compile_term(k, env)(b) for k in st.key)
            b[st.var] = lookup(st.array, key, st.default)
    return b


# ------------------------------------------------------ statement execution
def _scalar(engine, term, env: dict, broadcast: bool = False) -> list:
    """The elements of a scalar's new bag or a loop's test: none leaves
    the scalar as it is and ends the loop, more than one is an error. A
    term without generators is not a comprehension: no engine needed."""
    vs = (engine.scalar(term, env, broadcast) if isinstance(term, Comp)
          else [compile_term(term, env)({})])
    if len(vs) > 1:
        raise engine.error(f"scalar assignment from a bag with more than one element: {show(term)}")
    return vs


def exec_code(code, env: dict, engine, types: dict) -> dict:
    """Execute target code on ``engine``, updating and returning the
    environment. The engine gives:

    * ``empty(t)``: a new empty array of type ``t``;
    * ``array(st, t, env)``: the new value of the array ``st`` assigns,
      whose term is a merge ``X ⊲ comp`` into that array ``X`` (rules
      14c and 15a), with a head of ``t.ndims`` keys and a value, after
      the range fill ``st.fill`` if there is one;
    * ``scalar(comp, env, broadcast)``: the elements of a comprehension
      (``broadcast``: see ``TAssign.broadcast``);
    * ``group(gp, stmts, env, types)``: the new values of a ``TGroup``'s
      destinations, from its ``GroupPlan``; each member reads the state
      from before the group;
    * ``boundary(env, carried)``: between iterations of a ``while``
      loop, before each one that reads the arrays ``carried`` across
      them, so not after the last: after the test passes, or before a
      test that reads one;
    * ``error``: the exception class of its errors.
    """
    for st in code:
        if isinstance(st, TInit):
            env[st.name] = engine.empty(st.type)
        elif isinstance(st, TAssign):
            t = types.get(st.name)
            if isinstance(t, A.TArray):
                new = member_comp(st)
                if not (isinstance(st.term, Merge) and new is not None and isinstance(new.head, TupleT)
                        and len(new.head.items) == t.ndims + 1):
                    raise engine.error(f"array assignment that is no merge of keys and a value "
                                       f"into {st.name}: {show(st.term)}")
                env[st.name] = engine.array(st, t, env)
            else:
                vs = _scalar(engine, st.term, env, st.broadcast)
                if vs:
                    env[st.name] = vs[0]
        elif isinstance(st, TGroup):
            gp = plan_group([member_comp(s) for s in st.stmts])
            if gp is None:
                raise engine.error("a group of statements that share no scan")
            env.update(engine.group(gp, st.stmts, env, types))
        elif isinstance(st, TWhile):
            carried = carried_arrays(st.body, types)
            test_reads = bool(set(state_refs(st.cond)) & set(carried))
            ran = False  # an iteration ran since the last boundary
            while True:
                if ran and test_reads:
                    engine.boundary(env, carried)
                test = _scalar(engine, st.cond, env)
                if not (test and test[0]):
                    break
                if ran and not test_reads:
                    engine.boundary(env, carried)
                exec_code(st.body, env, engine, types)
                ran = True
        else:
            raise engine.error(f"unknown target statement {st!r}")
    return env
