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

``plan_code`` plans target code once, at compile time: it attaches to
each assignment and each ``while`` test its plan (``TAssign.plan``,
``TWhile.plan``), an update's own lookup split off (``own_lookup``,
``TAssign.look``); the engines run these plans and plan nothing.
``plan_group`` lowers sibling comprehensions that start with the same
scan and joins to those shared steps plus each one's own; ``fuse_code``
groups the target-code assignments it can serve into a ``TGroup`` with
that ``GroupPlan``, and marks the range fills (``TAssign.fill`` and
``inside``), the keyless joins with a small side (``Join.small``) and
the joins that read another assignment's groups (``Join.reads``), which
the Spark engine lowers the way hand-written programs do.
``unread_inits`` marks the ``TInit``s whose empty array no statement
reads. ``exec_code`` runs planned target code (Section 3.8) on either
engine.
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
from .monoids import BIN, CALLS, UN
from .translate import TAssign, TGroup, TInit, TWhile, assigned, carried_arrays, statements


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
    ``residual`` the rest. ``fuse_code`` marks the joins that Spark lowers
    as a hand-written program would (seq ignores the marks): ``small``,
    the ``(lo, hi)`` of each key of a keyless join's source that
    ``inRange`` bounds (``join_bounds``), which is broadcast if few rows;
    ``reads``, the assignment whose groups the join reads instead of its
    source: a fill and its update, read at ``at``, inside the fill
    (``fill_keys``), or, without ``at``, the fresh group-by just before,
    whose groups replace the scan before the join too (``carried_join``)."""

    source: Union[Scan, Range]
    conds: tuple
    keys: tuple
    residual: tuple
    small: Optional[tuple] = None
    reads: Optional[object] = None
    at: Optional[tuple] = None


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


def _bounded(steps) -> dict:
    """``{var: [(lo, hi), …]}``: the variables that plan ``steps`` bound
    by an ``inRange`` (``bounds``) or a range over them."""
    bs = bounds([c for st in steps if isinstance(st, (Filter, Join)) for c in st.conds])
    for st in steps:
        src = st.source if isinstance(st, Join) else st
        if isinstance(src, Range):
            bs.setdefault(src.name, []).append((src.lo, src.hi))
    return bs


def fill_keys(join: Join, fill: Fill, before) -> Optional[tuple]:
    """The terms a ``join`` reads the array of a range ``fill`` at, one
    per key, if its conditions are just one equality per key of its
    scan, and the plan steps ``before`` it bound each key's other side
    by the fill's range for that key; else None. Each key read then lies
    inside the fill, where the array is the fill and its update."""
    src = join.source
    if not (isinstance(src, Scan) and len(join.conds) == len(join.keys) == len(fill.keys)
            and len(src.names) == len(fill.keys) + 1):
        return None
    at = {s.name: o for o, s in join.keys if isinstance(s, Var)}
    bs = _bounded(before)
    out = []
    for k, b in zip(src.names, fill.bounds):
        o = at.get(k)
        if not (isinstance(o, Var) and b in bs.get(o.name, ())):
            return None
        out.append(o)
    return tuple(out)


def carried_join(reader: Plan, writer: Plan, name: str) -> Optional[int]:
    """The position in ``reader``'s steps of its join of the array
    ``name``, if ``writer`` (the update of ``name`` without its own
    lookup, ``own_lookup``) groups a scan of an array ``A`` by ``A``'s
    full key into keys of ``name``, and ``reader`` starts with its own
    scan of ``A``, filters, and that join on the same full key; else
    None. Every group holds one element of ``A``, so ``reader`` may read
    the groups carrying that element instead of both arrays."""
    w, r = writer.steps, reader.steps
    if writer.driver or reader.driver or not w or not r or not isinstance(w[0], Scan):
        return None
    g, scan = w[-1], w[0]
    keys = tuple(Var(n) for n in scan.names[:-1])
    if not (isinstance(g, GroupBy) and g.keys == keys and scan.array != name
            and sum(isinstance(st, GroupBy) for st in w) == 1 and isinstance(writer.head, TupleT)
            and writer.head.items[:-1] == tuple(Var(n) for n in g.names)
            and isinstance(r[0], Scan) and r[0].array == scan.array):
        return None
    i = 1
    while i < len(r) and isinstance(r[i], Filter):
        i += 1
    if i == len(r):
        return None
    j = r[i]
    if not (isinstance(j, Join) and isinstance(j.source, Scan) and j.source.array == name
            and not j.residual and len(j.source.names) == len(scan.names)):
        return None
    on = {(Var(a), Var(b)) for a, b in zip(r[0].names[:-1], j.source.names[:-1])}
    return i if set(j.keys) == on and len(j.conds) == len(on) else None


def fills_before(fill: Fill, st: TAssign) -> bool:
    """Whether the update ``st`` (rule 15a) of an array can be lowered
    with a range ``fill`` of that array that comes before it: it reads
    the array only by its lookup, and an ``inRange`` on the fill's
    bounds (or a range over them) constrains every key it groups by, so
    every key it updates was filled."""
    p = st.plan
    if st.look is None or p.driver or not p.steps or state_refs(st.term.new).count(st.name) != 1:
        return False
    keys = p.head.items[:-1]
    groups = [i for i, s in enumerate(p.steps) if isinstance(s, GroupBy)]
    if len(keys) != len(fill.keys) or len(groups) != 1:
        return False
    g, bs = p.steps[groups[0]], _bounded(p.steps[:groups[0]])
    for k, b in zip(keys, fill.bounds):
        key = g.keys[g.names.index(k.name)] if isinstance(k, Var) and k.name in g.names else None
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
    with. ``looks`` holds each member's own lookup (rule 15a,
    ``own_lookup``) where ``fuse_code`` has split it off, else None."""

    shared: tuple
    members: tuple
    total: bool
    looks: tuple


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
                     kinds.pop(), (None,) * len(plans))


def member_comp(st: TAssign):
    """The comprehension of an assignment that may join a group: a
    scalar's term, or the new bag of an array's merge into itself."""
    t = st.term
    if isinstance(t, Comp):
        return t
    if isinstance(t, Merge) and t.old == StateRef(st.name) and isinstance(t.new, Comp):
        return t.new
    return None


def _fits(group: list, st: TAssign) -> Optional[GroupPlan]:
    """The ``GroupPlan`` of the assignments ``group`` and ``st``, if
    ``st`` can join them: a destination of its own, none of theirs read
    by it nor its read by them, its comprehension of the same kind (a
    scalar's ``Total``, an array's ``GroupBy``), and one ``GroupPlan``
    for all of them; else None."""
    names, comps = {g.name for g in group}, [member_comp(s) for s in group + [st]]
    if (st.fill is not None or group[0].fill is not None or st.name in names
            or names & set(state_refs(st.term)) or any(st.name in state_refs(g.term) for g in group)
            or any(c is None for c in comps)):
        return None
    gp = plan_group(comps)
    return gp if gp is not None and all(gp.total == isinstance(s.term, Comp) for s in group + [st]) else None


def _broadcast(steps: tuple) -> tuple:
    """Plan ``steps`` with each join marked that may broadcast its source
    (``Join.small``, ``join_bounds``)."""
    return tuple(replace(s, small=join_bounds(s)) if isinstance(s, Join) else s for s in steps)


def _open_fill(out: list, name: str) -> Optional[int]:
    """The position in the block ``out`` of the last assignment to the
    array ``name``, if that is a range fill alone (``TAssign.fill``)
    that can move to the end of ``out``: no statement after it mentions
    ``name`` or assigns a scalar the fill reads."""
    later: set = set()  # the names the statements after it assign
    for j in range(len(out) - 1, -1, -1):
        st = out[j]
        if isinstance(st, TAssign) and st.name == name:
            alone = st.fill is not None and st.plan is None
            return j if alone and not later & set(state_refs(st.term)) else None
        if not isinstance(st, (TAssign, TInit)) or st.name == name or (
                isinstance(st, TAssign) and name in state_refs(st.term)):
            return None
        later.add(st.name)
    return None


def _fill(code: list) -> list:
    """Mark the range fills of a block, nested blocks included
    (``TAssign.fill``). A fill and an update of the same array after it
    (``fills_before``) become one assignment, the update's, marked with
    the fill and as fresh as the fill was, when the statements between
    them neither mention the array nor assign what the fill reads
    (``_open_fill``)."""
    out: list = []
    for st in code:
        new = member_comp(st) if isinstance(st, TAssign) else None
        j = _open_fill(out, st.name) if new is not None else None
        if j is not None and fills_before(out[j].fill, st):
            fill = out.pop(j)
            out.append(replace(st, fresh=fill.fresh, fill=fill.fill))
        elif new is not None and isinstance(st.term, Merge) and range_fill(new) is not None:
            out.append(replace(st, fill=range_fill(new), plan=None))
        elif isinstance(st, TWhile):
            out.append(replace(st, body=_fill(st.body)))
        else:
            out.append(st)
    return out


def _each(code: list, f) -> list:
    """``code`` with each statement but a loop replaced by ``f`` of it,
    in order, loop bodies included."""
    return [replace(st, body=_each(st.body, f)) if isinstance(st, TWhile) else f(st)
            for st in code]


def _mentions(st, name: str) -> bool:
    """Whether a statement, nested ones included, assigns or reads
    ``name``."""
    for s in statements([st]):
        terms = [s.cond] if isinstance(s, TWhile) else [s.term] if isinstance(s, TAssign) else []
        if getattr(s, "name", None) == name or any(name in state_refs(t) for t in terms):
            return True
    return False


def _inside(code: list) -> set:
    """The arrays that the program initialises before it mentions them
    otherwise, and assigns only by range fills over the same ranges,
    alone or with an update (``fills_before``), whose bounds read no
    scalar it assigns: every key they hold lies inside those ranges."""
    names, out = assigned(code), set()
    for name in {st.name for st in statements(code) if isinstance(st, TInit)}:
        sts = [st for st in statements(code) if isinstance(st, TAssign) and st.name == name]
        ranges = {st.fill.bounds if st.fill is not None else None for st in sts}
        if len(ranges) != 1 or None in ranges:
            continue
        (rs,) = ranges
        first = next(st for st in code if _mentions(st, name))
        if isinstance(first, TInit) and not {n for b in rs for x in b for n in state_refs(x)} & names:
            out.add(name)
    return out


def _pairs(code: list) -> set:
    """The arrays whose one assignment is a fill and its update, neither
    of which reads anything else that the program assigns: wherever the
    pair has run and no ``TInit`` since, the array inside the fill's
    ranges is a function of the update's groups (``fill_keys``)."""
    names, out = assigned(code), set()
    for name in names:
        sts = [st for st in statements(code) if isinstance(st, TAssign) and st.name == name]
        if len(sts) == 1 and sts[0].fill is not None and sts[0].plan is not None:
            (st,) = sts
            fill = [st.fill.value, *sum(st.fill.bounds, ()), st.term.new]
            if not ({n for t in fill for n in state_refs(t)} - {name}) & names:
                out.add(name)
    return out


def _reads(st: TAssign, ready: dict, prev) -> TAssign:
    """The array assignment ``st`` with each join marked that reads
    another assignment's groups instead of its source (``Join.reads``):
    a join inside the fill (``fill_keys``) of a fill and update in
    ``ready``, and the join to ``prev``, the statement just before it,
    if that is a fresh group-by whose groups carry what ``st`` joins it
    to (``carried_join``)."""
    p = st.plan if isinstance(st.term, Merge) else None
    if p is None:
        return st
    steps = list(p.steps)
    for i, j in enumerate(steps):
        w = ready.get(j.source.array) if isinstance(j, Join) and isinstance(j.source, Scan) else None
        at = fill_keys(j, w.fill, p.steps[:i]) if w is not None else None
        if at is not None:
            steps[i] = replace(j, reads=w, at=at)
    if (isinstance(prev, TAssign) and prev.plan is not None and prev.fresh and prev.fill is None
            and st.fill is None and state_refs(st.term.new).count(prev.name) == 1
            # the group-by reads its own array at most by its lookup
            and state_refs(member_comp(prev)).count(prev.name) == (prev.look is not None)):
        i = carried_join(p, prev.plan, prev.name)
        if i is not None:
            steps[i] = replace(steps[i], reads=prev)
    return replace(st, plan=replace(p, steps=tuple(steps)))


def _read_groups(code: list, pairs: set, ready: dict) -> list:
    """Mark the joins of a block's assignments that read other
    assignments' groups (``Join.reads``, ``_reads``). ``ready`` maps
    each array of ``pairs`` whose pair has run, with no ``TInit`` of it
    since, to that pair; a loop's body sees only those that the body
    does not assign."""
    out: list = []
    ready = dict(ready)
    for st in code:
        if isinstance(st, TWhile):
            ready = {n: w for n, w in ready.items() if n not in assigned(st.body)}
            st = replace(st, body=_read_groups(st.body, pairs, ready))
        elif isinstance(st, TInit):
            ready.pop(st.name, None)
        elif isinstance(st, TAssign):
            st = _reads(st, ready, out[-1] if out else None)
            if st.name in pairs:
                ready[st.name] = st
        out.append(st)
    return out


def plan_code(code: list) -> list:
    """``code`` with each comprehension planned, once: each assignment's
    (``TAssign.plan``, an update's own lookup split off into
    ``TAssign.look``) and each ``while`` test's (``TWhile.plan``). A
    comprehension that does not plan raises ``PlanError`` here."""
    out: list = []
    for st in code:
        if isinstance(st, TWhile):
            st = replace(st, body=plan_code(st.body),
                         plan=plan(st.cond) if isinstance(st.cond, Comp) else None)
        elif isinstance(st, TAssign) and member_comp(st) is not None:
            p, look = plan(member_comp(st)), None
            if isinstance(st.term, Merge):
                p, look = own_lookup(p, st.name)
            st = replace(st, plan=p, look=look)
        out.append(st)
    return out


def unread_inits(code: list) -> list:
    """``code`` with ``unread`` set on each ``TInit`` whose empty array
    no statement reads: the next statement of its block that mentions
    the array is a fresh assignment to it that reads it at most by its
    own lookup (``TAssign.look``), loop bodies included."""
    out: list = []
    for i, st in enumerate(code):
        if isinstance(st, TWhile):
            st = replace(st, body=unread_inits(st.body))
        elif isinstance(st, TInit):
            nxt = next((s for s in code[i + 1:] if _mentions(s, st.name)), None)
            comp = member_comp(nxt) if isinstance(nxt, TAssign) and nxt.fresh else None
            n = state_refs(comp).count(st.name) if comp is not None else -1
            if n == 0 or n == 1 and nxt.name == st.name and nxt.look is not None:
                st = replace(st, unread=True)
        out.append(st)
    return out


def fuse_code(code: list) -> list:
    """Lower a planned block for the Spark engine the way a hand-written
    program would:

    * mark its range fills (``_fill``) and its joins that may broadcast
      (``Join.small``);
    * mark the fills whose array holds no key outside them
      (``TAssign.inside``, ``_inside``), and the joins that read
      another assignment's groups instead of its array (``Join.reads``,
      ``_read_groups``);
    * group each run of consecutive assignments that one scan can serve
      (``_fits``) into a ``TGroup``, in ``while`` bodies too. Sources
      that are ranges are never grouped: a range costs nothing to
      generate again."""
    code = _each(_fill(code), lambda st: replace(st, plan=replace(st.plan, steps=_broadcast(st.plan.steps)))
                 if isinstance(st, TAssign) and st.plan is not None else st)
    inside = _inside(code)
    code = _each(code, lambda st: replace(st, inside=True)
                 if isinstance(st, TAssign) and st.name in inside else st)
    return _group(_read_groups(code, _pairs(code), {}))


def _group(code: list) -> list:
    """Group each run of consecutive assignments of a block that one
    scan can serve (``_fits``) into a ``TGroup``, with their
    ``GroupPlan``: its joins marked that may broadcast (``Join.small``),
    and each member's own lookup split off."""
    out: list = []
    run: list = []
    gp = None

    def close():
        if len(run) > 1:
            members, looks = zip(*(own_lookup(m, s.name) for m, s in zip(gp.members, run)))
            run[:] = [TGroup(run[:], replace(gp, shared=_broadcast(gp.shared), members=members,
                                             looks=looks))]
        out.extend(run)
        run.clear()

    for st in code:
        if isinstance(st, TAssign) and run and (g := _fits(run, st)) is not None:
            run.append(st)
            gp = g
            continue
        close()
        if isinstance(st, TAssign):
            run.append(st)
        elif isinstance(st, TWhile):
            out.append(replace(st, body=_group(st.body)))
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
        f, op = compile_term(t.expr, env), UN[t.op]
        return lambda r: op(f(r))
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
def _scalar(engine, term, p: Optional[Plan], env: dict) -> list:
    """The elements of a scalar's new bag or a loop's test, whose plan is
    ``p``: none leaves the scalar as it is and ends the loop, more than
    one is an error. A term without generators is not a comprehension:
    no engine needed."""
    vs = engine.scalar(p, env, show(term)) if p is not None else [compile_term(term, env)({})]
    if len(vs) > 1:
        raise engine.error(f"scalar assignment from a bag with more than one element: {show(term)}")
    return vs


def exec_code(code, env: dict, engine, types: dict) -> dict:
    """Execute planned target code (``plan_code``) on ``engine``,
    updating and returning the environment. The engine gives:

    * ``empty(t)``: a new empty array of type ``t``; an ``unread``
      ``TInit`` builds none, and drops the array from ``env``;
    * ``array(st, t, env)``: the new value of the array ``st`` assigns,
      whose term is a merge ``X ⊲ comp`` into that array ``X`` (rules
      14c and 15a), with a head of ``t.ndims`` keys and a value, after
      the range fill ``st.fill`` if there is one; if ``st.fresh``, the
      old array is empty, whether ``env`` holds it or not;
    * ``scalar(p, env, what)``: the elements of the comprehension
      ``what`` (its text, for errors), whose plan is ``p``;
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
        if isinstance(st, TInit) and st.unread:
            env.pop(st.name, None)
        elif isinstance(st, TInit):
            env[st.name] = engine.empty(st.type)
        elif isinstance(st, TAssign):
            new, t = member_comp(st), types.get(st.name)
            if new is not None and st.plan is None and st.fill is None:
                raise engine.error(f"an assignment that was not planned (plan_code): {show(st.term)}")
            if isinstance(t, A.TArray):
                if not (isinstance(st.term, Merge) and new is not None and isinstance(new.head, TupleT)
                        and len(new.head.items) == t.ndims + 1):
                    raise engine.error(f"array assignment that is no merge of keys and a value "
                                       f"into {st.name}: {show(st.term)}")
                env[st.name] = engine.array(st, t, env)
            else:
                vs = _scalar(engine, st.term, st.plan, env)
                if vs:
                    env[st.name] = vs[0]
        elif isinstance(st, TGroup):
            env.update(engine.group(st.plan, st.stmts, env, types))
        elif isinstance(st, TWhile):
            carried = carried_arrays(st.body, types)
            test_reads = bool(set(state_refs(st.cond)) & set(carried))
            ran = False  # an iteration ran since the last boundary
            while True:
                if ran and test_reads:
                    engine.boundary(env, carried)
                test = _scalar(engine, st.cond, st.plan, env)
                if not (test and test[0]):
                    break
                if ran and not test_reads:
                    engine.boundary(env, carried)
                exec_code(st.body, env, engine, types)
                ran = True
        else:
            raise engine.error(f"unknown target statement {st!r}")
    return env
