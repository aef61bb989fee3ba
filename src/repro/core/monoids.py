"""The operators and monoids of the comprehension calculus (paper
Section 3.3), defined once for every engine.

* ``IDENTITY`` maps each ⊕-monoid of an incremental update to its
  identity (``argmin``'s is "absent", ``None``); ``identity`` gives it
  for an element type;
* ``BIN`` maps each binary operator, the monoids included, to its Python
  function, and ``UN`` each unary one;
* ``CALLS`` maps each built-in function to its Python function.

The interpreter, the sequential engine and the Spark engine's
driver-side values compute with these tables, and normalization folds
constants with ``BIN``. The translator writes each update's identity
into the IR itself (``identity``), so neither engine reads
``IDENTITY``; the interpreter does. The Spark engine spells the same
operators in SQL; where Spark's meaning is the reference (NaN equals
itself and orders above every double, in the comparisons, ``min``,
``max`` and ``argmin``), the functions here follow it. Over doubles,
``sqrt``, ``exp`` and ``log`` give IEEE 754's NaN and infinities, as
Java's ``Math`` does, where Python's ``math`` raises; Spark's spelling
of ``log`` follows them too. A division or remainder by zero raises on
every engine, and so does ``floor`` or ``ceil`` of a NaN or an
infinity. An integer result outside the 64-bit ``long`` raises
``OverflowError``, as Spark's ANSI arithmetic raises
``ARITHMETIC_OVERFLOW``: ``+``, ``-``, ``*`` and negation here, and so
every fold of ``+`` or ``*``.
"""
from __future__ import annotations

import math

from .ast import TBasic

IDENTITY = {
    "+": 0,
    "*": 1,
    "min": float("inf"),
    "max": float("-inf"),
    "&&": True,
    "||": False,
    "argmin": None,
}


LONG_MIN, LONG_MAX = -(2**63), 2**63 - 1


def identity(monoid: str, elem=None):
    """The identity of ``monoid`` over elements of type ``elem``: a
    long's bounds for ``min``/``max`` over ``long`` (an infinity is a
    double, and would make the result one), else ``IDENTITY[monoid]``."""
    if elem == TBasic("long") and monoid in ("min", "max"):
        return LONG_MAX if monoid == "min" else LONG_MIN
    return IDENTITY[monoid]


def _long(r):
    """``r``, unless it is an integer outside the 64-bit ``long``."""
    if isinstance(r, int) and not LONG_MIN <= r <= LONG_MAX:
        raise OverflowError(f"long overflow: {r} is outside the 64-bit range")
    return r


def _plus(a, b):
    """``+`` extended componentwise to tuples (the paper's Avg-style
    monoids are componentwise sums); the scalar identity 0 acts as the
    identity for tuples as well."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return tuple(_long(x + y) for x, y in zip(a, b))
    if isinstance(b, tuple):
        return b
    if isinstance(a, tuple):
        return a
    return _long(a + b)


# Spark orders NaN above every double, and so do these: Python's min/max
# answer by argument order (max(nan, 1.0) is nan, max(1.0, nan) is 1.0).
# Ties keep the first argument, as min/max do.
def _min(a, b):
    return b if b < a or a != a else a


def _max(a, b):
    return b if b > a or b != b else a


def _argmin(a, b):
    """Keep the pair with the smaller ``_2``, NaN ordered above every
    double as by ``_min``; ``None`` is the identity."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a[1] <= b[1] or b[1] != b[1] else b


# Spark's comparisons of doubles: NaN equals NaN and is above every
# other double. For values that are not NaN these are Python's own.
def _eq(a, b):
    return a == b or (a != a and b != b)


def _lt(a, b):
    return a < b or (b != b and a == a)


def _le(a, b):
    return a <= b or b != b


def _sqrt(x):
    return math.sqrt(x) if x >= 0 else math.nan


def _exp(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log(x):
    return math.log(x) if x > 0 else -math.inf if x == 0 else math.nan


BIN = {
    "+": _plus,
    "-": lambda a, b: _long(a - b),
    "*": lambda a, b: _long(a * b),
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
    "==": _eq,
    "!=": lambda a, b: not _eq(a, b),
    "<": _lt,
    "<=": _le,
    ">": lambda a, b: _lt(b, a),
    ">=": lambda a, b: _le(b, a),
    "&&": lambda a, b: a and b,
    "||": lambda a, b: a or b,
    "min": _min,
    "max": _max,
    "argmin": _argmin,
}

UN = {"-": lambda a: _long(-a), "!": lambda a: not a}

CALLS = {
    "sqrt": _sqrt,
    "abs": abs,
    "exp": _exp,
    "log": _log,
    "floor": math.floor,
    "ceil": math.ceil,
    "dist2": lambda p, c: (p[0] - c[0]) ** 2 + (p[1] - c[1]) ** 2,
    "coalesce": lambda a, b: b if a is None else a,
}
