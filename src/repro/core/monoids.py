"""The operators and monoids of the comprehension calculus (paper
Section 3.3), defined once for every engine.

* ``IDENTITY`` maps each ⊕-monoid of an incremental update to its
  identity (``argmin``'s is "absent", ``None``); ``identity`` gives it
  for an element type;
* ``BIN`` maps each binary operator, the monoids included, to its Python
  function;
* ``CALLS`` maps each built-in function to its Python function.

The interpreter, the sequential engine and the Spark engine's
driver-side values compute with these tables, and normalization folds
constants with ``BIN``. The translator writes each update's identity
into the IR itself (``identity``), so neither engine reads
``IDENTITY``; the interpreter does. The Spark engine spells the same
operators in SQL; where Spark's meaning is the reference (NaN orders
above every double in ``min``, ``max`` and ``argmin``), the functions
here follow it.
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


def _plus(a, b):
    """``+`` extended componentwise to tuples (the paper's Avg-style
    monoids are componentwise sums); the scalar identity 0 acts as the
    identity for tuples as well."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return tuple(x + y for x, y in zip(a, b))
    if isinstance(b, tuple):
        return b
    if isinstance(a, tuple):
        return a
    return a + b


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


BIN = {
    "+": _plus,
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
    "min": _min,
    "max": _max,
    "argmin": _argmin,
}

CALLS = {
    "sqrt": math.sqrt,
    "abs": abs,
    "exp": math.exp,
    "log": math.log,
    "floor": math.floor,
    "ceil": math.ceil,
    "dist2": lambda p, c: (p[0] - c[0]) ** 2 + (p[1] - c[1]) ** 2,
    "coalesce": lambda a, b: b if a is None else a,
}
