"""Recursive-descent parser for the loop-based language (Figure 1).

Concrete syntax (examples; statements end with ``;``)::

    var sum: double = 0.0;
    var C: map[string, long] = map();
    var R: matrix[double] = matrix();
    for i = 0, n-1 do
      for j = 0, n-1 do
        R[i, j] := M[i, j] + N[i, j];
    for w in words do C[w] += 1;
    while (k < 10) { k += 1; };
    if (v < 100) sum += v;

Incremental updates: ``+=``, ``-=`` (sugar for ``+=`` of the negation),
``*=``, ``min=``, ``max=``, ``&&=``, ``||=``, ``argmin=``.
Projections: ``p.red`` (record field), ``t._1`` (tuple position).
"""
from __future__ import annotations

import re

from .ast import (
    DIndex,
    DVar,
    EBin,
    ECall,
    EConst,
    EIndex,
    EProj,
    ETuple,
    EUn,
    EVar,
    SAssign,
    SBlock,
    SDecl,
    SFor,
    SForIn,
    SIf,
    SIncr,
    SWhile,
    TArray,
    TBasic,
    TTuple,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+|\d+(?:[eE][+-]?\d+)?)
  | (?P<str>"[^"]*")
  | (?P<op>:=|\+=|-=|\*=|&&=|\|\|=|==|!=|<=|>=|&&|\|\||[()\[\]{},;.+\-*/%<>!=:])
  | (?P<id>[A-Za-z_][A-Za-z_0-9]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"var", "for", "in", "do", "while", "if", "else", "true", "false"}
_INCR_OPS = {"+=": "+", "*=": "*", "&&=": "&&", "||=": "||"}
_NAMED_INCR = {"min", "max", "argmin"}
# Binary operators by precedence, loosest first, each level with whether
# it chains: all are left-associative, but comparisons do not chain.
_BINARY = (
    ({"||"}, True),
    ({"&&"}, True),
    ({"==", "!=", "<", "<=", ">", ">="}, False),
    ({"+", "-"}, True),
    ({"*", "/", "%"}, True),
)
_BASIC_TYPES = {
    "int": "long",
    "long": "long",
    "float": "double",
    "double": "double",
    "bool": "bool",
    "boolean": "bool",
    "string": "string",
}


class ParseError(Exception):
    """Raised on malformed source programs."""


def _tokenize(src: str):
    toks, pos = [], 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            raise ParseError(f"bad character at {pos}: {src[pos:pos + 20]!r}")
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        toks.append((m.lastgroup, m.group()))
    toks.append(("eof", ""))
    return toks


class Parser:
    """One-token-lookahead parser over the token list."""

    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.i = 0

    # --- token helpers ---
    def peek(self, k: int = 0):
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str):
        kind, val = self.next()
        if val != text:
            raise ParseError(f"expected {text!r}, got {val!r} (token {self.i})")
        return val

    def at(self, text: str) -> bool:
        return self.peek()[1] == text

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def parse_list(self, item, close: str) -> tuple:
        """``item (, item)* close``: the items."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        self.expect(close)
        return tuple(items)

    # --- program / statements ---
    def parse_program(self) -> SBlock:
        stmts = []
        while self.peek()[0] != "eof":
            stmts.append(self.parse_stmt())
            self.accept(";")
        return SBlock(stmts)

    def parse_stmt(self):
        kind, val = self.peek()
        if val == "var":
            return self.parse_decl()
        if val == "for":
            return self.parse_for()
        if val == "while":
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            return SWhile(cond, self.parse_stmt())
        if val == "if":
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_stmt()
            els = None
            # allow "; else" or "else" directly after the then-branch
            j = self.i
            if self.accept(";") and not self.at("else"):
                self.i = j
            if self.accept("else"):
                els = self.parse_stmt()
            return SIf(cond, then, els)
        if val == "{":
            self.next()
            stmts = []
            while not self.at("}"):
                stmts.append(self.parse_stmt())
                self.accept(";")
            self.expect("}")
            return SBlock(stmts)
        return self.parse_assign()

    def parse_decl(self) -> SDecl:
        self.expect("var")
        kind, name = self.next()
        if kind != "id":
            raise ParseError(f"expected identifier after var, got {name!r}")
        self.expect(":")
        typ = self.parse_type()
        self.expect("=")
        # empty-collection initializers: vector(), matrix(), map()
        if self.peek()[1] in ("vector", "matrix", "map") and self.peek(1)[1] == "(":
            self.next()
            self.expect("(")
            self.expect(")")
            return SDecl(name, typ, None)
        return SDecl(name, typ, self.parse_expr())

    def parse_type(self):
        kind, val = self.next()
        if val in _BASIC_TYPES:
            return TBasic(_BASIC_TYPES[val])
        if val in ("vector", "matrix", "map"):
            self.expect("[")
            if val == "map":
                key = self.parse_type()
                self.expect(",")
                elem = self.parse_type()
                self.expect("]")
                return TArray(1, elem, key)
            elem = self.parse_type()
            self.expect("]")
            return TArray(1 if val == "vector" else 2, elem)
        if val == "(":
            return TTuple(self.parse_list(self.parse_type, ")"))
        raise ParseError(f"bad type {val!r}")

    def parse_assign(self):
        dest = self.parse_dest()
        kind, val = self.peek()
        if val == ":=":
            self.next()
            return SAssign(dest, self.parse_expr())
        if val in _INCR_OPS:
            self.next()
            return SIncr(dest, _INCR_OPS[val], self.parse_expr())
        if val == "-=":
            self.next()
            return SIncr(dest, "+", EUn("-", self.parse_expr()))
        if val in _NAMED_INCR and self.peek(1)[1] == "=":
            self.next()
            self.next()
            return SIncr(dest, val, self.parse_expr())
        raise ParseError(f"expected assignment operator, got {val!r}")

    def parse_dest(self):
        kind, name = self.next()
        if kind != "id" or name in _KEYWORDS:
            raise ParseError(f"bad destination {name!r}")
        if self.accept("["):
            return DIndex(name, self.parse_list(self.parse_expr, "]"))
        return DVar(name)

    def parse_for(self):
        self.expect("for")
        kind, var = self.next()
        if self.accept("in"):
            coll = self.parse_expr()
            self.expect("do")
            return SForIn(var, coll, self.parse_stmt())
        self.expect("=")
        lo = self.parse_expr()
        self.expect(",")
        hi = self.parse_expr()
        self.expect("do")
        return SFor(var, lo, hi, self.parse_stmt())

    # --- expressions (precedence climbing) ---
    def parse_expr(self, level: int = 0):
        if level == len(_BINARY):
            return self.parse_unary()
        ops, chains = _BINARY[level]
        e = self.parse_expr(level + 1)
        while self.peek()[1] in ops:
            e = EBin(self.next()[1], e, self.parse_expr(level + 1))
            if not chains and self.peek()[1] in ops:
                raise ParseError(
                    f"comparisons do not chain: {self.peek()[1]!r} after {e.op!r}"
                )
        return e

    def parse_unary(self):
        if self.peek()[1] in ("-", "!"):
            return EUn(self.next()[1], self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self):
        e = self.parse_atom()
        while self.at("."):
            self.next()
            kind, f = self.next()
            if kind not in ("id", "num"):
                raise ParseError(f"bad projection .{f!r}")
            e = EProj(e, f)
        return e

    def parse_atom(self):
        kind, val = self.next()
        if kind == "num":
            return EConst(float(val) if ("." in val or "e" in val or "E" in val) else int(val))
        if kind == "str":
            return EConst(val[1:-1])
        if val == "true":
            return EConst(True)
        if val == "false":
            return EConst(False)
        if val == "(":
            items = self.parse_list(self.parse_expr, ")")
            return items[0] if len(items) == 1 else ETuple(items)
        if kind == "id":
            if self.accept("("):
                args = () if self.accept(")") else self.parse_list(self.parse_expr, ")")
                return ECall(val, args)
            if self.accept("["):
                return EIndex(val, self.parse_list(self.parse_expr, "]"))
            return EVar(val)
        raise ParseError(f"unexpected token {val!r}")


def parse(src: str) -> SBlock:
    """Parse a loop-language program into an AST block."""
    return Parser(src).parse_program()


def parse_expr(src: str):
    """Parse a single expression (used in tests)."""
    p = Parser(src)
    e = p.parse_expr()
    if p.peek()[0] != "eof":
        raise ParseError(f"trailing input after expression: {p.peek()[1]!r}")
    return e
