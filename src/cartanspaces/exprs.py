"""Arithmetic expressions used in catalog data files.

Grammar (all arithmetic is exact):

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | atom
    atom     := INT | NAME | '(' expr ')'
    relation := expr OP expr | 'odd(' expr ')' | 'even(' expr ')'
    OP       := '<=' | '>=' | '<' | '>' | '!=' | '='

Multiplication is always written explicitly ('2*n-1', never '2n-1').
Each text is parsed once into a closure over the parameter dict, cached by
the text.  Values are ints until a '/' is taken and Fractions from there
on, so 'k/n' is an exact fraction and never a float.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import lru_cache

from .errors import TableFormatError

# any other character becomes a one-character token the grammar rejects
_TOKEN = r"\d+|[a-zA-Z_]\w*|<=|>=|!=|[-+*/()<>=]|\S"
_NAME = r"[a-zA-Z_]\w*"
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_COMPARE = {"<=": operator.le, ">=": operator.ge, "<": operator.lt,
            ">": operator.gt, "=": operator.eq, "!=": operator.ne}


def _integer(value, text: str, params: dict) -> int:
    if value.denominator != 1:
        raise TableFormatError(f"expression {text!r} is not an integer at {params}")
    return int(value)


class _Parser:
    """Recursive descent over one text, returning a closure per node."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = re.findall(_TOKEN, text)
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise TableFormatError(f"unexpected end of expression {self.text!r}")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.take() != tok:
            raise TableFormatError(f"missing {tok!r} in expression {self.text!r}")

    def whole(self, relation: bool):
        fn = self.relation() if relation else self.expr()
        if self.peek() is not None:
            raise TableFormatError(f"trailing input in expression {self.text!r}")
        return fn

    def relation(self):
        text = self.text
        if self.tokens[:2] in (["odd", "("], ["even", "("]):
            parity = int(self.take() == "odd")
            self.take()
            inner = self.expr()
            self.expect(")")
            return lambda p: _integer(inner(p), text, p) % 2 == parity
        lhs = self.expr()
        op = self.peek()
        if op not in _COMPARE:
            raise TableFormatError(f"not a relation: {text!r}")
        self.take()
        rhs, compare = self.expr(), _COMPARE[op]
        return lambda p: compare(lhs(p), rhs(p))

    def expr(self):
        fn = self.term()
        while self.peek() in ("+", "-"):
            op = _ARITH[self.take()]
            fn = _binary(op, fn, self.term())
        return fn

    def term(self):
        fn = self.unary()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                fn = _binary(operator.mul, fn, self.unary())
            else:
                fn = self.quotient(fn, self.unary())
        return fn

    def quotient(self, num, den):
        text = self.text

        def fn(p):
            d = den(p)
            if d == 0:
                raise TableFormatError(f"division by zero in expression {text!r} at {p}")
            return Fraction(num(p), d)
        return fn

    def unary(self):
        if self.peek() == "-":
            self.take()
            inner = self.unary()
            return lambda p: -inner(p)
        return self.atom()

    def atom(self):
        tok = self.take()
        if tok == "(":
            fn = self.expr()
            self.expect(")")
            return fn
        if tok.isdigit():
            value = int(tok)
            return lambda p: value
        if re.fullmatch(_NAME, tok):
            return self.parameter(tok)
        raise TableFormatError(f"unexpected token {tok!r} in expression {self.text!r}")

    def parameter(self, name: str):
        text = self.text

        def fn(p):
            try:
                value = p[name]
            except KeyError:
                raise TableFormatError(f"unbound parameter {name!r} in expression {text!r}") from None
            if isinstance(value, str):
                raise TableFormatError(
                    f"parameter {name!r} is {value!r}, not a number, in expression {text!r}")
            return value
        return fn


def _binary(op, lhs, rhs):
    return lambda p: op(lhs(p), rhs(p))


@lru_cache(maxsize=4096)
def _closure(text: str, relation: bool = False):
    return _Parser(text).whole(relation)


def evaluate(text: str, params: dict) -> Fraction:
    return Fraction(_closure(text)(params))


def evaluate_int(text: str, params: dict) -> int:
    return _integer(_closure(text)(params), text, params)


def check_relation(text: str, params: dict) -> bool:
    return _closure(text, True)(params)


def variables(text: str) -> set[str]:
    """All parameter names occurring in an expression or relation."""
    return set(re.findall(_NAME, text)) - {"odd", "even"}


def syntax_check(text: str) -> None:
    """Compile an expression; raises TableFormatError on bad syntax."""
    _closure(text)


def syntax_check_relation(text: str) -> None:
    _closure(text, True)
