"""Arithmetic expressions used in catalog data files.

Grammar (all arithmetic is exact):

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | atom
    atom     := INT | NAME | '(' expr ')'
    relation := expr OP expr | 'odd(' expr ')' | 'even(' expr ')'
    OP       := '<=' | '>=' | '<' | '>' | '!=' | '='

INT is a decimal integer without leading zeros; multiplication is always
explicit ('2*n-1', never '2n-1').  The grammar is a subset of Python's:
`ast.parse` reads each text, with '=' read as '==', and every node outside
the grammar is refused.  Each text is compiled once into a closure over the
parameter dict, cached by the text.  Values are ints until a '/' is taken
and Fractions from there on, so 'k/n' is exact and never a float.
"""

import ast
import operator
import re
from fractions import Fraction
from functools import lru_cache

from .errors import TableFormatError

_NAME = r"[a-zA-Z_]\w*"
# names, decimal integers without leading zeros, operators: never '0x10', '1_0', '1.5'
_LEXICON = re.compile(rf"(?:(?:{_NAME}|0|[1-9]\d*)\b|[-+*/()<>=!\s])*", re.ASCII)
_ARITH = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}
_COMPARE = {ast.LtE: operator.le, ast.GtE: operator.ge, ast.Lt: operator.lt,
            ast.Gt: operator.gt, ast.Eq: operator.eq, ast.NotEq: operator.ne}
_PARITY = {"odd": 1, "even": 0}


def _integer(value, text: str, params: dict) -> int:
    if value.denominator != 1:
        raise TableFormatError(f"expression {text!r} is not an integer at {params}")
    return int(value)


def _expr(node: ast.expr, text: str):
    """The closure of an expression node of the grammar."""
    match node:
        case ast.BinOp(lhs, op, rhs) if type(op) in _ARITH:
            return _binary(_ARITH[type(op)], _expr(lhs, text), _expr(rhs, text))
        case ast.BinOp(lhs, ast.Div(), rhs):
            return _quotient(_expr(lhs, text), _expr(rhs, text), text)
        case ast.UnaryOp(ast.USub(), operand):
            inner = _expr(operand, text)
            return lambda p: -inner(p)
        case ast.Constant(value) if type(value) is int:  # not True or False
            return lambda p: value
        case ast.Name(name):
            return _parameter(name, text)
    raise TableFormatError(f"unexpected {ast.unparse(node)!r} in expression {text!r}")


def _binary(op, lhs, rhs):
    return lambda p: op(lhs(p), rhs(p))


def _quotient(num, den, text: str):
    def fn(p):
        if (d := den(p)) == 0:
            raise TableFormatError(f"division by zero in expression {text!r} at {p}")
        return Fraction(num(p), d)
    return fn


def _parameter(name: str, text: str):
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


@lru_cache(maxsize=4096)
def _closure(text: str, relation: bool = False):
    if not _LEXICON.fullmatch(text):
        raise TableFormatError(f"expression {text!r} holds a token outside the grammar")
    source = re.sub(r"(?<![<>!])=", "==", text.strip())  # a literal '==' becomes '===='
    try:
        node = ast.parse(source, mode="eval").body
        if not relation:
            return _expr(node, text)
        whole = (node.col_offset, node.end_col_offset) == (0, len(source))  # not '(n<3)'
        match node:
            case ast.Compare(lhs, [op], [rhs]) if whole and type(op) in _COMPARE:
                return _binary(_COMPARE[type(op)], _expr(lhs, text), _expr(rhs, text))
            case ast.Call(ast.Name(name), [arg], []) if whole and name in _PARITY:
                inner, parity = _expr(arg, text), _PARITY[name]
                return lambda p: _integer(inner(p), text, p) % 2 == parity
    except (SyntaxError, RecursionError):
        raise TableFormatError(f"malformed expression {text!r}") from None
    raise TableFormatError(f"not a relation: {text!r}")


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
