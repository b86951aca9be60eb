import operator
import random
from fractions import Fraction

import pytest

from cartanspaces.errors import TableFormatError
from cartanspaces.exprs import (
    check_relation,
    evaluate,
    evaluate_int,
    syntax_check,
    syntax_check_relation,
    variables,
)


def test_division_is_exact_and_integers_stay_integers():
    assert evaluate("n/2", {"n": 3}) == Fraction(3, 2)
    assert evaluate("(n-k)*k/n", {"n": 5, "k": 3}) == Fraction(6, 5)
    assert evaluate("n+1/2", {"n": 2}) == Fraction(5, 2)
    value = evaluate_int("2*n-(k+1)", {"n": 4, "k": 2})
    assert value == 5 and type(value) is int
    assert type(evaluate_int("6/n", {"n": 3})) is int
    assert evaluate_int("-n", {"n": 4}) == -4


def test_evaluate_int_refuses_a_fraction():
    with pytest.raises(TableFormatError):
        evaluate_int("n/2", {"n": 3})


def test_zero_divisor_and_bad_parameters_raise():
    with pytest.raises(TableFormatError):
        evaluate("1/(n-1)", {"n": 1})
    with pytest.raises(TableFormatError):
        evaluate("n+1", {})
    with pytest.raises(TableFormatError):
        evaluate_int("n", {"n": "A"})
    with pytest.raises(TableFormatError):
        check_relation("n>=2", {"k": 2})


@pytest.mark.parametrize("text", [
    "2n", "(n", "n+", "n)", "n<", "n$1", "",
    # Python reads these, the grammar does not
    "0x10", "1_0", "1.5", "007", "n**2", "n%2", "n//2", "+n", "1<n<3", "n==2", "odd(n,k)",
    "f(n)", "n.real", "[n]", "True", "n if k else 1",
])
def test_syntax_errors(text):
    with pytest.raises(TableFormatError):
        syntax_check(text)
    with pytest.raises(TableFormatError):
        syntax_check_relation(text)


def test_relations():
    p = {"n": 5, "k": 2}
    assert check_relation("odd(n)", p) and not check_relation("even(n)", p)
    assert check_relation("even(k*n)", p)
    assert check_relation("n!=k", p) and not check_relation("n!=5", p)
    assert check_relation("k<=2", p) and not check_relation("n<=k", p)
    assert check_relation("2*k>=n-1", p) and not check_relation("2*k>=n+2", p)
    assert check_relation("n=5", p) and check_relation(" k < n ", p)
    assert check_relation("k/n<1/2", p)
    with pytest.raises(TableFormatError):
        check_relation("odd(n/2)", p)
    syntax_check_relation("odd(2*n+1)")
    for text in ["n", "odd(n)+1", "(n<3)"]:
        with pytest.raises(TableFormatError):
            syntax_check_relation(text)


def test_variables():
    assert variables("odd(n-k)") == {"n", "k"}
    assert variables("2*k>=n+2") == {"k", "n"}
    assert variables("4") == set()


# texts derived at random from the grammar in the module docstring, with
# their exact values: no second parser is needed to know the answer
ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
RELATIONS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt,
             "!=": operator.ne, "=": operator.eq}


def _gap(rng):
    return rng.choice(("", "", " "))


def _derive_expr(rng, params, depth):
    text, value = _derive_term(rng, params, depth)
    for _ in range(rng.randrange(3)):
        op = rng.choice("+-")
        rhs, v = _derive_term(rng, params, depth)
        text, value = f"{text}{_gap(rng)}{op}{_gap(rng)}{rhs}", ARITH[op](value, v)
    return text, value


def _derive_term(rng, params, depth):
    text, value = _derive_unary(rng, params, depth)
    for _ in range(rng.randrange(3)):
        rhs, v = _derive_unary(rng, params, depth)
        op = rng.choice("*/") if v else "*"
        text, value = f"{text}{_gap(rng)}{op}{_gap(rng)}{rhs}", ARITH[op](value, v)
    return text, value


def _derive_unary(rng, params, depth):
    if rng.random() < 0.2:
        text, value = _derive_unary(rng, params, depth)
        return f"-{text}", -value
    kind = rng.randrange(3 if depth else 2)
    if kind == 0:
        value = rng.choice((0, 1, 2, 3, rng.randrange(1000)))
        return str(value), Fraction(value)
    if kind == 1:
        name = rng.choice(sorted(params))
        return name, Fraction(params[name])
    text, value = _derive_expr(rng, params, depth - 1)
    return f"({_gap(rng)}{text}{_gap(rng)})", value


def _params(rng):
    return {name: rng.randint(-4, 9) for name in ("n", "k", "m")}


def test_derived_expressions_evaluate_to_their_derived_values():
    rng = random.Random(2006)
    integral = 0
    for _ in range(2000):
        params = _params(rng)
        text, value = _derive_expr(rng, params, 2)
        assert evaluate(text, params) == value, text
        if value.denominator == 1:
            integral += 1
            got = evaluate_int(text, params)
            assert got == value and type(got) is int, text
        else:
            with pytest.raises(TableFormatError):
                evaluate_int(text, params)
    assert 500 < integral < 1900   # both branches are well exercised


def test_derived_relations_hold_exactly_when_their_values_say():
    rng = random.Random(2007)
    for _ in range(1000):
        params = _params(rng)
        (lhs, a), (rhs, b) = _derive_expr(rng, params, 1), _derive_expr(rng, params, 1)
        op = rng.choice(sorted(RELATIONS))
        text = f"{lhs}{_gap(rng)}{op}{_gap(rng)}{rhs}"
        assert check_relation(text, params) == RELATIONS[op](a, b), text
        parity = rng.choice(("odd", "even"))
        text = f"{parity}({lhs})"
        if a.denominator == 1:
            assert check_relation(text, params) == (a % 2 == (parity == "odd")), text
        else:
            with pytest.raises(TableFormatError):
                check_relation(text, params)
