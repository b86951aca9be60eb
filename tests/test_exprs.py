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


@pytest.mark.parametrize("text", ["2n", "(n", "n+", "n)", "n<", "n$1", ""])
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
    with pytest.raises(TableFormatError):
        syntax_check_relation("n")


def test_variables():
    assert variables("odd(n-k)") == {"n", "k"}
    assert variables("2*k>=n+2") == {"k", "n"}
    assert variables("4") == set()
