import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgforge import (
    ExprSyntaxError,
    LaurentPoly,
    NotLaurentError,
    UnknownVariableError,
    ZeroDenominatorError,
    laurent_normalize,
    parse,
    parse_poly,
)

from lgforge.parsing import check_names, spec_names

import oracles


def test_basic_terms():
    f = parse_poly("x + y + x^-1*y^-1", ["x", "y"])
    assert f.terms == {(1, 0): 1, (0, 1): 1, (-1, -1): 1}


def test_binomial_over_monomial():
    f = parse_poly("(1+y)^2/(x*y)", ["x", "y"])
    assert f.terms == {(-1, -1): 1, (-1, 0): 2, (-1, 1): 1}


def test_cancellation_to_zero():
    assert parse_poly("x - x", ["x", "y"]).is_zero()


def test_rational_coefficients():
    f = parse_poly("1/2*x + 3/4", ["x"])
    assert f.terms == {(1,): Fraction(1, 2), (0,): Fraction(3, 4)}


def test_negative_exponents_and_unary_minus():
    f = parse_poly("-x^-2 + 2^-3", ["x"])
    assert f.terms == {(-2,): -1, (0,): Fraction(1, 8)}


def test_power_binds_tighter_than_division():
    assert parse_poly("3/4^2", ["x"]) == LaurentPoly.constant(1, Fraction(3, 16), ("x",))


def test_whitespace_is_insignificant():
    assert parse_poly(" x +  y ", ["x", "y"]) == parse_poly("x+y", ["x", "y"])


def test_syntax_error_reports_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x + * y", ["x", "y"])
    assert err.value.position == 4


def test_unknown_variable_reports_name_and_position():
    with pytest.raises(UnknownVariableError) as err:
        parse("x + q", ["x", "y"])
    assert err.value.name == "q"
    assert err.value.position == 4


def test_implicit_multiplication_is_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("2 x", ["x"])
    with pytest.raises(ExprSyntaxError):
        parse("x y", ["x", "y"])


def test_unbalanced_parens():
    with pytest.raises(ExprSyntaxError):
        parse("(x + y", ["x", "y"])


def test_trailing_garbage():
    with pytest.raises(ExprSyntaxError):
        parse("x + y)", ["x", "y"])


def test_literal_zero_denominator():
    with pytest.raises(ZeroDenominatorError):
        parse("1/0", ["x"])
    with pytest.raises(ZeroDenominatorError):
        parse("x/(y - y)", ["x", "y"])


def test_duplicate_varnames_rejected():
    with pytest.raises(ValueError):
        parse("x", ["x", "x"])


@pytest.mark.parametrize("names, message", [
    (["x", "x"], "duplicate variable name 'x'"),
    (["x", "y z"], "'y z' is not a variable name"),
    (["x", ""], "'' is not a variable name"),
    (["1x"], "'1x' is not a variable name"),
    (["x_", "x-"], "'x-' is not a variable name"),
    (["é"], "'é' is not a variable name"),
])
def test_variable_names_are_names_of_the_grammar(names, message):
    with pytest.raises(ValueError, match=message):
        check_names(names)
    with pytest.raises(ValueError, match=message):
        spec_names()(names)
    with pytest.raises(ValueError, match=message):
        parse("1", names)


def test_valid_variable_names_pass_unchanged():
    names = ["x", "Y2", "z_1", "a_B_3"]
    check_names(names)
    assert spec_names(4)(names) == names
    assert parse_poly("x*Y2 + z_1/a_B_3", names).render() == "x*Y2 + z_1*a_B_3^-1"
    with pytest.raises(ValueError, match="expected 3 values"):
        spec_names(3)(names)


# ---------------------------------------------------------------------------
# laurent_normalize
# ---------------------------------------------------------------------------

def test_normalize_exact_quotient():
    assert parse_poly("(x^2-1)/(x-1)", ["x"]) == parse_poly("x + 1", ["x"])


def test_normalize_monomial_denominator():
    assert parse_poly("(x+y)/(x*y)", ["x", "y"]) == parse_poly("1/y + 1/x", ["x", "y"])


def test_normalize_not_laurent():
    with pytest.raises(NotLaurentError):
        parse_poly("(x+1)/(y+1)", ["x", "y"])


def test_rational_expr_survives_without_normalize():
    expr = parse("(x+1)/(y+1)", ["x", "y"])
    assert expr.num == parse_poly("x+1", ["x", "y"])
    assert expr.den == parse_poly("y+1", ["x", "y"])


def test_negative_power_of_polynomial():
    expr = parse("(x+y)^-1", ["x", "y"])
    assert expr.num == LaurentPoly.constant(2, 1, ("x", "y"))
    assert expr.den == parse_poly("x+y", ["x", "y"])
    with pytest.raises(NotLaurentError):
        laurent_normalize(expr)


# ---------------------------------------------------------------------------
# render round trip
# ---------------------------------------------------------------------------

def test_render_zero():
    assert LaurentPoly.zero(2).render() == "0"


def test_render_examples():
    assert parse_poly("x + y + 1/(x*y)", ["x", "y"]).render() == "x + y + x^-1*y^-1"
    assert parse_poly("-x + 2/3", ["x"]).render() == "-x + 2/3"


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_round_trip_through_text(seed, rank):
    rng = random.Random(seed)
    terms = oracles.random_poly_terms(rng, rank, rng.randint(0, 7))
    # mix in rational coefficients
    terms = {e: c if rng.random() < 0.5 else Fraction(c, rng.randint(1, 9))
             for e, c in terms.items()}
    f = LaurentPoly(rank, terms)
    assert parse_poly(f.render(), f.varnames) == f
