import cmath
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgforge import (
    EmptyPolynomialError,
    FloatRangeError,
    LaurentPoly,
    RankMismatchError,
    ZeroCoordinateError,
    ZeroDenominatorError,
    divide_exact,
    parse_poly,
)
from lgforge.laurent import _tidy

import oracles


def poly(text, varnames=("x", "y")):
    return parse_poly(text, varnames)


# ---------------------------------------------------------------------------
# construction and canonical form
# ---------------------------------------------------------------------------

def test_zero_coefficients_are_dropped():
    f = LaurentPoly(2, {(1, 0): 1, (0, 1): 0})
    assert f.terms == {(1, 0): Fraction(1)}


def test_colliding_keys_are_summed():
    f = LaurentPoly(1, {(2,): 3}) + LaurentPoly(1, {(2,): -3})
    assert f.is_zero()
    g = poly("x - 2*y + 3") + poly("-x + 2*y + 1")
    assert g.terms == {(0, 0): 4} and 0 not in g.terms.values()


def test_equality_is_structural_and_ignores_names():
    f = LaurentPoly(2, {(1, 0): 1}, ("x", "y"))
    g = LaurentPoly(2, {(1, 0): 1}, ("a", "b"))
    assert f == g
    assert hash(f) == hash(g)


def test_rank_must_be_positive():
    with pytest.raises(ValueError):
        LaurentPoly(0, {})


def test_wrong_exponent_length_rejected():
    with pytest.raises(RankMismatchError):
        LaurentPoly(2, {(1,): 1})


def test_immutability():
    f = LaurentPoly(1, {(1,): 1})
    with pytest.raises(AttributeError):
        f.rank = 3


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------

def test_additive_inverse():
    f = poly("x")
    assert (f + (-f)).is_zero()
    assert (f - f).is_zero()


def test_product_expansion():
    f = poly("x + 1/x", varnames=("x",))
    assert f * f == poly("x^2 + 2 + x^-2", varnames=("x",))


def test_scale():
    f = poly("x + y + 1/(x*y)")
    assert f.scale(2) == poly("2*x + 2*y + 2/(x*y)")
    assert f * 2 == f.scale(2)
    for zero in (0, Fraction(0)):
        assert f.scale(zero).terms == {} and f.scale(zero).varnames == f.varnames


def test_product_term_that_cancels_and_reappears():
    # (1 + x + x^2)(x - 1 + 2/x): the x term cancels to 0 after two of its
    # products and comes back with the third; the x^2 term cancels for good
    a = {(0,): Fraction(1), (1,): Fraction(1), (2,): Fraction(1)}
    b = {(1,): Fraction(1), (0,): Fraction(-1), (-1,): Fraction(2)}
    f = LaurentPoly(1, a) * LaurentPoly(1, b)
    assert f.terms == oracles.dict_mul(a, b) == {(3,): 1, (1,): 2, (0,): 1, (-1,): 2}
    assert 0 not in f.terms.values()
    g = LaurentPoly(1, b) * LaurentPoly(1, a)
    assert g == f and 0 not in g.terms.values()


def test_tidy_rejects_a_zero_denominator():
    one = LaurentPoly.constant(2, 1)
    with pytest.raises(ZeroDenominatorError, match="denominator is the zero polynomial"):
        _tidy(one, LaurentPoly.zero(2))


def test_rank_mismatch_raises():
    with pytest.raises(RankMismatchError):
        poly("x") + parse_poly("u", ["u"])
    with pytest.raises(RankMismatchError):
        poly("x") * parse_poly("u", ["u"])


def test_scalar_mixing():
    f = poly("x")
    assert f + 1 == poly("x + 1")
    assert 1 - f == poly("1 - x")


# ---------------------------------------------------------------------------
# pow
# ---------------------------------------------------------------------------

def test_square_of_binomial():
    assert poly("x + y") ** 2 == poly("x^2 + 2*x*y + y^2")


def test_pow_constant_term_matches_multinomial():
    f = poly("z1 + z2 + 1/(z1*z2)", varnames=("z1", "z2"))
    # 3!/(1!1!1!) = 6 ways to balance one step in each direction
    assert (f ** 3).constant_term() == 6


def test_pow_zero_is_one_even_for_zero():
    z = LaurentPoly.zero(2)
    assert z ** 0 == LaurentPoly.constant(2, 1)


def test_pow_of_one_term_is_direct():
    # one product per unit of k would make these 10^9 multiplications
    big = LaurentPoly.monomial(1, (10**9,), varnames=("x",))
    assert parse_poly("x^1000000000", ["x"]) == big
    assert parse_poly("(1/x)^-1000000000", ["x"]) == big
    assert poly("(-2*x/y)^3") == poly("-8*x^3*y^-3")
    assert LaurentPoly.zero(2) ** 5 == LaurentPoly.zero(2)


def test_pow_negative_rejected():
    with pytest.raises(ValueError):
        poly("x") ** -1


# ---------------------------------------------------------------------------
# coefficient extraction
# ---------------------------------------------------------------------------

def test_constant_term():
    assert poly("x + y + 1/(x*y)").constant_term() == 0


def test_coefficient_of_cube():
    f = poly("z1 + z2 + 1/(z1*z2)", varnames=("z1", "z2"))
    assert (f ** 3).coefficient((1, 2)) == 3  # 3!/(0!1!2!)


def test_coefficient_quadric_square():
    f = poly("x + (1+y)^2/(x*y)")
    assert (f ** 2).constant_term() == 4


def test_coefficient_rank_mismatch():
    with pytest.raises(RankMismatchError):
        poly("x").coefficient((1, 2, 3))


# ---------------------------------------------------------------------------
# monomial substitution
# ---------------------------------------------------------------------------

def test_identity_substitution():
    f = poly("x + y + 1/(x*y)")
    assert f.monomial_substitute([[1, 0], [0, 1]]) == f


def test_hirzebruch_coordinates():
    # u -> (-1,-1), v -> (2,0) carries the toric F2 potential to the quotient form
    g = parse_poly("v + u + 1/u + 1/(u^2*v)", ["u", "v"])
    image = g.monomial_substitute([[-1, 2], [-1, 0]], varnames=("x", "y"))
    assert image == poly("x^2 + x*y + y^2 + 1/(x*y)")


def test_rank_collapse_sums_collisions():
    f = poly("x + y")
    assert f.monomial_substitute([[1, 1]], varnames=("t",)) == parse_poly("2*t", ["t"])


def test_colliding_images_that_cancel():
    t = ("t",)
    # x, -y and x^2/y all land on t: the sum cancels after two and comes back
    f = poly("x - y + x^2/y")
    g = f.monomial_substitute([[1, 1]], varnames=t)
    assert g == parse_poly("t", ["t"]) and 0 not in g.terms.values()
    assert poly("x - y").monomial_substitute([[1, 1]], varnames=t).is_zero()
    h = poly("3*x - 3*y + 2*x*y").monomial_substitute([[1, 1], [1, 1]])
    assert h.terms == {(2, 2): 2} and 0 not in h.terms.values()


def test_substitution_composes():
    rng = random.Random(11)
    for _ in range(25):
        terms = oracles.random_poly_terms(rng, 2, 4)
        f = LaurentPoly(2, terms)
        a = oracles.random_unimodular(rng, 2)
        b = oracles.random_unimodular(rng, 2)
        ba = oracles.mat_mul(b, a)
        assert f.monomial_substitute(a).monomial_substitute(b) == f.monomial_substitute(ba)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_at_ones():
    f = poly("x + y + 1/(x*y)")
    assert f.evaluate([1, 1]) == pytest.approx(3)


def test_evaluate_at_cube_root():
    w = cmath.exp(2j * cmath.pi / 3)
    f = poly("x + y + 1/(x*y)")
    assert abs(f.evaluate([w, w]) - 3 * w) < 1e-12


def test_evaluate_sum_of_coefficients():
    rng = random.Random(3)
    for _ in range(10):
        f = LaurentPoly(2, oracles.random_poly_terms(rng, 2, 5))
        total = sum(f.terms.values())
        assert abs(f.evaluate([1, 1]) - complex(total)) < 1e-9


def test_evaluate_rejects_zero_coordinate():
    with pytest.raises(ZeroCoordinateError):
        poly("x + 1/y").evaluate([1, 0])


@pytest.mark.parametrize("text, point", [
    ("x^2 + y", [1e200, 1]),  # z ** k overflows
    ("x^-2 + y", [1e-200, 1]),  # z ** -k divides by an underflowed 0
    ("10^400*x + y", [1, 1]),  # complex(c) overflows
    ("x*y", [1e200, 1e200]),  # the product is inf
    ("x + y", [float("nan"), 1]),
])
def test_evaluate_outside_the_float_range_raises(text, point):
    with pytest.raises(FloatRangeError):
        poly(text).evaluate(point)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_evaluate_is_multiplicative_on_unit_torus(seed):
    rng = random.Random(seed)
    f = LaurentPoly(2, oracles.random_poly_terms(rng, 2, 4))
    g = LaurentPoly(2, oracles.random_poly_terms(rng, 2, 4))
    point = [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(2)]
    lhs = (f * g).evaluate(point)
    rhs = f.evaluate(point) * g.evaluate(point)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


# ---------------------------------------------------------------------------
# Newton polytope
# ---------------------------------------------------------------------------

def test_polytope_triangle():
    assert poly("x + y + 1/(x*y)").newton_polytope() == [(-1, -1), (0, 1), (1, 0)]


def test_polytope_drops_midpoint():
    assert (poly("x + y") ** 2).newton_polytope() == [(0, 2), (2, 0)]


def test_polytope_of_constant():
    assert poly("5").newton_polytope() == [(0, 0)]


def test_polytope_of_zero_raises():
    with pytest.raises(EmptyPolynomialError):
        LaurentPoly.zero(2).newton_polytope()


def test_polytope_rank_one():
    f = parse_poly("x^3 + x + 1/x^2", ["x"])
    assert f.newton_polytope() == [(-2,), (3,)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
@example(83894)  # two cancelling terms: f is zero
def test_polytope_matches_monotone_chain(seed):
    rng = random.Random(seed)
    f = LaurentPoly(2, oracles.random_poly_terms(rng, 2, rng.randint(1, 9)))
    if f.is_zero():  # the drawn terms can cancel
        with pytest.raises(EmptyPolynomialError):
            f.newton_polytope()
    else:
        assert f.newton_polytope() == oracles.hull_vertices_2d(f.support())


def test_polytope_rank_three():
    f = parse_poly("x + y + z + 1/(x*y*z) + 1", ["x", "y", "z"])
    # the constant sits inside the simplex spanned by the other four
    assert f.newton_polytope() == [(-1, -1, -1), (0, 0, 1), (0, 1, 0), (1, 0, 0)]


# ---------------------------------------------------------------------------
# ring axioms and convolution oracle
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_ring_axioms(seed):
    rng = random.Random(seed)
    f = LaurentPoly(2, oracles.random_poly_terms(rng, 2, 4))
    g = LaurentPoly(2, oracles.random_poly_terms(rng, 2, 4))
    h = LaurentPoly(2, oracles.random_poly_terms(rng, 2, 4))
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 6), st.integers(0, 6))
def test_pow_addition_law(seed, a, b):
    rng = random.Random(seed)
    f = LaurentPoly(2, oracles.random_poly_terms(rng, 2, 3, exp_range=2))
    assert f ** a * f ** b == f ** (a + b)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_multiplication_matches_dense_convolution(seed):
    rng = random.Random(seed)
    a = oracles.random_poly_terms(rng, 2, 5)
    b = oracles.random_poly_terms(rng, 2, 5)
    product = LaurentPoly(2, a) * LaurentPoly(2, b)
    assert product.terms == oracles.dict_mul(a, b)


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------

def test_divide_by_monomial():
    f = poly("x + y")
    g = poly("x*y")
    assert divide_exact(f, g) == poly("1/y + 1/x")


def test_divide_difference_of_squares():
    f = parse_poly("x^2 - 1", ["x"])
    g = parse_poly("x - 1", ["x"])
    assert divide_exact(f, g) == parse_poly("x + 1", ["x"])


def test_divide_inexact_raises():
    from lgforge import NotLaurentError
    with pytest.raises(NotLaurentError):
        divide_exact(poly("x + 1"), poly("y + 1"))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_divide_undoes_multiplication(seed):
    rng = random.Random(seed)
    f = LaurentPoly(2, oracles.random_poly_terms(rng, 2, 4))
    g = LaurentPoly(2, oracles.random_poly_terms(rng, 2, 3))
    if g.is_zero():
        return
    assert divide_exact(f * g, g) == f
