"""The exact power kernel behind period sequences and tangency numbers.

Every check compares against naive powering in ``LaurentPoly``, which keeps
Fraction coefficients and tuple exponents and so shares nothing with the
kernel's integer coefficients and packed exponent keys.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgforge import (LaurentPoly, RankMismatchError, parse_poly, period_sequence,
                     power_coefficient)


def naive_periods(f, up_to):
    return [(f ** k).constant_term() for k in range(up_to + 1)]


# Denominators drawn from {1, 2, 4} share factors; with 3 and 5 they are coprime.
coefficients = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                         st.sampled_from([1, 2, 3, 4, 5]))


@st.composite
def polys(draw, max_exp=3, max_terms=4):
    rank = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(-max_exp, max_exp)] * rank)
    terms = draw(st.dictionaries(exps, coefficients, max_size=max_terms))
    return LaurentPoly(rank, terms)


@settings(max_examples=60, deadline=None)
@given(polys(), st.integers(0, 5))
def test_period_sequence_matches_naive_powers(f, up_to):
    assert list(period_sequence(f, up_to).coeffs) == naive_periods(f, up_to)


@settings(max_examples=40, deadline=None)
@given(polys(max_exp=40, max_terms=3), st.integers(0, 4))
def test_wide_exponents_stress_the_radix(f, up_to):
    assert list(period_sequence(f, up_to).coeffs) == naive_periods(f, up_to)


@settings(max_examples=60, deadline=None)
@given(polys(), st.integers(0, 5), st.data())
def test_power_coefficient_matches_naive(f, r, data):
    power = f ** r
    targets = power.support() + [data.draw(st.tuples(*[st.integers(-20, 20)] * f.rank))]
    for t in targets:
        assert power_coefficient(f, r, t) == power.coefficient(t)


@settings(max_examples=30, deadline=None)
@given(polys(max_exp=40, max_terms=3), st.integers(0, 4), st.data())
def test_power_coefficient_wide_exponents(f, r, data):
    power = f ** r
    t = data.draw(st.sampled_from(power.support())) if power else (0,) * f.rank
    assert power_coefficient(f, r, t) == power.coefficient(t)


@pytest.mark.parametrize("f", [
    LaurentPoly.zero(3),
    LaurentPoly.constant(2, Fraction(-3, 7)),
    LaurentPoly.monomial(3, (2, -1, 4), Fraction(2, 3)),
    parse_poly("x + y + 1/(x*y)", ["x", "y"]),
], ids=["zero", "constant", "monomial", "P2"])
@pytest.mark.parametrize("up_to", [0, 1, 2, 3, 6, 7])
def test_degenerate_potentials(f, up_to):
    assert list(period_sequence(f, up_to).coeffs) == naive_periods(f, up_to)
    for r in range(up_to + 1):
        power = f ** r
        for t in power.support() + [(1,) * f.rank]:
            assert power_coefficient(f, r, t) == power.coefficient(t)


def test_cancelling_terms():
    # c_2 = 2^2 + 2*(1)(-2) = 0: nonzero products cancel inside the kernel.
    f = parse_poly("2 + x - 2/x", ["x"])
    assert period_sequence(f, 8).coeffs == tuple(naive_periods(f, 8))
    assert period_sequence(f, 2)[2] == 0
    # Terms that cancel while the potential is built leave no trace either.
    g = parse_poly("x + y + 1/(x*y) + y^3 - y^3", ["x", "y"])
    assert list(period_sequence(g, 6).coeffs) == [1, 0, 0, 6, 0, 0, 90]


def test_shared_and_coprime_denominators():
    f = parse_poly("x/2 + y/4 + 1/(6*x*y) + 2/(15*x)", ["x", "y"])
    assert list(period_sequence(f, 7).coeffs) == naive_periods(f, 7)
    assert power_coefficient(f, 5, (1, 0)) == (f ** 5).coefficient((1, 0))


def test_target_outside_newton_box_is_zero():
    f = parse_poly("x + y + 1/(x*y)", ["x", "y"])
    assert power_coefficient(f, 4, (5, 0)) == 0
    assert power_coefficient(f, 4, (0, -5)) == 0
    assert power_coefficient(f, 4, (40, -40)) == 0
    assert power_coefficient(f, 4, (4, 0)) == 1


def test_power_coefficient_errors():
    f = parse_poly("x + y + 1/(x*y)", ["x", "y"])
    with pytest.raises(RankMismatchError):
        power_coefficient(f, 3, (1, 2, 0))
    with pytest.raises(ValueError):
        power_coefficient(f, -1, (0, 0))

