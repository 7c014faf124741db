"""The exact power kernel behind period sequences and tangency numbers, the
closed form that replaces it on an affinely independent support, and the sum
and product rules that split a potential before either.

Every check compares against naive powering, in ``LaurentPoly`` or in
``oracles.dict_pow``, which keep Fraction coefficients and tuple exponents and
so share nothing with the kernel's integer coefficients and packed exponent
keys, nor with the closed form's linear solve, nor with the splitting rules.
"""

import random
from fractions import Fraction
from math import comb, prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgforge.periods
from lgforge import (LaurentPoly, RankMismatchError, parse_poly, period_sequence,
                     power_coefficient)
from lgforge.periods import _simplex_solve
from lgforge.potentials import (del_pezzo_bl5, fano_hypersurface_quotient, hirzebruch_f2,
                                product_of_lines, projective_space)

import oracles


def naive_periods(f, up_to):
    return [(f ** k).terms.get((0,) * f.rank, 0) for k in range(up_to + 1)]


# Denominators drawn from {1, 2, 4} share factors; with 3 and 5 they are coprime.
coefficients = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                         st.sampled_from([1, 2, 3, 4, 5]))


@st.composite
def polys(draw, max_exp=3, max_terms=4):
    rank = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(-max_exp, max_exp)] * rank)
    terms = draw(st.dictionaries(exps, coefficients, max_size=max_terms))
    return LaurentPoly(rank, terms)


@settings(max_examples=60)
@given(polys(), st.integers(0, 5))
def test_period_sequence_matches_naive_powers(f, up_to):
    assert list(period_sequence(f, up_to).coeffs) == naive_periods(f, up_to)


@settings(max_examples=40)
@given(polys(max_exp=40, max_terms=3), st.integers(0, 4))
def test_wide_exponents_stress_the_radix(f, up_to):
    assert list(period_sequence(f, up_to).coeffs) == naive_periods(f, up_to)


@settings(max_examples=60)
@given(polys(), st.integers(0, 5), st.data())
def test_power_coefficient_matches_naive(f, r, data):
    power = f ** r
    targets = power.support() + [data.draw(st.tuples(*[st.integers(-20, 20)] * f.rank))]
    for t in targets:
        assert power_coefficient(f, r, t) == power.terms.get(t, 0)


@settings(max_examples=30)
@given(polys(max_exp=40, max_terms=3), st.integers(0, 4), st.data())
def test_power_coefficient_wide_exponents(f, r, data):
    power = f ** r
    t = data.draw(st.sampled_from(power.support())) if power else (0,) * f.rank
    assert power_coefficient(f, r, t) == power.terms.get(t, 0)


@pytest.mark.parametrize("f", [
    LaurentPoly.zero(3),
    LaurentPoly.constant(2, Fraction(-3, 7)),
    LaurentPoly(3, {(2, -1, 4): Fraction(2, 3)}),
    parse_poly("x + y + 1/(x*y)", ["x", "y"]),
], ids=["zero", "constant", "monomial", "P2"])
@pytest.mark.parametrize("up_to", [0, 1, 2, 3, 6, 7])
def test_degenerate_potentials(f, up_to):
    assert list(period_sequence(f, up_to).coeffs) == naive_periods(f, up_to)
    for r in range(up_to + 1):
        power = f ** r
        for t in power.support() + [(1,) * f.rank]:
            assert power_coefficient(f, r, t) == power.terms.get(t, 0)


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
    assert power_coefficient(f, 5, (1, 0)) == (f ** 5).terms.get((1, 0), 0)


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



# ---------------------------------------------------------------------------
# the closed form on an affinely independent support
# ---------------------------------------------------------------------------

def takes_closed_form(f) -> bool:
    return _simplex_solve(list(f.terms), 1, (0,) * f.rank) is not None


def check_against_oracle(f, up_to, targets=()):
    terms, n = f.terms, f.rank
    assert list(period_sequence(f, up_to).coeffs) == [
        oracles.constant_term_of_power(terms, k, n) for k in range(up_to + 1)]
    power = oracles.dict_pow(terms, up_to, n)
    for t in list(power) + list(targets):
        assert power_coefficient(f, up_to, t) == power.get(tuple(t), 0)


@st.composite
def simplex_potentials(draw):
    """A potential on T <= n + 1 affinely independent exponents, with the
    origin at barycentric coordinates l/m (m = sum(l)) over them: inside the
    simplex when every l_i > 0, on a face when some l_i = 0, outside it when
    some l_i < 0.  An optional shift moves the origin off the simplex's affine
    span when T < n + 1.  The simplex is the coordinate one with vertices
    0, d_1 u_1, ..., d_(T-1) u_(T-1), scaled by m and moved by a random
    unimodular chart."""
    n = draw(st.integers(1, 4))
    size = draw(st.integers(1, n + 1))
    weights = draw(st.lists(st.integers(-1, 2), min_size=size, max_size=size)
                   .filter(lambda w: sum(w) > 0))
    chart = oracles.random_unimodular(random.Random(draw(st.integers(0, 2**16))), n, steps=3)
    shift = draw(st.one_of(st.just((0,) * n), st.tuples(*[st.integers(-1, 1)] * n)))
    vertices = [[0] * n] + [[draw(st.integers(1, 2)) if i == j else 0 for i in range(n)]
                            for j in range(size - 1)]
    m = sum(weights)
    origin = [sum(w * v[i] for w, v in zip(weights, vertices)) for i in range(n)]
    points = [[m * x - o + s for x, o, s in zip(v, origin, shift)] for v in vertices]
    exps = [tuple(sum(a * x for a, x in zip(row, p)) for row in chart) for p in points]
    return LaurentPoly(n, {e: draw(coefficients) for e in exps})


@settings(max_examples=80)
@given(simplex_potentials(), st.integers(0, 7), st.data())
def test_closed_form_matches_the_oracle_on_a_simplex(f, up_to, data):
    assert takes_closed_form(f)
    # t = sum(a_i e_i) with sum(a_i) = up_to but some a_i < 0 is no coefficient.
    a = data.draw(st.lists(st.integers(-2, up_to), min_size=len(f.terms) - 1,
                           max_size=len(f.terms) - 1))
    a.append(up_to - sum(a))
    spanned = tuple(sum(x * e[i] for x, e in zip(a, f.terms)) for i in range(f.rank))
    check_against_oracle(f, up_to, [spanned,
                                    data.draw(st.tuples(*[st.integers(-12, 12)] * f.rank))])


@pytest.mark.parametrize("text, names, up_to", [
    ("x + y + y/x", "x,y", 6),                    # origin outside the simplex
    ("x + 1/x + y", "x,y", 8),                    # origin on an edge
    ("x/3 - 2*y + 1/(x^2*y^3)", "x,y", 12),       # origin inside, m = 6
    ("x + y", "x,y", 4),                          # origin off the affine span
    ("-5/2", "x,y,z", 5),                         # a constant
    ("3*x^2/(7*y)", "x,y", 5),                    # a single monomial
    ("x + y + 1/(x*y)", "x,y", 0),                # K = 0 and r = 0
    ("0", "x", 3),                                # no terms
])
def test_closed_form_special_supports(text, names, up_to):
    f = parse_poly(text, names.split(","))
    assert takes_closed_form(f)
    check_against_oracle(f, up_to, [(up_to + 4,) * f.rank, (-up_to - 9,) + (0,) * (f.rank - 1)])


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_zero_polynomial(rank):
    zero = LaurentPoly.zero(rank)
    assert list(period_sequence(zero, 6).coeffs) == [
        oracles.constant_term_of_power({}, k, rank) for k in range(7)] == [1] + [0] * 6
    for r in range(4):
        power = oracles.dict_pow({}, r, rank)
        for t in [(0,) * rank, (1,) * rank, (-r,) + (0,) * (rank - 1)]:
            assert power_coefficient(zero, r, t) == power.get(t, 0)
    assert power_coefficient(zero, 0, (0,) * rank) == 1


def test_dependent_support_takes_the_kernel():
    f = parse_poly("x + 1/x + 3", ["x", "y"])   # three collinear exponents, T = n + 1
    assert _simplex_solve(list(f.terms), 1, (0, 0)) is None
    assert _simplex_solve([(1, 0), (0, 1), (-1, -1), (1, 1)], 1, (0, 0)) is None  # T > n + 1
    check_against_oracle(f, 7, [(1, 0), (0, 1), (9, 0)])


def test_weighted_projective_periods():
    """The closed form against (md)!/prod (w_i d)! for the mirrors
    x_1 + ... + x_n + 1/prod x_i**w_i of P(1, w_1..w_n)."""
    cases = [(1,) * (n + 1) for n in range(1, 5)] + [(1, 1, 2), (1, 2, 3)]
    for weights in cases:
        n = len(weights) - 1
        names = [f"x{i}" for i in range(1, n + 1)]
        denominator = "*".join(f"{x}^{w}" for x, w in zip(names, weights[1:]))
        f = parse_poly(" + ".join(names) + f" + 1/({denominator})", names)
        expected = [oracles.weighted_projective_period(weights, k) for k in range(31)]
        assert list(period_sequence(f, 30).coeffs) == expected
    # P(1,1,2)'s mirror x + y + 1/(x*y^2) in the chart x = 2X, y = 2XY/3: c_0(f^k)
    # does not change, since a torus rescaling multiplies each term of f^k by
    # s^(its exponent).
    f = parse_poly("2*X + 2*X*Y/3 + 9/(8*X^3*Y^2)", ["X", "Y"])
    assert takes_closed_form(f)
    assert list(period_sequence(f, 30).coeffs) == [
        oracles.weighted_projective_period((1, 1, 2), k) for k in range(31)]


# ---------------------------------------------------------------------------
# the sum and product rules
# ---------------------------------------------------------------------------

RESCALE_FACTORS = (Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(3, 2),
                   Fraction(2, 3), Fraction(-3))


def in_random_chart(draw, terms, n):
    """``terms`` under a signed permutation of the variables, then a rescaling
    x_i -> a_i x_i; neither changes a constant term of a power."""
    order = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    factors = draw(st.lists(st.sampled_from(RESCALE_FACTORS), min_size=n, max_size=n))
    out = {}
    for e, c in terms.items():
        moved = tuple(s * e[j] for s, j in zip(signs, order))
        out[moved] = c * prod(a ** x for a, x in zip(factors, moved))
    return out


def one_variable_terms(draw, n, i, min_size=1, max_size=3):
    """A random polynomial in x_i alone, as rank-n exponent tuples."""
    exps = draw(st.lists(st.integers(-2, 2), min_size=min_size, max_size=max_size, unique=True))
    return {tuple(x if j == i else 0 for j in range(n)): draw(coefficients) for x in exps}


def terms_in(draw, n, variables, max_size=3):
    """A random polynomial in ``variables``, with no constant term."""
    exps = st.tuples(*[st.integers(-2, 2) if j in variables else st.just(0) for j in range(n)])
    keys = draw(st.lists(exps.filter(any), min_size=1, max_size=max_size, unique=True))
    return {e: draw(coefficients) for e in keys}


@st.composite
def disjoint_sums(draw):
    """A sum of two or three potentials over disjoint sets of variables, plus a
    constant half the time."""
    n = draw(st.integers(2, 4))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=2)))
    terms: dict = {}
    for lo, hi in zip([0] + cuts, cuts + [n]):
        terms.update(terms_in(draw, n, range(lo, hi)))
    if draw(st.booleans()):
        terms[(0,) * n] = draw(coefficients)
    return n, in_random_chart(draw, terms, n)


@st.composite
def products(draw):
    """A(x_0) * B(x_1..x_(n-1)), whose own constant term is kept, cancelled (as
    in the dP4 mirror, where it is nonzero) or moved by a random constant."""
    n = draw(st.integers(2, 3))
    origin = (0,) * n
    constant = draw(st.sampled_from(("kept", "cancelled", "moved")))
    a = one_variable_terms(draw, n, 0)
    b = terms_in(draw, n, range(1, n))
    if constant == "cancelled" or draw(st.booleans()):
        a.setdefault(origin, draw(coefficients))
        b[origin] = draw(coefficients)
    terms = oracles.dict_mul(a, b)
    if constant == "cancelled":
        terms.pop(origin, None)
    elif constant == "moved":
        terms[origin] = terms.get(origin, 0) + draw(coefficients)
    return n, in_random_chart(draw, {e: c for e, c in terms.items() if c}, n)


@st.composite
def near_products(draw):
    """A(x) * B(y), each with three terms, with one cell off the origin
    perturbed or removed: no longer a product, and too many terms for the
    closed form, so the kernel must serve it."""
    a = one_variable_terms(draw, 2, 0, min_size=3)
    b = one_variable_terms(draw, 2, 1, min_size=3)
    terms = oracles.dict_mul(a, b)
    cell = draw(st.sampled_from(sorted(e for e in terms if e != (0, 0))))
    if draw(st.booleans()):
        del terms[cell]
    else:
        terms[cell] += draw(st.integers(1, 3))
    return 2, in_random_chart(draw, {e: c for e, c in terms.items() if c}, 2)


def check_split(n, terms, up_to):
    assert list(period_sequence(LaurentPoly(n, terms), up_to).coeffs) == [
        oracles.constant_term_of_power(terms, k, n) for k in range(up_to + 1)]


@settings(max_examples=60)
@given(disjoint_sums(), st.integers(0, 6))
def test_disjoint_sums_match_the_oracle(case, up_to):
    check_split(*case, up_to)


@settings(max_examples=60)
@given(products(), st.integers(0, 6))
def test_products_match_the_oracle(case, up_to):
    check_split(*case, up_to)


@settings(max_examples=30)
@given(near_products(), st.integers(0, 6))
def test_near_products_fall_through_to_the_kernel(case, up_to):
    kernel = lgforge.periods._half_powers
    with mock.patch.object(lgforge.periods, "_half_powers", wraps=kernel) as spy:
        check_split(*case, up_to)
    assert spy.called


class ReachedKernel(Exception):
    pass


def no_kernel(*args):
    raise ReachedKernel


@pytest.mark.parametrize("f, expected", [
    (product_of_lines(), oracles.p1xp1_constant_term),
    (del_pezzo_bl5(), oracles.dp4_constant_term),
    (projective_space(3), lambda k: oracles.weighted_projective_period((1, 1, 1, 1), k)),
    (parse_poly("x + 2 + 1/x", ["x"]), lambda k: comb(2 * k, k)),   # (√x + 1/√x)^(2k)
], ids=["P1xP1", "dP4", "P3", "x+2+1/x"])
def test_split_potentials_never_reach_the_kernel(monkeypatch, f, expected):
    monkeypatch.setattr(lgforge.periods, "_half_powers", no_kernel)
    assert list(period_sequence(f, 40).coeffs) == [expected(k) for k in range(41)]


@pytest.mark.parametrize("f", [hirzebruch_f2(), fano_hypersurface_quotient(3, 3)],
                         ids=["F2", "X3_3"])
def test_unsplit_potentials_reach_the_kernel(monkeypatch, f):
    monkeypatch.setattr(lgforge.periods, "_half_powers", no_kernel)
    with pytest.raises(ReachedKernel):
        period_sequence(f, 4)
