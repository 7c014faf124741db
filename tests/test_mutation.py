import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgforge import (
    LaurentPoly,
    NotLaurentError,
    apply_substitution,
    check_period_invariance,
    parse_poly,
    substitution_from_dict,
)

import oracles

VARS = ["x", "y"]


def sub(*images):
    return substitution_from_dict({"vars": VARS, "images": list(images)})


P1P1_TO_QUADRIC = ("x/(1+y)", "x*y/(1+y)")
DP5_MUTATION = ("x*y/(1+y)^2", "y")


def test_identity():
    f = parse_poly("x + y + 1/x + 1/y", VARS)
    assert apply_substitution(f, sub(*VARS)) == f


def test_p1p1_mutates_to_quadric_potential():
    f = parse_poly("x + y + 1/x + 1/y", VARS)
    image = apply_substitution(f, sub(*P1P1_TO_QUADRIC))
    assert image == parse_poly("x + (1+y)^2/(x*y)", VARS)


def test_del_pezzo_mutation():
    ws = parse_poly("(1+x)^2*(1+y)^2/(x*y) - 4", VARS)
    image = apply_substitution(ws, sub(*DP5_MUTATION))
    assert image == parse_poly("(1+y)^4/(x*y^2) + 2*(1+y)^2/y + x - 4", VARS)


def test_non_laurent_image_raises():
    f = parse_poly("x + y", VARS)
    with pytest.raises(NotLaurentError):
        apply_substitution(f, sub("x/(1+y)", "y"))


@settings(max_examples=40)
@given(st.integers(0, 2 ** 32 - 1))
def test_substitution_is_a_ring_map(seed):
    rng = random.Random(seed)
    f = LaurentPoly(2, oracles.random_poly_terms(rng, 2, 3, exp_range=2))
    g = LaurentPoly(2, oracles.random_poly_terms(rng, 2, 3, exp_range=2))
    s = sub(*P1P1_TO_QUADRIC)
    try:
        lhs_add = apply_substitution(f + g, s)
        lhs_mul = apply_substitution(f * g, s)
        rhs_f = apply_substitution(f, s)
        rhs_g = apply_substitution(g, s)
    except NotLaurentError:
        return
    assert lhs_add == rhs_f + rhs_g
    assert lhs_mul == rhs_f * rhs_g


def test_periods_survive_both_chain_mutations():
    p1p1 = parse_poly("x + y + 1/x + 1/y", VARS)
    quadric = apply_substitution(p1p1, sub(*P1P1_TO_QUADRIC))
    assert check_period_invariance(p1p1, quadric, 12).passed

    ws = parse_poly("(1+x)^2*(1+y)^2/(x*y) - 4", VARS)
    image = apply_substitution(ws, sub(*DP5_MUTATION))
    assert check_period_invariance(ws, image, 12).passed


def test_period_mismatch_detected():
    f = parse_poly("x + y + 1/(x*y)", VARS)
    g = parse_poly("x + y + 2/(x*y)", VARS)
    report = check_period_invariance(f, g, 3)
    assert not report.passed
    bad = next(r for r in report.rows if not r.match)
    assert bad.k == 3 and (bad.left, bad.right) == (6, 12)


def test_zero_image_rejected():
    with pytest.raises(Exception):
        sub("x - x", "y")
