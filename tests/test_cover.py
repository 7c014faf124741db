import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgforge import (
    CharacterSolveError,
    CoverSpec,
    DescendantConstant,
    DiscClass,
    DivisorFunctional,
    InvalidFunctionalError,
    MultiplicityError,
    build_cover_potential,
    cover_connected,
    cover_spec_from_dict,
    derive_action,
    maslov_positive,
    monotonicity_check,
    parse_poly,
    period_sequence,
    riemann_hurwitz_lift,
    split_potential,
    tangency_number,
)
from lgforge.potentials import fano_hypersurface_quotient
import oracles

P2_VARS = ["z1", "z2"]
P2_FUNCTIONAL = DivisorFunctional((Fraction(1, 3), Fraction(1, 3)), Fraction(2, 3))


def p2_potential():
    return parse_poly("z1 + z2 + 1/(z1*z2)", P2_VARS)


# ---------------------------------------------------------------------------
# splitting and character derivation
# ---------------------------------------------------------------------------

def test_split_p2_by_conic():
    comp, div = split_potential(p2_potential(), P2_FUNCTIONAL)
    assert comp == parse_poly("1/(z1*z2)", P2_VARS)
    assert div == parse_poly("z1 + z2", P2_VARS)


def test_split_everything_on_divisor():
    f = p2_potential()
    fun = DivisorFunctional((Fraction(0), Fraction(0)), Fraction(1))
    comp, div = split_potential(f, fun)
    assert comp.is_zero()
    assert div == f


def test_split_by_coordinate():
    f = parse_poly("x + y", ["x", "y"])
    fun = DivisorFunctional((Fraction(1), Fraction(0)), Fraction(0))
    comp, div = split_potential(f, fun)
    assert comp == parse_poly("y", ["x", "y"])
    assert div == parse_poly("x", ["x", "y"])


def test_invalid_functional_lists_offenders():
    f = parse_poly("x^2 + y", ["x", "y"])
    fun = DivisorFunctional((Fraction(1), Fraction(0)), Fraction(0))
    with pytest.raises(InvalidFunctionalError) as err:
        split_potential(f, fun)
    assert ((2, 0), Fraction(2)) in err.value.offenders


def test_derive_action_conic():
    assert derive_action(p2_potential(), P2_FUNCTIONAL, 2).weights == (1, 1)


def test_derive_action_trivial():
    fun = DivisorFunctional((Fraction(0), Fraction(0)), Fraction(0))
    f = parse_poly("x + y", ["x", "y"])
    assert derive_action(f, fun, 3).weights == (0, 0)


def test_derive_action_stage_two():
    f = parse_poly("x + (1+y)^2/(x*y)", ["x", "y"])
    fun = DivisorFunctional((Fraction(0), Fraction(0)), Fraction(1))
    assert derive_action(f, fun, 2).weights == (1, 0)


def test_derive_action_inconsistent():
    f = parse_poly("x + 1/x", ["x"])
    # x and 1/x cannot both have odd pairing mod 3
    fun = DivisorFunctional((Fraction(0),), Fraction(1))
    with pytest.raises(CharacterSolveError):
        derive_action(f, fun, 3)


# ---------------------------------------------------------------------------
# the cover pipeline
# ---------------------------------------------------------------------------

def stage1_spec():
    return CoverSpec(p2_potential(), P2_FUNCTIONAL, 2, DescendantConstant(2, Fraction(0)))


def test_p2_to_quadric():
    res = build_cover_potential(stage1_spec(), basis=[(-1, -1), (1, -1)],
                                quotient_varnames=("x", "y"))
    assert res.upstairs_potential == parse_poly("1/(z1*z2) + (z1+z2)^2", P2_VARS)
    assert res.quotient_potential == parse_poly("x + (1+y)^2/(x*y)", ["x", "y"])
    assert res.action.weights == (1, 1)


def test_quadric_to_del_pezzo():
    f = parse_poly("x + (1+y)^2/(x*y)", ["x", "y"])
    fun = DivisorFunctional((Fraction(0), Fraction(0)), Fraction(1))
    descendant = DescendantConstant(2, (f ** 2).constant_term())
    assert descendant.value == 4
    spec = CoverSpec(f, fun, 2, descendant)
    res = build_cover_potential(spec, basis=[(2, 0), (0, 1)], quotient_varnames=("X", "Y"))
    assert res.upstairs_potential == parse_poly("(x + (1+y)^2/(x*y))^2 - 4", ["x", "y"])
    assert res.quotient_potential == parse_poly(
        "X + 2/Y + 2*Y + (1+Y)^4/(X*Y^2)", ["X", "Y"])


def test_rank_one_cover():
    f = parse_poly("x + 1/x", ["x"])
    fun = DivisorFunctional((Fraction(0),), Fraction(1))
    spec = CoverSpec(f, fun, 2, DescendantConstant(2, (f ** 2).constant_term()))
    res = build_cover_potential(spec, quotient_varnames=("u",))
    assert res.upstairs_potential == parse_poly("x^2 + x^-2", ["x"])
    assert res.quotient_potential == parse_poly("u + 1/u", ["u"])


def test_descendant_degree_must_match():
    with pytest.raises(ValueError):
        CoverSpec(p2_potential(), P2_FUNCTIONAL, 2, DescendantConstant(3, Fraction(0)))


def test_basis_override_must_span_the_lattice():
    with pytest.raises(ValueError):
        build_cover_potential(stage1_spec(), basis=[(2, 0), (0, 1)])


def test_constant_term_bookkeeping():
    spec = stage1_spec()
    comp, div = split_potential(spec.potential, spec.functional)
    res = build_cover_potential(spec)
    expected = (comp.constant_term() + (div ** spec.r).constant_term()
                - spec.descendant.value)
    assert res.quotient_potential.constant_term() == expected


def test_weak_lg_shape_has_zero_constant_term():
    f = parse_poly("x + (1+y)^2/(x*y)", ["x", "y"])
    fun = DivisorFunctional((Fraction(0), Fraction(0)), Fraction(1))
    spec = CoverSpec(f, fun, 2, DescendantConstant(2, (f ** 2).constant_term()))
    res = build_cover_potential(spec)
    assert res.quotient_potential.constant_term() == 0


def test_deck_invariance_of_upstairs():
    for spec in (stage1_spec(),):
        res = build_cover_potential(spec)
        for e in res.upstairs_potential.support():
            assert res.action.fixes(e)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_cover_pipeline_transported_by_unimodular_maps(seed):
    # transport the quadric cover spec by a random monomial change of the base
    # torus; the deck character moves accordingly and quotient periods agree
    rng = random.Random(seed)
    a = oracles.random_unimodular(rng, 2)
    det = oracles.mat_det(a)  # +-1, so the inverse is det times the adjugate
    a_inv = [[det * a[1][1], -det * a[0][1]], [-det * a[1][0], det * a[0][0]]]
    base = stage1_spec()
    f2 = base.potential.monomial_substitute(a)
    # functional transforms by the inverse transpose, so degrees are preserved
    lin = tuple(
        sum(Fraction(a_inv[i][j]) * base.functional.linear[i] for i in range(2))
        for j in range(2))
    fun2 = DivisorFunctional(lin, base.functional.constant)
    spec2 = CoverSpec(f2, fun2, 2, base.descendant)
    res1 = build_cover_potential(base)
    res2 = build_cover_potential(spec2)
    for e in res2.upstairs_potential.support():
        assert res2.action.fixes(e)
    k = 6
    assert (period_sequence(res2.quotient_potential, k).coeffs
            == period_sequence(res1.quotient_potential, k).coeffs)


# The index-1 hypersurfaces' c_0, c_1, ...: the cubic surface and the quartic threefold.
INDEX_ONE_PERIODS = {
    (2, 3): [1, 0, 54, 492, 9882, 158760, 2879640],
    (3, 4): [1, 0, 1944, 215808, 35295192],
}


@pytest.mark.parametrize("n, d", [(n, d) for n in range(1, 6) for d in range(1, n + 2)])
def test_hypersurface_family_against_the_oracles(n, d):
    # The degree-d hypersurface in P^(n+1), index 1 (d = n+1) included, as the
    # cover pipeline builds it.  The sextic fourfold stops at c_6: its c_7 alone
    # takes seconds.
    f = fano_hypersurface_quotient(n, d)
    assert f.terms == oracles.hypersurface_terms(n, d)
    assert f.varnames == tuple([f"x{i}" for i in range(n - d + 1)]
                               + [f"y{i}" for i in range(1, d)])
    up_to = 6 if (n, d) == (5, 6) else 10
    coeffs = period_sequence(f, up_to).coeffs
    assert list(coeffs) == [oracles.hypersurface_period(n, d, k) for k in range(up_to + 1)]
    pinned = INDEX_ONE_PERIODS.get((n, d), [])
    assert list(coeffs[:len(pinned)]) == pinned
    for bad in (0, n + 2):
        with pytest.raises(ValueError):
            fano_hypersurface_quotient(n, bad)


# ---------------------------------------------------------------------------
# tangency numbers
# ---------------------------------------------------------------------------

def test_tangency_toric_boundary():
    tau = tangency_number(p2_potential(), 3, (1, 2), multiplicities=(0, 1, 2))
    assert tau.value == 1 and tau.integral


def test_tangency_smooth_divisor():
    tau = tangency_number(p2_potential(), 3, (1, 2), smooth=True)
    assert tau.value == 3 and tau.integral


def test_tangency_spherical_class():
    tau = tangency_number(p2_potential(), 3, (0, 0), smooth=True,
                          descendant=DescendantConstant(3, Fraction(6)))
    assert tau.value == 0 and tau.integral


def test_tangency_multiplicity_sum_checked():
    with pytest.raises(MultiplicityError):
        tangency_number(p2_potential(), 3, (1, 2), multiplicities=(1, 1, 2))


@pytest.mark.parametrize("mults", [(5,), (1, 1), ()], ids=["one", "two", "none"])
def test_tangency_smooth_mode_takes_no_multiplicities(mults):
    with pytest.raises(ValueError, match="smooth mode takes no multiplicities"):
        tangency_number(p2_potential(), 3, (0, 0), smooth=True, multiplicities=mults,
                        descendant=DescendantConstant(3, Fraction(6)))


@pytest.mark.parametrize("mults", [None, (1, -1, 3), (1, 1, 2)],
                         ids=["missing", "negative", "wrong-sum"])
def test_tangency_validates_multiplicities_before_computing(mults, monkeypatch):
    import lgforge.cover as cover

    def unreachable(*args):
        raise AssertionError("power coefficient computed before validation")

    monkeypatch.setattr(cover, "power_coefficient", unreachable)
    with pytest.raises(MultiplicityError):
        tangency_number(p2_potential(), 3, (1, 2), multiplicities=mults)


def test_tangency_snc_with_single_component_matches_smooth():
    rng = random.Random(9)
    for _ in range(20):
        from lgforge import LaurentPoly
        f = LaurentPoly(2, oracles.random_poly_terms(rng, 2, 4, exp_range=2))
        r = rng.randint(2, 3)
        boundary = tuple(rng.randint(-2, 2) for _ in range(2))
        snc = tangency_number(f, r, boundary, multiplicities=(r,))
        smooth = tangency_number(f, r, boundary, smooth=True)
        assert snc.value == smooth.value


def test_tangency_flags_non_integral():
    f = parse_poly("x + y", ["x", "y"])
    tau = tangency_number(f, 2, (1, 1), multiplicities=(1, 1))
    assert tau.value == Fraction(1) and tau.integral
    tau2 = tangency_number(f, 2, (2, 0), multiplicities=(1, 1))
    assert tau2.value == Fraction(1, 2) and not tau2.integral


# ---------------------------------------------------------------------------
# disc-class ledger
# ---------------------------------------------------------------------------

def test_riemann_hurwitz_examples():
    lift = riemann_hurwitz_lift(3, 3, 3)
    assert lift.value == 1 and lift.liftable
    assert riemann_hurwitz_lift(5, 0, 4).value == 5
    lift2 = riemann_hurwitz_lift(2, 1, 2)
    assert lift2.value == Fraction(3, 2) and not lift2.liftable


def test_riemann_hurwitz_additive():
    rng = random.Random(2)
    for _ in range(30):
        r = rng.randint(2, 5)
        m1, h1 = rng.randint(0, 6), rng.randint(0, 6)
        m2, h2 = rng.randint(0, 6), rng.randint(0, 6)
        assert (riemann_hurwitz_lift(m1 + m2, h1 + h2, r).value
                == riemann_hurwitz_lift(m1, h1, r).value + riemann_hurwitz_lift(m2, h2, r).value)


def disc(mu2, hits, area):
    return DiscClass(mu2, hits, (0, 0), Fraction(area))


def test_maslov_positive_basis_classes():
    classes = [disc(1, (0,), Fraction(1, 2)), disc(1, (1,), Fraction(1, 4))]
    assert maslov_positive(classes).passed


def test_maslov_positive_failure():
    report = maslov_positive([disc(1, (2,), Fraction(1))])
    assert not report.passed
    assert report.rows[0].required == 2


def test_maslov_positive_vacuous():
    assert maslov_positive([]).passed


def test_maslov_positive_hits_selection():
    d = disc(1, (1, 5), Fraction(1))
    assert maslov_positive([d], hits_index=[0]).passed
    assert not maslov_positive([d], hits_index=[1]).passed


def test_monotonicity_of_lifted_classes():
    classes = [disc(1, (0,), Fraction(1, 2)) for _ in range(4)]
    assert monotonicity_check(classes) == Fraction(1, 2)


def test_monotonicity_fails_for_base_torus():
    classes = [disc(1, (0,), Fraction(1, 4)), disc(1, (0,), Fraction(1, 4)),
               disc(1, (0,), Fraction(1, 2))]
    assert monotonicity_check(classes) is None


def test_monotonicity_single_class():
    assert monotonicity_check([disc(2, (0,), Fraction(3))]) == Fraction(3, 2)


def test_cover_connected():
    assert cover_connected([1, 1, 0], 2)
    assert not cover_connected([0, 0], 3)
    assert not cover_connected([2, 4], 2)
    assert not cover_connected([], 2)


def test_cover_degree_below_two_is_rejected_with_one_message():
    with pytest.raises(ValueError, match="cover degree must be at least 2"):
        riemann_hurwitz_lift(1, 1, 1)
    with pytest.raises(ValueError, match="cover degree must be at least 2"):
        cover_connected([1], 1)
    with pytest.raises(ValueError, match="cover degree must be at least 2"):
        CoverSpec(p2_potential(), DivisorFunctional((0, 0), 1), 0, DescendantConstant(0, 0))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def test_cover_spec_round_trip(tmp_path):
    data = {
        "potential": "z1 + z2 + 1/(z1*z2)",
        "vars": ["z1", "z2"],
        "functional": {"linear": ["1/3", "1/3"], "constant": "2/3"},
        "r": 2,
        "descendant": "0",
        "basis": [[-1, -1], [1, -1]],
        "quotient_vars": ["x", "y"],
    }
    spec, basis, qvars = cover_spec_from_dict(data)
    assert spec.potential == p2_potential()
    assert basis == [[-1, -1], [1, -1]]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    spec2, basis2, qvars2 = cover_spec_from_dict(json.loads(path.read_text()))
    assert spec2.potential == spec.potential and basis2 == basis and qvars2 == ["x", "y"]
    res = build_cover_potential(spec2, basis=basis2, quotient_varnames=qvars2)
    assert res.quotient_potential == parse_poly("x + (1+y)^2/(x*y)", ["x", "y"])


def test_cover_spec_missing_key():
    with pytest.raises(ValueError):
        cover_spec_from_dict({"potential": "x", "vars": ["x"]})
