"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Expected values marked as frozen were computed with the
independent oracles in oracles.py before the implementation existed.
"""

import cmath
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

from lgforge import (
    CharacterAction,
    CoverSpec,
    DescendantConstant,
    DiscClass,
    DivisorFunctional,
    LaurentPoly,
    SolverOptions,
    Sublattice,
    apply_substitution,
    build_cover_potential,
    critical_points,
    critical_values,
    derive_action,
    descendant_constant,
    invariant_sublattice,
    log_gradient,
    monotonicity_check,
    parse_poly,
    period_sequence,
    rewrite_in_sublattice,
    smith_normal_form,
    substitution_from_dict,
    tangency_number,
)
from lgforge.potentials import fano_hypersurface_quotient

import oracles


@contextmanager
def criterion(number, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} [{name}]: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    print(f"\nACCEPTANCE {number} [{name}]: PASS ({time.perf_counter() - start:.2f}s)")


# frozen by the multinomial oracle: (3m)! / (m!)^3 for m = 1..8
P2_VALUES = [6, 90, 1680, 34650, 756756, 17153136, 399072960, 9465511770]


def test_criterion_1_p2_periods():
    with criterion(1, "projective-plane periods"):
        start = time.perf_counter()
        f = parse_poly("x + y + 1/(x*y)", ["x", "y"])
        seq = period_sequence(f, 24)
        for m in range(1, 9):
            assert seq[3 * m] == P2_VALUES[m - 1]
            assert seq[3 * m] == oracles.p2_constant_term(3 * m)
        for k in range(25):
            if k % 3 != 0:
                assert seq[k] == 0
        assert time.perf_counter() - start < 10.0


def test_criterion_2_del_pezzo_chain():
    with criterion(2, "del Pezzo chain"):
        start = time.perf_counter()
        # (a) the mutation carries the product-of-lines potential to the
        #     quadric-cover quotient, exactly
        p1p1 = parse_poly("x + y + 1/x + 1/y", ["x", "y"])
        mut1 = substitution_from_dict(
            {"vars": ["x", "y"], "images": ["x/(1+y)", "x*y/(1+y)"]})
        quadric = apply_substitution(p1p1, mut1)
        assert quadric == parse_poly("x + (1+y)^2/(x*y)", ["x", "y"])

        # (b) the degree-2 cover of the plane reproduces the same quotient
        p2 = parse_poly("z1 + z2 + 1/(z1*z2)", ["z1", "z2"])
        functional = DivisorFunctional((Fraction(1, 3), Fraction(1, 3)), Fraction(2, 3))
        stage1 = build_cover_potential(
            CoverSpec(p2, functional, 2, DescendantConstant(2, Fraction(0))),
            basis=[(-1, -1), (1, -1)], quotient_varnames=("x", "y"))
        assert stage1.quotient_potential == quadric

        # (c) the degree-2 descendant of the stage-1 quotient is 4
        d2 = descendant_constant(period_sequence(stage1.quotient_potential, 2), 2)
        assert d2.value == 4

        # (d) stage 2 and the mutated reference potential share periods to K=10
        divisor_all = DivisorFunctional((Fraction(0), Fraction(0)), Fraction(1))
        stage2 = build_cover_potential(
            CoverSpec(stage1.quotient_potential, divisor_all, 2, d2))
        ws = parse_poly("(1+x)^2*(1+y)^2/(x*y) - 4", ["x", "y"])
        mut2 = substitution_from_dict(
            {"vars": ["x", "y"], "images": ["x*y/(1+y)^2", "y"]})
        ws_image = apply_substitution(ws, mut2)
        left = period_sequence(stage2.quotient_potential, 10)
        right = period_sequence(ws_image, 10)
        assert left.coeffs == right.coeffs
        assert left.coeffs == period_sequence(ws, 10).coeffs
        assert time.perf_counter() - start < 5.0


def test_criterion_3_tangency_numbers():
    with criterion(3, "tangency numbers"):
        w = parse_poly("z1 + z2 + 1/(z1*z2)", ["z1", "z2"])
        toric = tangency_number(w, 3, (1, 2), multiplicities=(0, 1, 2))
        assert toric.value == 1 and toric.integral
        smooth = tangency_number(w, 3, (1, 2), smooth=True)
        assert smooth.value == 3 and smooth.integral
        spherical = tangency_number(w, 3, (0, 0), smooth=True,
                                    descendant=DescendantConstant(3, Fraction(6)))
        assert spherical.value == 0 and spherical.integral


def test_criterion_4_critical_values():
    with criterion(4, "hypersurface critical values"):
        opts = SolverOptions(starts=200, seed=0)
        for n, d in [(2, 1), (2, 2), (3, 2), (3, 3), (4, 3)]:
            case_start = time.perf_counter()
            f = fano_hypersurface_quotient(n, d)
            search = critical_points(f, opts)
            assert search.points, f"(n,d)=({n},{d}): no critical points found"
            assert all(p.nondegenerate for p in search.points)
            values = critical_values(f, opts, search=search)
            order = n + 2 - d
            expected = [(order * d ** (d / order)) * cmath.exp(2j * cmath.pi * k / order)
                        for k in range(order)]
            got = [v for v, _ in values.values]
            assert len(got) == len(expected), f"(n,d)=({n},{d}): {len(got)} values"
            for e in expected:
                assert min(abs(e - g) for g in got) < 1e-9
            for g in got:
                assert min(abs(e - g) for e in expected) < 1e-9
            assert time.perf_counter() - case_start < 30.0


def test_criterion_5_hirzebruch_quotient():
    with criterion(5, "Hirzebruch F2 quotient"):
        base = parse_poly("x + y + 1/(x*y)", ["x", "y"])
        functional = DivisorFunctional((Fraction(1, 3), Fraction(1, 3)), Fraction(2, 3))
        action = derive_action(base, functional, 2)
        assert action.weights == (1, 1)
        lattice = invariant_sublattice(action)
        override = Sublattice.from_columns([(-1, -1), (2, 0)])
        assert lattice.same_lattice(override)
        upstairs = parse_poly("x^2 + x*y + y^2 + 1/(x*y)", ["x", "y"])
        quotient = rewrite_in_sublattice(upstairs, override, varnames=("u", "v"))
        assert quotient == parse_poly("u + v + 1/u + 1/(u^2*v)", ["u", "v"])


def test_criterion_6_monotonicity_ledger():
    with criterion(6, "monotonicity ledger"):
        base = [
            DiscClass(1, (1,), (1, 0), Fraction(1, 4)),
            DiscClass(1, (1,), (0, 1), Fraction(1, 4)),
            DiscClass(1, (0,), (-1, -1), Fraction(1, 2)),
        ]
        assert monotonicity_check(base) is None
        lifted = [
            DiscClass(1, (0,), (-1, -1), Fraction(1, 2)),
            DiscClass(1, (1,), (2, 0), Fraction(1, 2)),
            DiscClass(1, (1,), (0, 2), Fraction(1, 2)),
            DiscClass(1, (1,), (1, 1), Fraction(1, 2)),
        ]
        assert monotonicity_check(lifted) == Fraction(1, 2)


def test_criterion_7_rank_one_weak_lg():
    with criterion(7, "rank-1 weak-LG sanity"):
        f = parse_poly("x + 1/x", ["x"])
        functional = DivisorFunctional((Fraction(0),), Fraction(1))
        spec = CoverSpec(f, functional, 2,
                         DescendantConstant(2, (f ** 2).constant_term()))
        res = build_cover_potential(spec, quotient_varnames=("u",))
        assert res.upstairs_potential == parse_poly("x^2 + x^-2", ["x"])
        seq = period_sequence(res.upstairs_potential, 12)
        for k in range(13):
            expected = comb(k, k // 2) if k % 2 == 0 else 0
            assert seq[k] == expected
        # the quotient coordinates tell the same story
        assert (period_sequence(res.quotient_potential, 12).coeffs == seq.coeffs)


def test_criterion_8_property_suites():
    with criterion(8, "randomized property suites"):
        start = time.perf_counter()
        instances = 200

        rng = random.Random(0)
        for _ in range(instances):  # ring axioms
            f = LaurentPoly(2, oracles.random_poly_terms(rng, 2, 3, exp_range=2))
            g = LaurentPoly(2, oracles.random_poly_terms(rng, 2, 3, exp_range=2))
            h = LaurentPoly(2, oracles.random_poly_terms(rng, 2, 3, exp_range=2))
            assert f + g == g + f
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h

        rng = random.Random(1)
        for _ in range(instances):  # Smith form validity
            n = rng.randint(1, 4)
            a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            snf = smith_normal_form(a)
            u, d, v = [list(map(list, m)) for m in (snf.U, snf.D, snf.V)]
            assert oracles.mat_mul(oracles.mat_mul(u, d), v) == a
            assert abs(oracles.mat_det(u)) == 1
            assert abs(oracles.mat_det(v)) == 1
            diag = [d[i][i] for i in range(n)]
            for x, y in zip(diag, diag[1:]):
                assert (x == 0 and y == 0) or (x != 0 and y % x == 0)

        rng = random.Random(2)
        for _ in range(instances):  # sublattice round trip
            n = rng.randint(1, 3)
            r = rng.randint(1, 4)
            action = CharacterAction(tuple(rng.randrange(r) for _ in range(n)), r)
            sub = invariant_sublattice(action)
            cols = [list(c) for c in sub.columns]
            terms = {}
            for _ in range(rng.randint(1, 5)):
                coords = [rng.randint(-2, 2) for _ in range(n)]
                e = tuple(sum(cols[j][i] * coords[j] for j in range(n)) for i in range(n))
                terms[e] = terms.get(e, 0) + rng.randint(1, 4)
            fsub = LaurentPoly(n, terms)
            assert rewrite_in_sublattice(fsub, sub).monomial_substitute(
                [list(row) for row in sub.basis]) == fsub

        rng = random.Random(3)
        for _ in range(instances):  # log gradient vs central differences
            f = LaurentPoly(2, oracles.random_poly_terms(rng, 2, 3, exp_range=2))
            point = [cmath.exp(complex(rng.uniform(-0.4, 0.4), 2 * cmath.pi * rng.random()))
                     for _ in range(2)]
            step = 1e-5
            for i, g in enumerate(log_gradient(f)):
                up, dn = list(point), list(point)
                up[i] *= cmath.exp(step)
                dn[i] *= cmath.exp(-step)
                fd = (f.evaluate(up) - f.evaluate(dn)) / (2 * step)
                exact = g.evaluate(point)
                assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))

        rng = random.Random(4)
        for _ in range(instances):  # period invariance under unimodular maps
            f = LaurentPoly(2, oracles.random_poly_terms(rng, 2, 3, exp_range=2))
            a = oracles.random_unimodular(rng, 2, steps=4)
            assert (period_sequence(f, 4).coeffs
                    == period_sequence(f.monomial_substitute(a), 4).coeffs)

        assert time.perf_counter() - start < 60.0
