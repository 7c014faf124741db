import cmath
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgforge import (
    LaurentPoly,
    SolverOptions,
    critical,
    critical_points,
    critical_values,
    log_gradient,
    parse_poly,
)
from lgforge.potentials import fano_hypersurface_quotient

import oracles

FAST = SolverOptions(starts=60, seed=0)


# ---------------------------------------------------------------------------
# log gradient
# ---------------------------------------------------------------------------

def test_gradient_p2():
    f = parse_poly("x + y + 1/(x*y)", ["x", "y"])
    gx, gy = log_gradient(f)
    assert gx == parse_poly("x - 1/(x*y)", ["x", "y"])
    assert gy == parse_poly("y - 1/(x*y)", ["x", "y"])


def test_gradient_of_constant_is_zero():
    f = parse_poly("7", ["x", "y"])
    assert all(g.is_zero() for g in log_gradient(f))


def test_gradient_of_monomial():
    f = parse_poly("x^2*y", ["x", "y"])
    assert log_gradient(f) == [parse_poly("2*x^2*y", ["x", "y"]),
                               parse_poly("x^2*y", ["x", "y"])]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_gradient_matches_finite_differences(seed):
    # theta_i f is the derivative of t -> f(x * exp(t * delta_i)) at t = 0
    rng = random.Random(seed)
    f = LaurentPoly(2, oracles.random_poly_terms(rng, 2, 4, exp_range=2))
    grads = log_gradient(f)
    point = [cmath.exp(complex(rng.uniform(-0.5, 0.5), 2 * cmath.pi * rng.random()))
             for _ in range(2)]
    h = 1e-5
    for i, g in enumerate(grads):
        bumped_up = list(point)
        bumped_dn = list(point)
        bumped_up[i] *= cmath.exp(h)
        bumped_dn[i] *= cmath.exp(-h)
        fd = (f.evaluate(bumped_up) - f.evaluate(bumped_dn)) / (2 * h)
        exact = g.evaluate(point)
        assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


# ---------------------------------------------------------------------------
# critical points
# ---------------------------------------------------------------------------

def test_clifford_torus_critical_points():
    f = parse_poly("x + y + 1/(x*y)", ["x", "y"])
    search = critical_points(f, FAST)
    assert len(search.points) == 3
    roots = sorted(((p.coords[0], p.value) for p in search.points),
                   key=lambda t: (t[0].real, t[0].imag))
    for z, value in roots:
        assert abs(z ** 3 - 1) < 1e-9            # points are (zeta, zeta)
        assert abs(value - 3 * z) < 1e-9
    for p in search.points:
        assert p.nondegenerate
        assert abs(p.coords[0] - p.coords[1]) < 1e-9


def test_quadric_quotient_values():
    f = parse_poly("x + (1+y)^2/(x*y)", ["x", "y"])
    vals = critical_values(f, FAST)
    got = sorted(v.real for v, _ in vals.values)
    assert len(got) == 2
    assert abs(got[0] + 4) < 1e-9 and abs(got[1] - 4) < 1e-9
    search = critical_points(f, FAST)
    assert all(p.nondegenerate for p in search.points)


def test_rank_one_closed_form():
    f = parse_poly("x + 1/x", ["x"])
    search = critical_points(f, SolverOptions(starts=40, seed=0))
    points = sorted(p.coords[0].real for p in search.points)
    assert len(points) == 2
    assert abs(points[0] + 1) < 1e-9 and abs(points[1] - 1) < 1e-9


def test_residuals_are_rechecked():
    f = parse_poly("x + y + 1/(x*y)", ["x", "y"])
    for p in critical_points(f, FAST).points:
        assert p.residual < critical.TOL
        grads = log_gradient(f)
        assert max(abs(g.evaluate(p.coords)) for g in grads) < critical.TOL


def _det(m):
    """Determinant by cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def assert_log_hessian_det_matches(f, point):
    # reference: det[theta_j theta_i f] from the exact derivative polynomials;
    # the tolerance is relative to the product of the row norms, which bounds
    # |det| and so sets the scale of its rounding error
    hess = [[h.evaluate(point.coords) for h in log_gradient(g)] for g in log_gradient(f)]
    scale = 1.0
    for row in hess:
        scale *= max(sum(abs(v) ** 2 for v in row) ** 0.5, 1e-300)
    assert abs(point.log_hessian_det - _det(hess)) <= 1e-9 * scale


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_log_hessian_det_matches_exact_derivatives(n, seed):
    # random terms added to x_1 + ... + x_n + 1/(x_1 ... x_n), whose terms they
    # leave alone, so the origin stays inside the Newton polytope and the
    # search has points to check
    rng = random.Random(seed)
    terms = oracles.random_poly_terms(rng, n, rng.randint(0, 4), exp_range=1)
    terms.update({tuple(int(i == j) for j in range(n)): 1 for i in range(n)})
    terms[(-1,) * n] = 1
    f = LaurentPoly(n, terms)
    points = critical_points(f, SolverOptions(starts=20, seed=0)).points
    assert points
    for p in points:
        assert_log_hessian_det_matches(f, p)


def test_log_hessian_with_an_identically_zero_entry():
    # theta_x theta_y f == 0 for P1 x P1, so that Hessian entry reads no terms
    f = parse_poly("x + 1/x + y + 1/y", ["x", "y"])
    search = critical_points(f, FAST)
    assert sorted(round(p.value.real, 9) for p in search.points) == [-4, 0, 0, 4]
    for p in search.points:
        assert abs(p.value.imag) < 1e-9
        assert abs(abs(p.log_hessian_det) - 4) < 1e-9 and p.nondegenerate
        assert_log_hessian_det_matches(f, p)


def test_constant_is_degenerate_input():
    f = parse_poly("5", ["x", "y"])
    search = critical_points(f, FAST)
    assert search.degenerate_input and not search.points
    vals = critical_values(f, FAST)
    assert vals.degenerate_input and not vals.values


def test_monomial_has_no_critical_points():
    f = parse_poly("x*y", ["x", "y"])
    search = critical_points(f, SolverOptions(starts=30, seed=0))
    assert not search.degenerate_input
    assert not search.points


@pytest.mark.parametrize("expr, vars_, starts", [
    ("x^1000+x^-1000", ["x"], 5),
    ("x^300*y^-300+y^200+1/x", ["x", "y"], 40),
])
def test_starts_that_overflow_are_dropped_without_warnings(expr, vars_, starts):
    # these starts overflow to inf and NaN; the search drops them as
    # non-finite rows and must not print numpy RuntimeWarnings about them
    f = parse_poly(expr, vars_)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        search = critical_points(f, SolverOptions(starts=starts, seed=0))
    assert not search.points and not search.degenerate_input


def test_same_seed_same_output():
    f = parse_poly("x + (1+y)^2/(x*y)", ["x", "y"])
    a = critical_points(f, FAST)
    b = critical_points(f, FAST)
    assert a == b


def test_values_invariant_under_unimodular_substitution():
    rng = random.Random(17)
    f = parse_poly("x + y + 1/(x*y)", ["x", "y"])
    base = sorted((v for v, _ in critical_values(f, FAST).values),
                  key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    for _ in range(3):
        a = oracles.random_unimodular(rng, 2, steps=3)
        g = f.monomial_substitute(a)
        vals = sorted((v for v, _ in critical_values(g, SolverOptions(starts=120, seed=1)).values),
                      key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        assert len(vals) == len(base)
        for u, w in zip(vals, base):
            assert abs(u - w) < 1e-7


@pytest.mark.parametrize("n,d", [(2, 1), (2, 2), (3, 2)])
def test_hypersurface_family_closed_form(n, d):
    f = fano_hypersurface_quotient(n, d)
    vals = critical_values(f, SolverOptions(starts=120, seed=0))
    order = n + 2 - d
    expected = sorted(
        ((order * d ** (d / order)) * cmath.exp(2j * cmath.pi * k / order) for k in range(order)),
        key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    got = sorted((v for v, _ in vals.values),
                 key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    assert len(got) == len(expected)
    for u, w in zip(got, expected):
        assert abs(u - w) < 1e-9


# ---------------------------------------------------------------------------
# block Newton: bitwise agreement with the per-start loop, bounded memory
# ---------------------------------------------------------------------------

FIELDS = ("coords", "value", "log_hessian_det", "nondegenerate", "residual")


def assert_same_bits(f, opts):
    # repr shows every bit of a float, so equal reprs are equal doubles
    got = critical_points(f, opts)
    want = oracles.per_start_critical_points(f, opts)
    assert got.degenerate_input == want.degenerate_input
    assert [[repr(getattr(p, k)) for k in FIELDS] for p in got.points] == \
        [[repr(getattr(p, k)) for k in FIELDS] for p in want.points]


@settings(max_examples=45, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_block_newton_matches_per_start_loop(n, seed, simplex):
    # with the terms of x_1 + ... + x_n + 1/(x_1 ... x_n) added, the origin
    # is inside the Newton polytope and most starts converge; without them,
    # many starts are dropped as non-finite or outside COORD_BOUND.  Up to 12
    # terms, as sums of 8 or more products are where an evaluation taking
    # another BLAS path differs in the last place.
    rng = random.Random(seed)
    terms = oracles.random_poly_terms(rng, n, rng.randint(1, 12), exp_range=2)
    if simplex:
        terms.update({tuple(int(i == j) for j in range(n)): 1 for i in range(n)})
        terms[(-1,) * n] = 1
    assert_same_bits(LaurentPoly(n, terms),
                     SolverOptions(starts=rng.randint(5, 30), seed=rng.randrange(100)))


def test_block_newton_singular_hessian_falls_back_row_by_row(monkeypatch):
    # theta_x f = theta_y f, so the log-Hessian of x*y + 1/(x*y) is singular
    # at every point: block solves fail, and each such step is solved row by
    # row, jittering the rows LAPACK finds singular (rounding in its complex
    # pivots lets some through)
    f = parse_poly("x*y + 1/(x*y)", ["x", "y"])
    opts = SolverOptions(starts=12, seed=0)
    assert_same_bits(f, opts)
    import numpy as np

    solve, calls = np.linalg.solve, []

    def recording_solve(a, b):
        try:
            x = solve(a, b)
        except np.linalg.LinAlgError:
            calls.append((a.ndim, False))
            raise
        calls.append((a.ndim, True))
        return x

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    critical_points(f, opts)
    assert (3, False) in calls and (2, False) in calls


@pytest.mark.parametrize("expr, vars_, opts", [
    ("x + y", ["x", "y"], SolverOptions(starts=40, seed=2)),
    ("(1+x)^2*(1+y)^2/(x*y) - 4", ["x", "y"], SolverOptions(starts=200, seed=0)),
    # degenerate along 1 + x + y = 0: 434 points kept, deduped in buckets
    ("(1+x+y)^4/(x*y)", ["x", "y"], SolverOptions(starts=512, seed=0)),
    ("x0 + (1+y1+y2)^3/(x0*y1*y2)", ["x0", "y1", "y2"], SolverOptions(starts=30, seed=0)),
    ("x + y + 1/(x*y)", ["x", "y"], SolverOptions(starts=critical.BLOCK + 1, seed=1)),
    ("x + 1/x", ["x"], SolverOptions(starts=2 * critical.BLOCK + 3, seed=4)),
], ids=["no-points", "dP4", "degenerate-line-512", "cubic-surface", "block-plus-one",
        "two-blocks-plus-three"])
def test_block_newton_matches_per_start_loop_fixed(expr, vars_, opts):
    assert_same_bits(parse_poly(expr, vars_), opts)


def test_bucketed_dedupe_matches_the_all_pairs_loop_across_bucket_borders(monkeypatch):
    # with a radius this wide, points merged along the degenerate line often
    # sit in neighbouring buckets of Re z_1
    monkeypatch.setattr(critical, "DEDUPE_RADIUS", 0.05)
    f = parse_poly("(1+x+y)^4/(x*y)", ["x", "y"])
    opts = SolverOptions(starts=512)
    assert repr(critical_points(f, opts)) == repr(oracles.per_start_critical_points(f, opts))


def test_block_newton_peak_memory_does_not_grow_with_starts():
    # x + y has no critical point, so no start converges and nothing is kept:
    # the peak is the working set of one block.  Stepping all starts at once
    # would need about 0.5 KB more per start here.
    import tracemalloc

    f = parse_poly("x + y", ["x", "y"])
    critical_points(f, SolverOptions(starts=2))  # first-call allocations

    def peak(starts):
        tracemalloc.start()
        try:
            critical_points(f, SolverOptions(starts=starts))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(16 * critical.BLOCK) <= 2 * peak(critical.BLOCK)
