import cmath
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

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
from lgforge.periods import period_sequence
from lgforge.potentials import fano_hypersurface_quotient, projective_space

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
def test_starts_that_overflow_are_dropped_without_warnings(expr, vars_, starts, monkeypatch):
    # some of these starts overflow to inf and NaN; the search drops them as
    # non-finite rows and must not print numpy RuntimeWarnings about them.
    # The second potential also has a point that another start reaches.
    import numpy as np

    isfinite, seen = np.isfinite, []

    def recording_isfinite(x, *args, **kwargs):
        out = isfinite(x, *args, **kwargs)
        seen.append(bool(np.all(out)))
        return out

    monkeypatch.setattr(np, "isfinite", recording_isfinite)
    f = parse_poly(expr, vars_)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        search = critical_points(f, SolverOptions(starts=starts, seed=0))
    assert False in seen, "no start went non-finite"
    assert not search.degenerate_input
    grads = log_gradient(f)
    for p in search.points:
        assert max(abs(g.evaluate(p.coords)) for g in grads) < critical.TOL


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
# the conifold point: an exact anchor for the solver
# ---------------------------------------------------------------------------

def conifold_fit(f, up_to):
    """(T, A, m) from the exact period sequence.  For f with positive
    coefficients and 0 inside its Newton polytope, Laplace's method on
    c_k = (2 pi)^-n int f^k gives c_k ~ A T^k k^(-n/2) on the multiples of m,
    the k where c_k is nonzero, with T the value of f's one critical point x_c
    in the positive orthant.  Fit log c_k + (n/2) log k = k log T + a_0 +
    a_1/k + ... + a_4/k^4 over the last six nonzero c_k; A = e^(a_0)."""
    import numpy as np

    coeffs = period_sequence(f, up_to).coeffs
    nonzero = [k for k, c in enumerate(coeffs) if k and c]
    ks = nonzero[-6:]
    rows = [[k] + [k ** -j for j in range(5)] for k in ks]
    rhs = [math.log(coeffs[k]) + f.rank / 2 * math.log(k) for k in ks]
    log_t, a_0 = np.linalg.lstsq(np.array(rows, dtype=float), np.array(rhs), rcond=None)[0][:2]
    return math.exp(log_t), math.exp(a_0), math.gcd(*nonzero)


@pytest.mark.parametrize("f, up_to", [
    (projective_space(2), 90),
    (projective_space(3), 40),
    (parse_poly("x + (1+y)^2/(x*y)", ["x", "y"]), 60),
    (fano_hypersurface_quotient(2, 1), 50),
    (fano_hypersurface_quotient(2, 2), 50),
    (fano_hypersurface_quotient(3, 1), 30),
    (fano_hypersurface_quotient(3, 2), 30),
    (fano_hypersurface_quotient(3, 3), 30),
    (fano_hypersurface_quotient(4, 3), 20),
], ids=["P2", "P3", "quadric", "X2_1", "X2_2", "X3_1", "X3_2", "X3_3", "X4_3"])
def test_crit_finds_the_conifold_point_the_periods_predict(f, up_to):
    # The exact layer checks the numerical one on a point known independently:
    # its value T, and the log-Hessian there through the prefactor
    # A = m T^(n/2) / ((2 pi)^(n/2) sqrt(det H)).  A unimodular chart changes
    # neither the periods nor the critical values, nor det H.
    n = f.rank
    for chart in [None] + [oracles.random_unimodular(random.Random(s), n) for s in range(4)]:
        g = f if chart is None else f.monomial_substitute(chart)
        conifold, prefactor, m = conifold_fit(g, up_to)
        points = critical_points(g, SolverOptions(starts=200, seed=0)).points
        positive = [p for p in points
                    if all(z.real > 0 and abs(z.imag) <= 1e-9 * z.real for z in p.coords)]
        assert positive, f"no critical point in the positive orthant (chart {chart})"
        p = min(positive, key=lambda p: abs(p.value - conifold))
        assert abs(p.value - conifold) <= 1e-6 * conifold, f"chart {chart}"
        det = p.log_hessian_det
        assert abs(det.imag) <= 1e-9 * det.real
        assert prefactor == pytest.approx(
            m * conifold ** (n / 2) / ((2 * math.pi) ** (n / 2) * math.sqrt(det.real)), rel=1e-3)


def test_critical_values_merge_equal_values():
    # x + 1/x + y + 1/y has critical points (+-1, +-1), with values -4, 0, 0, 4
    f = parse_poly("x + 1/x + y + 1/y", ["x", "y"])
    search = critical_points(f, SolverOptions(starts=200, seed=0))
    assert len(search.points) == 4
    values = critical_values(f, search=search).values
    assert [(round(v.real, 9), round(v.imag, 9), count) for v, count in values] == [
        (-4, 0, 1), (0, 0, 2), (4, 0, 1)]
    assert critical_values(f, SolverOptions(starts=200, seed=0)).values == values


# ---------------------------------------------------------------------------
# starts: one random.Random(seed) per search
# ---------------------------------------------------------------------------

SAME_SEED_CHILD = """
from lgforge import SolverOptions, critical_points, parse_poly
f = parse_poly("x0 + (1+y1+y2)^3/(x0*y1*y2)", ["x0", "y1", "y2"])
for seed in (0, 183037826, 2 ** 128 + 3):
    print(repr(critical_points(f, SolverOptions(starts=30, seed=seed))))
"""


def test_one_seed_gives_one_output_across_processes():
    # two fresh interpreters with different hash seeds; 183037826 is the seed
    # of the benchmark's solver probes
    src = Path(__file__).resolve().parent.parent / "src"
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", SAME_SEED_CHILD], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("CriticalPoint(") >= 3


def test_negative_seed_is_rejected():
    # random.Random(-1) would silently draw seed 1's starts
    f = parse_poly("x + 1/x", ["x"])
    with pytest.raises(ValueError, match="non-negative"):
        critical_points(f, SolverOptions(starts=3, seed=-1))


def test_point_and_value_order_does_not_depend_on_the_seed():
    # the conjugate points of x + y + 1/(x*y) share Re z_1, and their values
    # share a real part, up to rounding noise, so sorting on raw floats
    # ordered them by their last bits
    def rounded(z):
        return complex(round(z.real, 6), round(z.imag, 6))

    f = parse_poly("x + y + 1/(x*y)", ["x", "y"])
    orders = set()
    for seed in range(8):
        opts = SolverOptions(starts=120, seed=seed)
        search = critical_points(f, opts)
        orders.add((tuple(tuple(rounded(z) for z in p.coords) for p in search.points),
                    tuple(rounded(v) for v, _ in critical_values(f, opts, search).values)))
    assert len(orders) == 1


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
