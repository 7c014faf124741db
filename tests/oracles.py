"""Independent reference implementations used to cross-check the package.

Nothing in here imports lgforge internals beyond plain data (dicts of
exponent tuples), so these stay honest as oracles.  The one exception is the
per-start Newton search at the end, a bitwise reference for the block solver
(see the note there).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial


# ---------------------------------------------------------------------------
# dense-dict polynomial arithmetic (any rank, exponents as tuples)
# ---------------------------------------------------------------------------

def dict_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def dict_pow(a: dict, k: int, rank: int) -> dict:
    out = {(0,) * rank: Fraction(1)}
    for _ in range(k):
        out = dict_mul(out, a)
    return out


def constant_term_of_power(terms: dict, k: int, rank: int) -> Fraction:
    return dict_pow(terms, k, rank).get((0,) * rank, Fraction(0))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def p2_constant_term(k: int) -> int:
    """c_0((x + y + 1/(xy))^k) by multinomial counting: nonzero iff 3 | k."""
    if k % 3 != 0:
        return 0
    m = k // 3
    return factorial(k) // (factorial(m) ** 3)


def weighted_projective_period(weights: tuple[int, ...], k: int) -> int:
    """The k-th period coefficient of the weighted projective space P(w_0..w_n):
    (md)!/prod (w_i d)! at k = md, m = sum(w), and 0 when m does not divide k.
    With w_0 = 1 it is c_0(f^k) for the mirror f = x_1 + ... + x_n + 1/prod x_i^w_i."""
    m = sum(weights)
    if k % m != 0:
        return 0
    d = k // m
    out = factorial(k)
    for w in weights:
        out //= factorial(w * d)
    return out


def central_binomial_term(k: int) -> int:
    """c_0((x + 1/x)^k): paths returning to the origin."""
    return comb(k, k // 2) if k % 2 == 0 else 0


def p1xp1_constant_term(k: int) -> int:
    """c_0((x + y + 1/x + 1/y)^k) by splitting steps between the two axes."""
    if k % 2 != 0:
        return 0
    return sum(comb(k, 2 * j) * comb(2 * j, j) * comb(k - 2 * j, (k - 2 * j) // 2)
               for j in range(k // 2 + 1))


def dp4_constant_term(k: int) -> int:
    """c_0(((1+x)^2 (1+y)^2/(xy) - 4)^k): (1+x)^2/x = x + 2 + 1/x has constant
    terms C(2j, j), so the product has C(2j, j)^2, and -4 enters binomially."""
    return sum(comb(k, j) * (-4) ** (k - j) * comb(2 * j, j) ** 2 for j in range(k + 1))


def hypersurface_terms(n: int, d: int) -> dict:
    """x_0 + ... + x_{n-d} + (1 + y_1 + ... + y_{d-1})^d / (x_0...x_{n-d} y_1...y_{d-1})
    - [d = n+1] d!, the quotient potential of the degree-d hypersurface in P^(n+1)."""
    k = n - d + 1
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    numer = dict_pow({(0,) * n: Fraction(1), **{unit[j]: Fraction(1) for j in range(k, n)}},
                     d, n)
    out = {tuple(x - 1 for x in e): c for e, c in numer.items()}
    for j in range(k):
        out[unit[j]] = Fraction(1)
    if d == n + 1:
        out[(0,) * n] = out.get((0,) * n, Fraction(0)) - factorial(d)
    return {e: c for e, c in out.items() if c != 0}


def hypersurface_period(n: int, d: int, k: int) -> int:
    """c_k of the degree-d hypersurface in P^(n+1), by Givental's mirror theorem.

    Index e = n+2-d >= 2: c_{em} = (em)! (dm)! / (m!)^(n+2), and 0 off the
    multiples of e.  Index 1 (d = n+1): the quantum period is
    e^(-d! t) sum_m (dm)!/(m!)^(n+2) t^m, so c_k = sum_m C(k,m) (-d!)^(k-m)
    (dm)!/(m!)^d, the multinomial coefficient of m copies of each of d parts.
    """
    e = n + 2 - d
    if e == 1:
        return sum(comb(k, m) * (-factorial(d)) ** (k - m) * factorial(d * m) // factorial(m) ** d
                   for m in range(k + 1))
    if k % e:
        return 0
    m = k // e
    return factorial(e * m) * factorial(d * m) // factorial(m) ** (n + 2)


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------

def random_poly_terms(rng: random.Random, rank: int, n_terms: int,
                      exp_range: int = 3, coeff_range: int = 5) -> dict:
    out: dict = {}
    for _ in range(n_terms):
        e = tuple(rng.randint(-exp_range, exp_range) for _ in range(rank))
        c = 0
        while c == 0:
            c = rng.randint(-coeff_range, coeff_range)
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c != 0}


def random_unimodular(rng: random.Random, n: int, steps: int = 6) -> list[list[int]]:
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if op == 0 and i != j:
            q = rng.choice([-2, -1, 1, 2])
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        elif op == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return m


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def mat_det(a) -> int:
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        total += (-1) ** j * a[0][j] * mat_det(minor)
    return total


def fraction_solve(a, b) -> list[Fraction]:
    """The solution x of a x = b for a nonsingular square a, by Gauss-Jordan
    elimination over the rationals."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        for i in range(n):
            if i != col and m[i][col] != 0:
                q = m[i][col] / m[col][col]
                m[i] = [x - q * y for x, y in zip(m[i], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


# ---------------------------------------------------------------------------
# per-start Newton search
# ---------------------------------------------------------------------------
# lgforge.critical.critical_points steps a block of starts at once.  Each row
# of a block must go through the same floating-point operations, in the same
# order, as a start of the loop below, which ran one start at a time, so the
# two searches agree bit for bit.  The loop is kept verbatim as that
# reference; unlike the oracles above it reads the potential's own gradient,
# evaluator and the solver's constants, which the block solver shares.  Its
# dedupe, which tests each point against every point kept so far, is likewise
# the reference for the solver's, which tests only the nearby kept points.

def _entry(items, weight):
    """The rows of ``items`` with nonzero weight(e), and the exact weight(e) * c rounded."""
    import numpy as np

    rows = [k for k, (e, _) in enumerate(items) if weight(e)]
    coeffs = [complex(weight(items[k][0]) * items[k][1]) for k in rows]
    return np.array(rows, dtype=np.intp), np.array(coeffs, dtype=complex)


def _evaluate(m, entries):
    import numpy as np

    return np.array([m[rows] @ coeffs for rows, coeffs in entries])


def per_start_critical_points(f, opts):
    """Newton search for critical points from seeded random starts.

    Non-converged starts are silently dropped; a singular Jacobian triggers a
    deterministic multiplicative jitter and the iteration continues.  Converged
    points are re-checked exactly, canonically sorted, and deduplicated within
    ``DEDUPE_RADIUS`` in the max-norm.
    """
    import math

    import numpy as np

    from lgforge.critical import (
        COORD_BOUND, DEDUPE_RADIUS, HESSIAN_THRESHOLD, MAX_ITER, START_RADIUS, TOL,
        CriticalPoint, CriticalSearch, log_gradient,
    )

    n = f.rank
    grads = log_gradient(f)
    if all(g.is_zero() for g in grads):
        return CriticalSearch((), degenerate_input=True)
    items = sorted(f.terms.items())
    exps = np.array([e for e, _ in items], dtype=np.int64)
    # theta_i f and theta_j theta_i f weight the term c x^e by e_i and e_i e_j
    grad = [_entry(items, lambda e, i=i: e[i]) for i in range(n)]
    hess = [_entry(items, lambda e, i=i, j=j: e[i] * e[j])
            for i in range(n) for j in range(n)]  # row-major: theta_j theta_i f

    rng = random.Random(opts.seed)
    log_r = math.log(START_RADIUS)
    converged: list[np.ndarray] = []
    for _ in range(opts.starts):
        radii = np.exp(np.array([rng.uniform(-log_r, log_r) for _ in range(n)]))
        phases = np.exp(2j * np.pi * np.array([rng.uniform(0.0, 1.0) for _ in range(n)]))
        z = radii * phases
        for _ in range(MAX_ITER):
            m = np.prod(z[None, :] ** exps, axis=1)
            g = _evaluate(m, grad)
            if not np.all(np.isfinite(g)):
                break
            if np.max(np.abs(g)) < TOL:
                converged.append(z)
                break
            h = _evaluate(m, hess).reshape(n, n)
            try:
                delta = np.linalg.solve(h, g)
            except np.linalg.LinAlgError:
                z = z * np.exp(1e-6 + 1e-6j)  # nudge off the singular locus
                continue
            step = np.max(np.abs(delta))
            if step > 5.0:
                delta = delta * (5.0 / step)  # damp wild steps far from a root
            z = z * np.exp(-delta)
            mags = np.abs(z)
            if np.max(mags) > COORD_BOUND or np.min(mags) < 1.0 / COORD_BOUND:
                break

    # exact re-check, canonical order, dedupe
    checked = []
    for z in converged:
        pt = [complex(v) for v in z]
        residual = max(abs(g.evaluate(pt)) for g in grads)
        if residual < TOL:
            checked.append((pt, residual))
    checked.sort(key=lambda item: tuple(
        (round(v.real / DEDUPE_RADIUS), round(v.imag / DEDUPE_RADIUS)) for v in item[0]))
    points: list[CriticalPoint] = []
    kept: list[list[complex]] = []
    for pt, residual in checked:
        if any(max(abs(a - b) for a, b in zip(pt, other)) < DEDUPE_RADIUS
               for other in kept):
            continue
        kept.append(pt)
        m = np.prod(np.array(pt)[None, :] ** exps, axis=1)
        h = _evaluate(m, hess).reshape(n, n)
        det = complex(np.linalg.det(h))
        scale = 1.0
        for i in range(n):
            scale *= max(float(np.linalg.norm(h[i])), 1e-300)
        nondegenerate = abs(det) > HESSIAN_THRESHOLD * scale
        points.append(CriticalPoint(
            coords=tuple(pt),
            value=f.evaluate(pt),
            log_hessian_det=det,
            nondegenerate=nondegenerate,
            residual=residual,
        ))
    return CriticalSearch(tuple(points), degenerate_input=False)
