"""Numerical critical points of Laurent potentials on the complex torus.

The gradient is taken in torus-invariant form, theta_i = x_i d/dx_i, so the
critical system theta_i f = 0 lives on (C*)^n and Newton steps act
multiplicatively (z -> z * exp(-delta)), which keeps iterates off the
coordinate axes.  Each step evaluates every monomial of f once and reads the
gradient and log-Hessian entries off that one vector.  Residuals of reported
points are re-checked through the exact polynomial evaluator, independently of
the numpy arithmetic of the Newton steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .laurent import LaurentPoly


def log_gradient(f: LaurentPoly) -> list[LaurentPoly]:
    """The torus-invariant gradient (theta_1 f, ..., theta_n f)."""
    out = []
    for i in range(f.rank):
        out.append(LaurentPoly(
            f.rank,
            {e: e[i] * c for e, c in f.terms.items() if e[i] != 0},
            f.varnames,
        ))
    return out


TOL = 1e-11  # max |theta_i f| below this ends Newton and passes the exact re-check
MAX_ITER = 80  # Newton steps per start before the start is dropped
START_RADIUS = 4.0  # start moduli are log-uniform in [1/START_RADIUS, START_RADIUS]
COORD_BOUND = 1e9  # a start is dropped once some |z_i| leaves [1/COORD_BOUND, COORD_BOUND]
DEDUPE_RADIUS = 1e-6  # points this close in the max-norm are one point
HESSIAN_THRESHOLD = 1e-8  # |det| below this times the product of row norms is degenerate
VALUE_TOL = 1e-8  # critical values this close are one value


@dataclass(frozen=True)
class SolverOptions:
    starts: int = 200
    seed: int = 0


@dataclass(frozen=True)
class CriticalPoint:
    coords: tuple[complex, ...]
    value: complex
    log_hessian_det: complex
    nondegenerate: bool
    residual: float


@dataclass(frozen=True)
class CriticalSearch:
    points: tuple[CriticalPoint, ...]
    degenerate_input: bool  # gradient vanishes identically (constant potential)


@dataclass(frozen=True)
class CriticalValueSet:
    values: tuple[tuple[complex, int], ...]  # (value, multiplicity)
    degenerate_input: bool


def _entry(items, weight) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``items`` with nonzero weight(e), and the exact weight(e) * c rounded."""
    import numpy as np

    rows = [k for k, (e, _) in enumerate(items) if weight(e)]
    coeffs = [complex(weight(items[k][0]) * items[k][1]) for k in rows]
    return np.array(rows, dtype=np.intp), np.array(coeffs, dtype=complex)


def _evaluate(m: np.ndarray, entries) -> np.ndarray:
    import numpy as np

    return np.array([m[rows] @ coeffs for rows, coeffs in entries])


def critical_points(f: LaurentPoly, opts: SolverOptions = SolverOptions()) -> CriticalSearch:
    """Newton search for critical points from seeded random starts.

    Non-converged starts are silently dropped; a singular Jacobian triggers a
    deterministic multiplicative jitter and the iteration continues.  Converged
    points are re-checked exactly, canonically sorted, and deduplicated within
    ``DEDUPE_RADIUS`` in the max-norm.
    """
    import numpy as np  # here, not at module level: no other command pays its import

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

    rng = np.random.default_rng(opts.seed)
    log_r = math.log(START_RADIUS)
    converged: list[np.ndarray] = []
    for _ in range(opts.starts):
        radii = np.exp(rng.uniform(-log_r, log_r, n))
        phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
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
    checked.sort(key=lambda item: tuple((v.real, v.imag) for v in item[0]))
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


def critical_values(f: LaurentPoly, opts: SolverOptions = SolverOptions(),
                    search: CriticalSearch | None = None) -> CriticalValueSet:
    """Distinct critical values with multiplicities (clustered within VALUE_TOL)."""
    if search is None:
        search = critical_points(f, opts)
    clusters: list[tuple[complex, int]] = []
    for p in sorted(search.points, key=lambda p: (p.value.real, p.value.imag)):
        for i, (rep, count) in enumerate(clusters):
            if abs(p.value - rep) <= VALUE_TOL:
                clusters[i] = (rep, count + 1)
                break
        else:
            clusters.append((p.value, 1))
    return CriticalValueSet(tuple(clusters), search.degenerate_input)
