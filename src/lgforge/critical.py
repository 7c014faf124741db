"""Numerical critical points of Laurent potentials on the complex torus.

The gradient is taken in torus-invariant form, theta_i = x_i d/dx_i, so the
critical system theta_i f = 0 lives on (C*)^n and Newton steps act
multiplicatively (z -> z * exp(-delta)), which keeps iterates off the
coordinate axes.  Starts are stepped in blocks of up to ``BLOCK``: each step
evaluates every monomial of f at every start of the block into one S x T
array, reads the gradient and the upper triangle of the symmetric log-Hessian
off it by stacked dot products, and solves all S Newton systems with one
batched ``np.linalg.solve``.  Starts that converge, go non-finite or leave
``COORD_BOUND`` drop out of the block; damping and the singular-matrix jitter
apply per start.  Every start goes through the floating-point operations it
would on its own, so the points found are bit for bit those of a one-start
loop.  Residuals of reported points are re-checked through the exact
polynomial evaluator, independently of the numpy arithmetic of the Newton
steps.
"""

from __future__ import annotations

import math

from ._record import record
from .errors import FloatRangeError
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
BLOCK = 256  # starts stepped together; bounds the working memory of a search
START_RADIUS = 4.0  # start moduli are log-uniform in [1/START_RADIUS, START_RADIUS]
COORD_BOUND = 1e9  # a start is dropped once some |z_i| leaves [1/COORD_BOUND, COORD_BOUND]
DEDUPE_RADIUS = 1e-6  # points this close in the max-norm are one point
HESSIAN_THRESHOLD = 1e-8  # |det| below this times the product of row norms is degenerate
VALUE_TOL = 1e-8  # critical values this close are one value


@record
class SolverOptions:
    starts: int = 200
    seed: int = 0


@record
class CriticalPoint:
    coords: tuple[complex, ...]
    value: complex
    log_hessian_det: complex
    nondegenerate: bool
    residual: float


@record
class CriticalSearch:
    points: tuple[CriticalPoint, ...]
    degenerate_input: bool  # gradient vanishes identically (constant potential)


@record
class CriticalValueSet:
    values: tuple[tuple[complex, int], ...]  # (value, multiplicity)
    degenerate_input: bool


def _entry(items, weight) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``items`` with nonzero weight(e), and the exact weight(e) * c rounded."""
    import numpy as np

    rows = [k for k, (e, _) in enumerate(items) if weight(e)]
    try:
        coeffs = [complex(weight(items[k][0]) * items[k][1]) for k in rows]
    except OverflowError:
        raise FloatRangeError(
            "a coefficient of the potential is outside the float range") from None
    return np.array(rows, dtype=np.intp), np.array(coeffs, dtype=complex)


def _evaluate_block(m: np.ndarray, entries) -> np.ndarray:
    """The entries at each of S points: column c holds, for every row of the
    S x T monomial matrix ``m``, entry c's rows of it dotted with its
    coefficients.

    ``m.take(rows, axis=1)`` is C-ordered, so each stacked ``(1, k) @ (k, 1)``
    product is the BLAS dot of one contiguous row, as ``m[rows] @ coeffs`` is
    for one start; the fancy index ``m[:, rows]`` is F-ordered and takes
    another BLAS path whose sums differ in the last place.
    """
    import numpy as np

    out = np.empty((m.shape[0], len(entries)), dtype=complex)
    for col, (rows, coeffs) in enumerate(entries):
        out[:, col] = (m.take(rows, axis=1)[:, None, :] @ coeffs[:, None])[:, 0, 0]
    return out


def critical_points(f: LaurentPoly, opts: SolverOptions = SolverOptions()) -> CriticalSearch:
    """Newton search for critical points from seeded random starts.

    Non-converged starts are silently dropped; a singular Jacobian triggers a
    deterministic multiplicative jitter and the iteration continues.  Converged
    points are re-checked exactly, canonically sorted, and deduplicated within
    ``DEDUPE_RADIUS`` in the max-norm.

    Starts are stepped ``BLOCK`` at a time, so the working memory does not
    grow with ``opts.starts``; only the converged points are kept until the
    re-check.
    """
    import numpy as np  # here, not at module level: no other command pays its import

    n = f.rank
    grads = log_gradient(f)
    if all(g.is_zero() for g in grads):
        return CriticalSearch((), degenerate_input=True)
    items = sorted(f.terms.items())
    exps = np.array([e for e, _ in items], dtype=np.int64)
    # theta_i f and theta_j theta_i f weight the term c x^e by e_i and e_i e_j;
    # the Hessian is symmetric, so only the entries with i <= j are evaluated
    grad = [_entry(items, lambda e, i=i: e[i]) for i in range(n)]
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    hess = [_entry(items, lambda e, i=i, j=j: e[i] * e[j]) for i, j in upper]
    rows, cols = np.array(upper).T

    def monomials(z):
        return np.prod(z[:, None, :] ** exps, axis=2)

    def log_hessian(m):
        h = np.empty((m.shape[0], n, n), dtype=complex)
        h[:, rows, cols] = h[:, cols, rows] = _evaluate_block(m, hess)
        return h

    rng = np.random.default_rng(opts.seed)
    log_r = math.log(START_RADIUS)
    converged: list[tuple[int, np.ndarray]] = []  # (start index, point)
    # starts that overflow or go NaN are dropped below as non-finite rows,
    # so numpy's RuntimeWarnings about them would only be noise
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, opts.starts, BLOCK):
            block = []
            for _ in range(min(BLOCK, opts.starts - first)):
                radii = np.exp(rng.uniform(-log_r, log_r, n))
                phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
                block.append(radii * phases)
            z = np.array(block)
            index = np.arange(first, first + len(block))
            for _ in range(MAX_ITER):
                if not len(z):
                    break
                m = monomials(z)
                g = _evaluate_block(m, grad)
                finite = np.isfinite(g).all(axis=1)
                done = finite & (np.abs(g).max(axis=1) < TOL)
                converged.extend(zip(index[done], z[done]))
                live = finite & ~done
                z, m, g, index = z[live], m[live], g[live], index[live]
                h = log_hessian(m)
                moved = np.ones(len(z), dtype=bool)
                try:
                    delta = np.linalg.solve(h, g[:, :, None])[:, :, 0]
                except np.linalg.LinAlgError:
                    delta = np.zeros_like(g)
                    for r in range(len(z)):
                        try:
                            delta[r] = np.linalg.solve(h[r], g[r])
                        except np.linalg.LinAlgError:
                            z[r] = z[r] * np.exp(1e-6 + 1e-6j)  # nudge off the singular locus
                            moved[r] = False
                step = np.abs(delta).max(axis=1)
                wild = step > 5.0
                delta[wild] *= (5.0 / step[wild])[:, None]  # damp wild steps far from a root
                z = np.where(moved[:, None], z * np.exp(-delta), z)
                mags = np.abs(z)
                escaped = moved & ((mags.max(axis=1) > COORD_BOUND)
                                   | (mags.min(axis=1) < 1.0 / COORD_BOUND))
                z, index = z[~escaped], index[~escaped]

    # exact re-check, canonical order, dedupe
    checked = []
    for _, z in sorted(converged, key=lambda item: item[0]):
        pt = [complex(v) for v in z]
        residual = max(abs(g.evaluate(pt)) for g in grads)
        if residual < TOL:
            checked.append((pt, residual))
    checked.sort(key=lambda item: tuple((v.real, v.imag) for v in item[0]))
    points: list[CriticalPoint] = []
    # kept points by floor(Re z_1 / DEDUPE_RADIUS): two points closer than the
    # radius in the max-norm sit at most one bucket apart, so each point is
    # tested against the kept points of three buckets instead of all of them
    kept: dict[int, list[list[complex]]] = {}
    for pt, residual in checked:
        b = math.floor(pt[0].real / DEDUPE_RADIUS)
        if any(max(abs(a - c) for a, c in zip(pt, other)) < DEDUPE_RADIUS
               for k in (b - 1, b, b + 1) for other in kept.get(k, ())):
            continue
        kept.setdefault(b, []).append(pt)
        h = log_hessian(monomials(np.array([pt])))[0]
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
