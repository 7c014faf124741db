"""Standard Laurent potentials used by the scripts and the test suite."""

from __future__ import annotations

from fractions import Fraction

from .cover import CoverSpec, DivisorFunctional, build_cover_potential
from .laurent import LaurentPoly
from .parsing import parse_poly
from .periods import power_coefficient


def projective_space(n: int) -> LaurentPoly:
    """x1 + ... + xn + 1/(x1...xn), the toric potential of P^n."""
    if n < 1:
        raise ValueError("dimension must be positive")
    names = [f"z{i}" for i in range(1, n + 1)]
    text = " + ".join(names) + " + 1/(" + "*".join(names) + ")"
    return parse_poly(text, names)


def product_of_lines() -> LaurentPoly:
    """x + y + 1/x + 1/y, the toric potential of P^1 x P^1."""
    return parse_poly("x + y + 1/x + 1/y", ["x", "y"])


def hirzebruch_f2() -> LaurentPoly:
    """x + y + 1/x + 1/(x^2 y), the toric potential of the second Hirzebruch surface."""
    return parse_poly("x + y + 1/x + 1/(x^2*y)", ["x", "y"])


def del_pezzo_bl5() -> LaurentPoly:
    """(1+x)^2 (1+y)^2 / (xy) - 4, a potential for the degree-4 del Pezzo surface."""
    return parse_poly("(1+x)^2*(1+y)^2/(x*y) - 4", ["x", "y"])


def fano_hypersurface_quotient(n: int, d: int) -> LaurentPoly:
    """Quotient-torus potential of a degree-d hypersurface in P^(n+1), 1 <= d <= n+1:

        x_0 + ... + x_{n-d} + (1 + y_1 + ... + y_{d-1})**d / (x_0...x_{n-d} y_1...y_{d-1})
            - [d = n+1] * d!

    It is the d-fold cyclic cover of ``projective_space(n)`` branched along a divisor
    meeting its last d monomials, with descendant c_d(P^n); at d = 1 it is P^n itself.
    """
    if not 1 <= d <= n + 1:
        raise ValueError(f"need 1 <= d <= n+1, got d={d}, n={n}")
    k = n - d + 1  # coordinates off the branch divisor
    names = [f"x{i}" for i in range(k)] + [f"y{i}" for i in range(1, d)]
    base = projective_space(n)
    if d == 1:
        return LaurentPoly(n, base.terms, names)
    c = Fraction(d, n + 1)
    functional = DivisorFunctional([-c] * k + [1 - c] * (n - k), c)
    descendant = power_coefficient(base, d, (0,) * n)
    basis = [[int(i == j) + (j >= k) for i in range(n)] for j in range(n)]  # e_j, then 1 + e_j
    return build_cover_potential(CoverSpec(base, functional, d, descendant), basis=basis,
                                 quotient_varnames=names).quotient_potential
