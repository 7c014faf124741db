"""Closed-form answers the benchmark checks lgforge against.

Nothing here imports lgforge: the values come from counting arguments, so a
defect in the package cannot leak into its own reference.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


@lru_cache(maxsize=None)
def hypersurface_period(n: int, d: int, k: int) -> int:
    """c_k of the degree-d hypersurface in P^(n+1) (d = 1 gives P^n).

    With i = n + 2 - d the sequence is c_{im} = (im)! (dm)! / (m!)^(n+2),
    and zero off multiples of i.
    """
    i = n + 2 - d
    if k % i:
        return 0
    m = k // i
    return factorial(i * m) * factorial(d * m) // factorial(m) ** (n + 2)


@lru_cache(maxsize=None)
def product_of_lines_period(k: int) -> int:
    """c_k of x + y + 1/x + 1/y: C(2m, m)^2 at k = 2m, zero at odd k."""
    if k % 2:
        return 0
    m = k // 2
    return comb(2 * m, m) ** 2


@lru_cache(maxsize=None)
def del_pezzo_bl5_period(k: int) -> int:
    """c_k of (1+x)^2 (1+y)^2/(xy) - 4: sum_j C(k,j) (-4)^(k-j) C(2j,j)^2."""
    return sum(comb(k, j) * (-4) ** (k - j) * comb(2 * j, j) ** 2 for j in range(k + 1))


def simplex_power_coefficient(r: int, b: tuple[int, ...]) -> int:
    """Coefficient of x^b in (x_1 + ... + x_n + 1/(x_1...x_n))^r.

    A term x^b takes c copies of the inverse monomial and b_i + c copies of
    x_i, with (n+1) c + sum(b) = r, so it is one multinomial coefficient.
    """
    n = len(b)
    rest = r - sum(b)
    if rest < 0 or rest % (n + 1):
        return 0
    c = rest // (n + 1)
    counts = [bi + c for bi in b] + [c]
    if min(counts) < 0:
        return 0
    out = factorial(r)
    for m in counts:
        out //= factorial(m)
    return out


def hypersurface_critical_values(n: int, d: int, scale: Fraction | int = 1) -> list[complex]:
    """The n+2-d critical values s (n+2-d) d^(d/(n+2-d)) zeta^k of the quotient potential."""
    order = n + 2 - d
    base = float(scale) * order * d ** (d / order)
    return [base * cmath.exp(2j * cmath.pi * k / order) for k in range(order)]
