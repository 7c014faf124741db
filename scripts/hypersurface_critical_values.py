#!/usr/bin/env python3
"""Critical values of the quotient hypersurface potentials.

For a degree-d hypersurface in P^(n+1) with d <= n, the potential on the
quotient torus has critical values (n+2-d) * lambda with lambda^(n+2-d) = d^d,
all nondegenerate.  This script finds them numerically and prints the
deviation from the closed form.
"""

import cmath

from lgforge import SolverOptions, critical_points, critical_values
from lgforge.potentials import fano_hypersurface_quotient

CASES = [(2, 1), (2, 2), (3, 2), (3, 3), (4, 3)]


def main():
    opts = SolverOptions(starts=200, seed=0)
    for n, d in CASES:
        f = fano_hypersurface_quotient(n, d)
        order = n + 2 - d
        expected = [(order * d ** (d / order)) * cmath.exp(2j * cmath.pi * k / order)
                    for k in range(order)]
        search = critical_points(f, opts)
        found = critical_values(f, opts, search=search)
        points = search.points
        print(f"(n, d) = ({n}, {d}):  {f}")
        for value, mult in found.values:
            deviation = min(abs(value - e) for e in expected)
            print(f"  value {value:+.9f}  multiplicity {mult}  |closed-form error| = {deviation:.2e}")
        flags = {p.nondegenerate for p in points}
        print(f"  nondegenerate: {flags == {True}}   ({len(points)} points)")
        print()


if __name__ == "__main__":
    main()
