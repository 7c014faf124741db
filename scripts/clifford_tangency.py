#!/usr/bin/env python3
"""Tangency counts for the Clifford torus in the projective plane.

The class meeting the coordinate lines with multiplicities (0, 1, 2) has
tau = 1 against the toric boundary and tau = 3 against a smooth anticanonical
cubic; the spherical class at degree 3 has tau = 0 once the descendant 6 is
subtracted.
"""

from lgforge import parse_poly, period_sequence, tangency_number


def main():
    w = parse_poly("z1 + z2 + 1/(z1*z2)", ["z1", "z2"])
    print(f"potential: {w}")

    toric = tangency_number(w, 3, (1, 2), multiplicities=(0, 1, 2))
    print(f"toric boundary, multiplicities (0,1,2):  tau = {toric.value}")

    smooth = tangency_number(w, 3, (1, 2), smooth=True)
    print(f"smooth anticanonical cubic:              tau = {smooth.value}")

    descendant = period_sequence(w, 3)[3]
    print(f"degree-3 descendant from the period sequence: {descendant}")
    spherical = tangency_number(w, 3, (0, 0), smooth=True, descendant=descendant)
    print(f"spherical class (zero boundary):         tau = {spherical.value}")


if __name__ == "__main__":
    main()
