#!/usr/bin/env python3
"""Walk the double-cover chain plane -> quadric -> degree-4 del Pezzo.

Each stage is one cyclic cover step at the potential level; the quotient
potentials are cross-checked against the known toric/cluster potentials via
mutations and period comparison.
"""

from fractions import Fraction

from lgforge import (
    CoverSpec,
    DivisorFunctional,
    apply_substitution,
    build_cover_potential,
    check_period_invariance,
    parse_poly,
    period_sequence,
    substitution_from_dict,
)


def main():
    p2 = parse_poly("z1 + z2 + 1/(z1*z2)", ["z1", "z2"])
    conic = DivisorFunctional((Fraction(1, 3), Fraction(1, 3)), Fraction(2, 3))

    print("== stage 1: double cover of the plane branched along a conic ==")
    stage1 = build_cover_potential(
        CoverSpec(p2, conic, 2, Fraction(0)),
        basis=[(-1, -1), (1, -1)], quotient_varnames=("x", "y"))
    print(f"upstairs : {stage1.upstairs_potential}")
    print(f"quotient : {stage1.quotient_potential}")

    p1p1 = parse_poly("x + y + 1/x + 1/y", ["x", "y"])
    mut = substitution_from_dict({"vars": ["x", "y"], "images": ["x/(1+y)", "x*y/(1+y)"]})
    image = apply_substitution(p1p1, mut)
    print(f"mutated product-of-lines potential: {image}")
    print(f"exact match: {image == stage1.quotient_potential}")

    print()
    print("== stage 2: double cover of the quadric branched along an elliptic curve ==")
    d2 = period_sequence(stage1.quotient_potential, 2)[2]
    print(f"descendant at degree 2: {d2}")
    everything = DivisorFunctional((Fraction(0), Fraction(0)), Fraction(1))
    stage2 = build_cover_potential(
        CoverSpec(stage1.quotient_potential, everything, 2, d2),
        basis=[(2, 0), (0, 1)], quotient_varnames=("X", "Y"))
    print(f"upstairs : {stage2.upstairs_potential}")
    print(f"quotient : {stage2.quotient_potential}")

    ws = parse_poly("(1+x)^2*(1+y)^2/(x*y) - 4", ["x", "y"])
    mut2 = substitution_from_dict({"vars": ["x", "y"], "images": ["x*y/(1+y)^2", "y"]})
    ws_image = apply_substitution(ws, mut2)
    print(f"mutated degree-4 del Pezzo potential: {ws_image}")
    report = check_period_invariance(stage2.quotient_potential, ws, 12)
    print("periods of the chain output vs the reference potential (K = 12):")
    for row in report.rows:
        print(f"  k={row.k:<3d} {row.left} vs {row.right}  {'ok' if row.match else 'MISMATCH'}")
    print(f"overall: {'PASS' if report.passed else 'FAIL'}")


if __name__ == "__main__":
    main()
