"""Birational substitutions of torus variables and period cross-checks.

A mutation sends each variable to a rational expression; applying it to a
Laurent polynomial and normalising may or may not land back in the Laurent
ring, and NotLaurentError reports the failure.  There is no mutation search
here: substitutions are always explicit input.
"""

from __future__ import annotations

from ._record import record
from .errors import RankMismatchError, ZeroDenominatorError
from .laurent import LaurentPoly, RationalExpr, laurent_normalize
from .parsing import parse, spec_field, spec_list, spec_names, spec_str
from .periods import ComparisonReport, period_sequence


@record
class Substitution:
    """One rational-expression image per variable."""

    images: tuple[RationalExpr, ...]

    def __post_init__(self):
        if not self.images:
            raise ValueError("a substitution needs at least one image")
        rank = self.images[0].rank
        if any(img.rank != rank for img in self.images):
            raise RankMismatchError("substitution images live on different tori")
        if any(img.num.is_zero() for img in self.images):
            raise ZeroDenominatorError("substitution image is identically zero")

    @property
    def rank(self) -> int:
        return self.images[0].rank


def apply_substitution(f: LaurentPoly, sub: Substitution) -> LaurentPoly:
    """Substitute every variable, combine exactly, and normalise to Laurent form."""
    if f.rank != len(sub.images):
        raise RankMismatchError(
            f"polynomial rank {f.rank} vs {len(sub.images)} substitution images")
    names = sub.images[0].num.varnames
    total = RationalExpr.from_poly(LaurentPoly.zero(sub.rank, names))
    for e, c in sorted(f.terms.items()):
        term = RationalExpr.from_poly(LaurentPoly.constant(sub.rank, c, names))
        for img, k in zip(sub.images, e):
            if k:
                term = term * img ** k
        total = total + term
    return laurent_normalize(total)


@record
class PeriodCompareRow:
    k: int
    left: object
    right: object
    match: bool


def check_period_invariance(f: LaurentPoly, g: LaurentPoly, up_to: int) -> ComparisonReport:
    """Compare constant terms of powers of two polynomials up to a bound."""
    if f.rank != g.rank:
        raise RankMismatchError(f"rank {f.rank} vs rank {g.rank}")
    left = period_sequence(f, up_to)
    right = period_sequence(g, up_to)
    rows = tuple(PeriodCompareRow(k, a, b, a == b)
                 for k, (a, b) in enumerate(zip(left.coeffs, right.coeffs)))
    return ComparisonReport(rows, all(r.match for r in rows))


def substitution_from_dict(data: dict) -> Substitution:
    """Read {"vars": [...], "images": [expr, ...]} into a Substitution.

    A missing or malformed key raises ValueError naming it.
    """
    varnames = spec_field(data, "vars", spec_names(), "substitution")
    texts = spec_field(data, "images", spec_list(spec_str, len(varnames)), "substitution")
    return Substitution(tuple(parse(text, varnames) for text in texts))
