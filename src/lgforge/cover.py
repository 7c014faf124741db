"""Cyclic-cover potentials, tangency counts, and the disc-class ledger.

Given a base potential W, an affine functional recording which monomials come
from discs through the branch divisor, and a cover degree r, the potential
upstairs is

    W_complement + W_divisor**r - descendant,

living on the sublattice fixed by the deck character; rewriting it in a basis
of that sublattice produces the quotient-torus potential.  The same coefficient
bookkeeping inverts to tangency counts, and small helpers cover the disc-class
checks (Riemann-Hurwitz lifting, Maslov positivity, monotonicity, and
connectivity of the covering torus).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd
from typing import Sequence

from ._record import record
from .errors import (
    DiscLedgerError,
    InvalidFunctionalError,
    InvarianceError,
    MultiplicityError,
    RankMismatchError,
)
from .lattice import CharacterAction, Sublattice, invariant_sublattice, \
    rewrite_in_sublattice, solve_character
from .laurent import Exponent, LaurentPoly
from .periods import DescendantConstant, power_coefficient


# ---------------------------------------------------------------------------
# divisor functionals and potential splitting
# ---------------------------------------------------------------------------

@record
class DivisorFunctional:
    """Affine map e -> linear.e + constant giving branch-divisor intersections.

    On the support of the potential it is paired with, every value must be the
    integer 0 or 1 (the disc either misses the divisor or crosses it once).
    """

    linear: tuple[Fraction, ...]
    constant: Fraction

    def __post_init__(self):
        object.__setattr__(self, "linear", tuple(Fraction(a) for a in self.linear))
        object.__setattr__(self, "constant", Fraction(self.constant))

    @property
    def rank(self) -> int:
        return len(self.linear)

    def degree(self, e: Sequence[int]) -> Fraction:
        if len(e) != self.rank:
            raise RankMismatchError(f"vector of length {len(e)} for rank {self.rank}")
        return sum(a * x for a, x in zip(self.linear, e)) + self.constant

    def validate_on(self, f: LaurentPoly) -> None:
        if f.rank != self.rank:
            raise RankMismatchError(f"potential rank {f.rank} vs functional rank {self.rank}")
        offenders = [(e, self.degree(e)) for e in f.support()
                     if self.degree(e) not in (0, 1)]
        if offenders:
            raise InvalidFunctionalError(offenders)


def split_potential(f: LaurentPoly, functional: DivisorFunctional
                    ) -> tuple[LaurentPoly, LaurentPoly]:
    """Split ``f`` into (misses the divisor, crosses it once) by functional value."""
    functional.validate_on(f)
    comp: dict[Exponent, Fraction] = {}
    div: dict[Exponent, Fraction] = {}
    for e, c in f.terms.items():
        (comp if functional.degree(e) == 0 else div)[e] = c
    return (LaurentPoly(f.rank, comp, f.varnames),
            LaurentPoly(f.rank, div, f.varnames))


def derive_action(f: LaurentPoly, functional: DivisorFunctional, r: int) -> CharacterAction:
    """Deck character w with w.e = degree(e) (mod r) on the support of ``f``.

    When the support does not pin w down, the lexicographically smallest
    reduced solution is returned; any valid solution fixes the same monomials
    of the cover potential.
    """
    functional.validate_on(f)
    support = f.support()
    targets = [int(functional.degree(e)) for e in support]
    w = solve_character(support, targets, r)
    return CharacterAction(w, r)


# ---------------------------------------------------------------------------
# the cover pipeline
# ---------------------------------------------------------------------------

def cover_degree(r: int) -> int:
    """``r`` itself if it is at least 2, the least degree of a cyclic cover."""
    if r < 2:
        raise ValueError(f"cover degree must be at least 2, got {r}")
    return r


@record
class CoverSpec:
    """Input data for one cyclic cover step at the potential level."""

    potential: LaurentPoly
    functional: DivisorFunctional
    r: int
    descendant: DescendantConstant

    def __post_init__(self):
        cover_degree(self.r)
        if self.descendant.r != self.r:
            raise ValueError(
                f"descendant degree {self.descendant.r} does not match cover degree {self.r}")
        self.functional.validate_on(self.potential)


@record
class CoverResult:
    upstairs_potential: LaurentPoly  # on the base torus, deck-invariant
    action: CharacterAction
    quotient_potential: LaurentPoly  # in sublattice coordinates
    basis: Sublattice


def build_cover_potential(spec: CoverSpec, *,
                          basis: Sequence[Sequence[int]] | None = None,
                          quotient_varnames: Sequence[str] | None = None) -> CoverResult:
    """Run one cover step: split, raise the divisor part, derive the character,
    and rewrite on the invariant sublattice.

    ``basis`` optionally overrides the canonical Hermite basis with explicit
    columns spanning the same sublattice (handy for matching a published
    coordinate choice); the override is validated against the derived lattice.
    """
    comp, div = split_potential(spec.potential, spec.functional)
    upstairs = comp + div ** spec.r - spec.descendant.value
    action = derive_action(spec.potential, spec.functional, spec.r)
    bad = [e for e in upstairs.support() if not action.fixes(e)]
    if bad:
        raise InvarianceError(
            f"cover potential has non-invariant exponents {bad}; inputs are inconsistent")
    lattice = invariant_sublattice(action)
    if basis is not None:
        try:  # columns that do not span the derived lattice
            lattice = lattice.rebased(basis)
        except ValueError as exc:
            raise ValueError(f"cover spec: bad value for 'basis': {exc}") from None
    quotient = rewrite_in_sublattice(upstairs, lattice, varnames=quotient_varnames)
    return CoverResult(upstairs, action, quotient, lattice)


# ---------------------------------------------------------------------------
# tangency numbers
# ---------------------------------------------------------------------------

@record
class TangencyNumber:
    value: Fraction
    integral: bool  # a fractional count signals inconsistent inputs


def tangency_number(potential: LaurentPoly, r: int, boundary: Sequence[int], *,
                    multiplicities: Sequence[int] | None = None,
                    descendant: DescendantConstant | None = None,
                    smooth: bool = False) -> TangencyNumber:
    """Count of discs maximally tangent to the divisor, from r-th power coefficients.

    Simple-normal-crossings mode (default) takes the full potential W and the
    intersection multiplicities (r_1..r_N) of the class with the divisor
    components:

        tau = (r_1! ... r_N! / r!) * (W**r [boundary] - [boundary == 0] * descendant)

    Smooth mode takes the divisor part W^D instead, and no multiplicities, so it
    drops the multinomial factor.  The descendant only enters for spherical
    classes (boundary = 0).
    """
    boundary = tuple(int(x) for x in boundary)
    if descendant is not None and descendant.r != r:
        raise ValueError(f"descendant degree {descendant.r} does not match r={r}")
    if r < 0:  # ahead of the multiplicity checks, so a bad r stays a ValueError
        raise ValueError(f"exponent must be a nonnegative integer, got {r!r}")
    if smooth and multiplicities is not None:
        raise ValueError("smooth mode takes no multiplicities")
    factor = Fraction(1)
    if not smooth:
        if multiplicities is None:
            raise MultiplicityError("snc mode requires intersection multiplicities")
        mults = [int(m) for m in multiplicities]
        if any(m < 0 for m in mults):
            raise MultiplicityError("multiplicities must be nonnegative")
        if sum(mults) != r:
            raise MultiplicityError(
                f"multiplicities sum to {sum(mults)}, expected the cover degree {r}")
        for m in mults:
            factor *= factorial(m)
        factor /= factorial(r)
    coeff = power_coefficient(potential, r, boundary)
    if all(x == 0 for x in boundary) and descendant is not None:
        coeff -= descendant.value
    value = coeff * factor
    return TangencyNumber(value, value.denominator == 1)


# ---------------------------------------------------------------------------
# disc-class ledger
# ---------------------------------------------------------------------------

@record
class DiscClass:
    """Bookkeeping record for one disc class: half Maslov index, intersection
    numbers with the divisor components, boundary class, symplectic area."""

    half_maslov: int
    divisor_hits: tuple[int, ...]
    boundary: tuple[int, ...]
    area: Fraction

    def __post_init__(self):
        object.__setattr__(self, "divisor_hits", tuple(int(h) for h in self.divisor_hits))
        object.__setattr__(self, "boundary", tuple(int(b) for b in self.boundary))
        object.__setattr__(self, "area", Fraction(self.area))

    def hits(self, indices: Sequence[int] | None = None) -> int:
        if indices is None:
            return sum(self.divisor_hits)
        for i in indices:
            if not 0 <= i < len(self.divisor_hits):
                raise DiscLedgerError(
                    f"hits_index entry {i} is outside divisor_hits {list(self.divisor_hits)}")
        return sum(self.divisor_hits[i] for i in indices)


@record
class RHLift:
    """Half Maslov index upstairs; integral iff the class lifts."""

    value: Fraction
    liftable: bool


def riemann_hurwitz_lift(half_maslov_down: int, divisor_hits: int, r: int) -> RHLift:
    """Open Riemann-Hurwitz: mu_up/2 = mu_down/2 - (r-1)/r * hits."""
    value = Fraction(half_maslov_down) - Fraction(cover_degree(r) - 1, r) * divisor_hits
    return RHLift(value, value.denominator == 1)


@record
class MaslovRow:
    disc: DiscClass
    required: int  # max(selected hits, 1)
    ok: bool


@record
class MaslovReport:
    rows: tuple[MaslovRow, ...]
    passed: bool


def maslov_positive(classes: Sequence[DiscClass],
                    hits_index: Sequence[int] | None = None) -> MaslovReport:
    """Check mu/2 >= max(hits, 1) class by class (vacuously true when empty).

    ``hits_index`` selects which entries of ``divisor_hits`` make up the
    divisor under test; all of them by default.
    """
    rows = []
    for disc in classes:
        required = max(disc.hits(hits_index), 1)
        rows.append(MaslovRow(disc, required, disc.half_maslov >= required))
    return MaslovReport(tuple(rows), all(r.ok for r in rows))


def monotonicity_check(classes: Sequence[DiscClass]) -> Fraction | None:
    """The constant lambda with area = lambda * (mu/2) for every class, if any."""
    if not classes:
        return None
    for disc in classes:
        if disc.area <= 0:
            raise DiscLedgerError(f"disc class has non-positive area {disc.area}")
    first = classes[0]
    if first.half_maslov == 0:
        return None
    lam = first.area / first.half_maslov
    for disc in classes[1:]:
        if disc.area != lam * disc.half_maslov:
            return None
    return lam


def cover_connected(divisor_values: Sequence[int], r: int) -> bool:
    """Is the pre-image torus connected? True iff the linking values generate Z_r."""
    return gcd(cover_degree(r), *divisor_values) == 1


# ---------------------------------------------------------------------------
# JSON interchange for cover specs
# ---------------------------------------------------------------------------

def cover_spec_from_dict(data: dict) -> tuple[CoverSpec, list[list[int]] | None, list[str] | None]:
    """Build a CoverSpec (plus optional basis override and quotient variable
    names) from its JSON object form::

        {"potential": "...", "vars": [...],
         "functional": {"linear": [...], "constant": ...},
         "r": 2, "descendant": "0",
         "basis": [[...], ...],          # optional, columns
         "quotient_vars": [...]}         # optional

    A missing or malformed key raises ValueError naming it.
    """
    from .parsing import (parse_poly, spec_field, spec_fraction, spec_int, spec_list,
                          spec_names, spec_object, spec_str)

    where = "cover spec"
    varnames = spec_field(data, "vars", spec_names(), where)
    potential = parse_poly(spec_field(data, "potential", spec_str, where), varnames)
    fun = spec_field(data, "functional", spec_object, where)
    functional = DivisorFunctional(
        tuple(spec_field(fun, "linear", spec_list(spec_fraction, len(varnames)),
                         f"{where}: functional")),
        spec_field(fun, "constant", spec_fraction, f"{where}: functional"),
    )
    r = spec_field(data, "r", lambda value: cover_degree(spec_int(value)), where)
    descendant = DescendantConstant(r, spec_field(data, "descendant", spec_fraction, where))
    spec = CoverSpec(potential, functional, r, descendant)

    def basis_columns(value) -> list[list[int]]:
        n = len(varnames)
        columns = spec_list(spec_list(spec_int, n), n)(value)
        Sublattice.from_columns(columns)  # a dependent basis fails here, naming its key
        return columns

    basis = spec_field(data, "basis", basis_columns, where, None)
    qvars = spec_field(data, "quotient_vars", spec_names(len(varnames)), where, None)
    return spec, basis, qvars

