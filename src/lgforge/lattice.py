"""Hermite forms and finite-index sublattices of Z^n.

Everything here is exact and runs on Python integers, and one elimination,
the row Hermite form, serves every routine.  Sublattice indices read it
directly; the other questions read the form of a graph lattice
{(A w + r z, w)}: invariant sublattices are its kernel rows, and deck
characters and sublattice coordinates come from reducing a vector against it
(a basis override is checked by those coordinates).  The geometric purpose
is rewriting deck-invariant Laurent polynomials in a basis of the invariant
sublattice of a cyclic character action (the quotient-torus coordinate
change).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, prod
from typing import Sequence

from ._record import record
from .errors import CharacterSolveError, NotInSublatticeError, RankMismatchError
from .laurent import Exponent, LaurentPoly

Matrix = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# small exact matrix helpers
# ---------------------------------------------------------------------------

def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a: Sequence[Sequence[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*a)] if a else []


def _freeze(a: Sequence[Sequence[int]]) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in a)


# ---------------------------------------------------------------------------
# Hermite normal form: the one elimination every routine here is built on
# ---------------------------------------------------------------------------

def _hnf_rows(mat: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row-style Hermite form: upper-trapezoidal, positive pivots, entries
    above each pivot reduced into [0, pivot). Zero rows are dropped."""
    rows = [list(map(int, r)) for r in mat]
    if not rows:
        return []
    n = len(rows[0])
    r = 0
    for col in range(n):
        # gcd-collapse all entries in this column at or below row r
        while True:
            live = [i for i in range(r, len(rows)) if rows[i][col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(rows[i][col]))
            i0 = live[0]
            for i in live[1:]:
                q = rows[i][col] // rows[i0][col]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[i0])]
        live = [i for i in range(r, len(rows)) if rows[i][col] != 0]
        if not live:
            continue
        i0 = live[0]
        rows[r], rows[i0] = rows[i0], rows[r]
        if rows[r][col] < 0:
            rows[r] = [-x for x in rows[r]]
        piv = rows[r][col]
        for i in range(r):
            q = rows[i][col] // piv
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return [row for row in rows[:r]]


@lru_cache(maxsize=256)
def _graph_form(a: Matrix, r: int) -> Matrix:
    """Hermite rows of the graph lattice {(a @ w + r z, w)}, a m x n, z in Z^m
    (no z when r = 0).  When a @ Z^n + r Z^m has rank m, the first m rows
    pivot on the diagonal; the rest are the kernel {(0, w) : a @ w = 0 mod r}."""
    m, n = len(a), len(a[0]) if a else 0
    gens = [[row[j] for row in a] + unit for j, unit in enumerate(identity(n))]
    if r:
        gens += [[r * x for x in unit] + [0] * n for unit in identity(m)]
    return _freeze(_hnf_rows(gens))


def _preimage(form: Matrix, t: Sequence[int], n: int) -> list[int] | None:
    """Some w in Z^n with (t, w) in the graph lattice of ``form``, or None:
    reducing (t, 0) by the first len(t) rows leaves (0, -w) or a remainder."""
    v = list(t) + [0] * n
    for i, row in enumerate(form[:len(t)]):
        q, rem = divmod(v[i], row[i])
        if rem:
            return None
        v = [x - q * y for x, y in zip(v, row)]
    return [-x for x in v[len(t):]]


# ---------------------------------------------------------------------------
# character actions and invariant sublattices
# ---------------------------------------------------------------------------

@record
class CharacterAction:
    """Cyclic group action on torus monomials: zeta . x^e = zeta^(w.e) x^e.

    ``weights`` are stored reduced modulo ``modulus``.
    """

    weights: tuple[int, ...]
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be at least 1")
        object.__setattr__(self, "weights", tuple(w % self.modulus for w in self.weights))

    @property
    def rank(self) -> int:
        return len(self.weights)


@record
class Sublattice:
    """Finite-index sublattice of Z^n; the columns of ``basis`` generate it."""

    ambient_rank: int
    basis: Matrix
    index: int

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]]) -> "Sublattice":
        cols = [list(c) for c in columns]
        n = len(cols[0]) if cols else 0
        if len(cols) != n or any(len(c) != n for c in cols):
            raise ValueError("a sublattice basis needs n independent columns in Z^n")
        reduced = _hnf_rows(cols)
        if len(reduced) < n:
            raise ValueError("basis columns are linearly dependent")
        return cls(n, _freeze(transpose(cols)), prod(row[i] for i, row in enumerate(reduced)))

    @property
    def columns(self) -> Matrix:
        return _freeze(transpose(self.basis))

    def membership(self, e: Sequence[int]) -> tuple[int, ...] | None:
        """Integer coordinates c with basis @ c == e, or None."""
        if len(e) != self.ambient_rank:
            raise RankMismatchError(
                f"vector of length {len(e)} in ambient rank {self.ambient_rank}")
        coords = _preimage(_graph_form(self.basis, 0), e, self.ambient_rank)
        return None if coords is None else tuple(coords)

    def rebased(self, columns: Sequence[Sequence[int]]) -> "Sublattice":
        """This lattice with ``columns`` as its basis; a ValueError unless they span it.

        Full-rank lattices of equal index, one inside the other, are equal.
        """
        other = Sublattice.from_columns(columns)
        if (other.ambient_rank != self.ambient_rank or other.index != self.index
                or any(self.membership(c) is None for c in other.columns)):
            raise ValueError("basis columns do not span the sublattice")
        return other


def invariant_sublattice(action: CharacterAction) -> Sublattice:
    """The kernel lattice {e : w.e = 0 mod r}, with a canonical Hermite basis.

    The index is r / gcd(r, gcd(weights)); the degenerate action (w = 0)
    yields the full lattice.
    """
    n = action.rank
    r = action.modulus
    if n == 0:
        raise ValueError("character action needs at least one weight")
    # Below its first row, the form of {(w.e + rk, e)} is the kernel, already
    # in canonical form.
    kernel = [row[1:] for row in _graph_form((action.weights,), r)[1:]]
    return Sublattice(n, _freeze(transpose(kernel)), r // gcd(r, *action.weights))


def rewrite_in_sublattice(f: LaurentPoly, s: Sublattice,
                          varnames: Sequence[str] | None = None) -> LaurentPoly:
    """Re-express ``f`` in sublattice coordinates; coefficients are untouched.

    Every exponent of ``f`` must lie in ``s``; the offending monomial is named
    otherwise.
    """
    if f.rank != s.ambient_rank:
        raise RankMismatchError(f"polynomial rank {f.rank} vs ambient rank {s.ambient_rank}")
    out: dict[Exponent, Fraction] = {}
    for e, c in f.terms.items():
        coords = s.membership(e)
        if coords is None:
            raise NotInSublatticeError(e)
        out[coords] = c
    return LaurentPoly(f.rank, out, varnames if varnames is not None else f.varnames)


# ---------------------------------------------------------------------------
# linear congruences (deck-character solving)
# ---------------------------------------------------------------------------

def solve_character(exponents: Sequence[Sequence[int]], targets: Sequence[int], r: int) -> tuple[int, ...]:
    """Lexicographically smallest w in [0, r)^n with w.e = t_e (mod r) for all e.

    Reducing (t, 0) by the Hermite form of the graph lattice {(E w + r z, w)}
    gives one solution or shows there is none.  Every solution differs from
    it by a kernel vector, and reducing it by the kernel rows, one coordinate
    at a time, makes each coordinate the least residue modulo its pivot, a
    divisor of r: the least choice given the coordinates before it.
    """
    rows = _freeze(exponents)
    t = [int(x) % r for x in targets]
    if len(rows) != len(t):
        raise RankMismatchError("one target per exponent is required")
    n = len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise RankMismatchError("exponents of unequal length")
    form = _graph_form(rows, r)
    w = _preimage(form, t, n)
    if w is None:
        raise CharacterSolveError(
            "no character reproduces the divisor degrees modulo the cover degree")
    m = len(t)
    for j, row in enumerate(form[m:]):
        q = w[j] // row[m + j]
        w = [x - q * y for x, y in zip(w, row[m:])]
    return tuple(w)
