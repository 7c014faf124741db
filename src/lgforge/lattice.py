"""Integer matrix normal forms and finite-index sublattices of Z^n.

Everything here is exact and runs on Python integers, and one elimination,
the row Hermite form, serves every routine: invariant sublattices,
deck-character feasibility, basis equality and sublattice indices read it
directly; sublattice coordinates and unimodular inverses come from the
Hermite form of [A | I], which carries the transform; the Smith form
alternates it on rows and columns.  The geometric purpose is rewriting
deck-invariant Laurent polynomials in a basis of the invariant sublattice of
a cyclic character action (the quotient-torus coordinate change).
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


def _mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


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


def _hnf_transform(a: Sequence[Sequence[int]], n: int) -> tuple[list[list[int]], list[list[int]]]:
    """(H, T) for an m x n matrix ``a``: T is unimodular and T a = H, the row
    Hermite form of ``a`` padded with zero rows to m rows.

    [a | I] has full row rank, so its Hermite form keeps all m rows, and it
    is [H | T].
    """
    rows = _hnf_rows([list(row) + unit for row, unit in zip(a, identity(len(a)))])
    return [row[:n] for row in rows], [row[n:] for row in rows]


def hermite_column_basis(columns: Sequence[Sequence[int]]) -> Matrix:
    """Canonical basis (as matrix columns) of the lattice spanned by ``columns``."""
    reduced = _hnf_rows([list(c) for c in columns])
    return _freeze(transpose(reduced))


def unimodular_inverse(a: Sequence[Sequence[int]]) -> list[list[int]]:
    """The integer inverse of a square matrix; a ValueError unless |det a| = 1."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise RankMismatchError("inverse of a non-square matrix")
    h, t = _hnf_transform(a, n)
    if h != identity(n):
        raise ValueError("matrix is not unimodular")
    return t


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

@record
class SNFDecomposition:
    """A = U * D * V with U, V unimodular and D diagonal, d1 | d2 | ..."""

    U: Matrix
    D: Matrix
    V: Matrix


def smith_normal_form(a: Sequence[Sequence[int]]) -> SNFDecomposition:
    """Smith normal form A = U D V of any rectangular integer matrix.

    Row Hermite forms alternate with Hermite forms of the transpose until D
    is diagonal (Kannan-Bachem).  Where d_i does not divide a later d_j,
    column j is added to column i, and the next row pass puts gcd(d_i, d_j)
    in its place.  The transforms accumulate into unimodular L and R with
    L A R = D, so U and V are their inverses.  D is unique; U and V are one
    valid choice.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise RankMismatchError("Smith form of a matrix with rows of unequal length")
    d = [list(map(int, row)) for row in a]
    left, right = identity(m), identity(n)
    while m and n:
        d, t = _hnf_transform(d, n)
        left = _mul(t, left)
        d_t, t = _hnf_transform(transpose(d), m)
        d, right = transpose(d_t), _mul(right, transpose(t))
        if any(d[i][j] for i in range(m) for j in range(n) if i != j):
            continue
        k = min(m, n)
        stain = next(((i, j) for i in range(k) for j in range(i + 1, k)
                      if gcd(d[i][i], d[j][j]) != d[i][i]), None)
        if stain is None:
            break
        i, j = stain
        for row in d + right:
            row[i] += row[j]
    return SNFDecomposition(_freeze(unimodular_inverse(left)), _freeze(d),
                            _freeze(unimodular_inverse(right)))


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

    def pairing(self, e: Sequence[int]) -> int:
        if len(e) != self.rank:
            raise RankMismatchError(f"vector of length {len(e)} for rank {self.rank}")
        return sum(w * x for w, x in zip(self.weights, e)) % self.modulus

    def fixes(self, e: Sequence[int]) -> bool:
        return self.pairing(e) == 0


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

    @classmethod
    def full(cls, n: int) -> "Sublattice":
        return cls(n, _freeze(identity(n)), 1)

    @property
    def columns(self) -> Matrix:
        return _freeze(transpose(self.basis))

    def membership(self, e: Sequence[int]) -> tuple[int, ...] | None:
        """Integer coordinates c with basis @ c == e, or None."""
        if len(e) != self.ambient_rank:
            raise RankMismatchError(
                f"vector of length {len(e)} in ambient rank {self.ambient_rank}")
        h, t = _solve_data(self.basis)
        coords = [0] * self.ambient_rank
        for i in reversed(range(self.ambient_rank)):  # back-substitute H c = T e
            num = sum(a * x for a, x in zip(t[i], e)) - sum(
                a * c for a, c in zip(h[i], coords))  # coords[:i + 1] are still 0
            if num % h[i][i] != 0:
                return None
            coords[i] = num // h[i][i]
        return tuple(coords)

    def same_lattice(self, other: "Sublattice") -> bool:
        return hermite_column_basis(self.columns) == hermite_column_basis(other.columns)

    def rebased(self, columns: Sequence[Sequence[int]]) -> "Sublattice":
        """This lattice with ``columns`` as its basis; a ValueError unless they span it."""
        other = Sublattice.from_columns(columns)
        if not self.same_lattice(other):
            raise ValueError("basis columns do not span the sublattice")
        return other


@lru_cache(maxsize=256)
def _solve_data(basis: Matrix) -> tuple[list[list[int]], list[list[int]]]:
    """(H, T) with T basis = H upper triangular, for solving basis @ c = e."""
    return _hnf_transform(basis, len(basis))


def invariant_sublattice(action: CharacterAction) -> Sublattice:
    """The kernel lattice {e : w.e = 0 mod r}, with a canonical Hermite basis.

    The index is r / gcd(r, gcd(weights)); the degenerate action (w = 0)
    yields the full lattice.
    """
    n = action.rank
    r = action.modulus
    if n == 0:
        raise ValueError("character action needs at least one weight")
    # The rows (w_i, unit_i) and (r, 0, ..., 0) span {(w.e + rk, e)}.  Below
    # its first row, the Hermite form of that lattice is the kernel, already
    # in canonical form.
    rows = [[w] + unit for w, unit in zip(action.weights, identity(n))] + [[r] + [0] * n]
    kernel = [row[1:] for row in _hnf_rows(rows)[1:]]
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

    Coordinates are fixed greedily.  E w = t (mod r) is solvable iff t lies in
    the lattice spanned by the columns of E and r Z^m, which holds iff adding
    t leaves that lattice's Hermite form unchanged; so no enumeration of the
    full solution space happens.
    """
    rows = [list(map(int, e)) for e in exponents]
    t = [int(x) % r for x in targets]
    if len(rows) != len(t):
        raise RankMismatchError("one target per exponent is required")
    n = len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise RankMismatchError("exponents of unequal length")
    moduli = [[r * x for x in unit] for unit in identity(len(t))]

    def span(k: int) -> list[list[int]]:  # columns k, k+1, ... of E, and r Z^m
        return _hnf_rows(transpose([row[k:] for row in rows]) + moduli)

    lattice = span(0)
    if _hnf_rows(lattice + [t]) != lattice:
        raise CharacterSolveError(
            "no character reproduces the divisor degrees modulo the cover degree")
    w: list[int] = []
    for k in range(n):
        lattice = span(k + 1)
        for v in range(r):
            t_next = [(ti - v * row[k]) % r for ti, row in zip(t, rows)]
            if _hnf_rows(lattice + [t_next]) == lattice:
                w.append(v)
                t = t_next
                break
        else:  # pragma: no cover - guarded by the up-front consistency check
            raise CharacterSolveError("internal inconsistency while fixing coordinates")
    return tuple(w)
