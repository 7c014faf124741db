"""Integer matrix normal forms and finite-index sublattices of Z^n.

Everything here is exact and runs on Python integers.  The row Hermite form
gives invariant sublattices, deck-character feasibility and basis equality;
sublattice coordinates come from the adjugate; the Smith form is a public
utility that no internal path uses.  The geometric purpose is rewriting
deck-invariant Laurent polynomials in a basis of the invariant sublattice of
a cyclic character action (the quotient-torus coordinate change).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Sequence

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


def det(a: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise RankMismatchError("determinant of a non-square matrix")
    if n == 0:
        return 1
    m = [list(map(int, r)) for r in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def adjugate(a: Sequence[Sequence[int]]) -> list[list[int]]:
    n = len(a)
    if n == 1:
        return [[1]]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[a[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            out[j][i] = (-1) ** (i + j) * det(minor)
    return out


def unimodular_inverse(a: Sequence[Sequence[int]]) -> list[list[int]]:
    d = det(a)
    if abs(d) != 1:
        raise ValueError("matrix is not unimodular")
    adj = adjugate(a)
    return [[x * d for x in row] for row in adj]  # d in {1,-1}


def _freeze(a: Sequence[Sequence[int]]) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in a)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SNFDecomposition:
    """A = U * D * V with U, V unimodular and D diagonal, d1 | d2 | ..."""

    U: Matrix
    D: Matrix
    V: Matrix


def smith_normal_form(a: Sequence[Sequence[int]]) -> SNFDecomposition:
    """Smith normal form A = U D V of any rectangular integer matrix.

    U and V are tracked through the elementary operations, so no matrix
    inversion is needed.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(map(int, row)) for row in a]
    u, v = identity(m), identity(n)

    def row_add(i, j, q):  # row_i += q * row_j
        d[i] = [x + q * y for x, y in zip(d[i], d[j])]
        for r in range(m):
            u[r][j] -= q * u[r][i]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        for r in range(m):
            u[r][i], u[r][j] = u[r][j], u[r][i]

    def row_neg(i):
        d[i] = [-x for x in d[i]]
        for r in range(m):
            u[r][i] = -u[r][i]

    def col_add(i, j, q):  # col_j += q * col_i
        for r in range(m):
            d[r][j] += q * d[r][i]
        v[i] = [x - q * y for x, y in zip(v[i], v[j])]

    def col_swap(i, j):
        for r in range(m):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        v[i], v[j] = v[j], v[i]

    t = 0
    while t < min(m, n):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (pivot is None or abs(d[i][j]) < abs(d[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            row_swap(t, pivot[0])
        if pivot[1] != t:
            col_swap(t, pivot[1])
        while True:
            dirty = False
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    row_add(i, t, -q)
                    if d[i][t] != 0:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    col_add(t, j, -q)
                    if d[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
            if not dirty and all(d[i][t] == 0 for i in range(t + 1, m)) \
                    and all(d[t][j] == 0 for j in range(t + 1, n)):
                break
        # pivot must divide everything that remains, or the chain breaks later
        stained = False
        for i in range(t + 1, m):
            if any(d[i][j] % d[t][t] != 0 for j in range(t + 1, n)):
                row_add(t, i, 1)
                stained = True
                break
        if stained:
            continue
        if d[t][t] < 0:
            row_neg(t)
        t += 1
    return SNFDecomposition(_freeze(u), _freeze(d), _freeze(v))


# ---------------------------------------------------------------------------
# Hermite normal form (canonical bases, kernels, membership, equality)
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


def hermite_column_basis(columns: Sequence[Sequence[int]]) -> Matrix:
    """Canonical basis (as matrix columns) of the lattice spanned by ``columns``."""
    reduced = _hnf_rows([list(c) for c in columns])
    return _freeze(transpose(reduced))


# ---------------------------------------------------------------------------
# character actions and invariant sublattices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
        matrix = _freeze(transpose(cols))
        d = det(matrix)
        if d == 0:
            raise ValueError("basis columns are linearly dependent")
        return cls(n, matrix, abs(d))

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
        d, adj = _solve_data(self.basis)
        coords = []
        for row in adj:
            num = sum(a * x for a, x in zip(row, e))
            if num % d != 0:
                return None
            coords.append(num // d)
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
def _solve_data(basis: Matrix) -> tuple[int, list[list[int]]]:
    return det(basis), adjugate(basis)


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
