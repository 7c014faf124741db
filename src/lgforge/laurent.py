"""Exact sparse Laurent polynomials on an integer exponent lattice.

A polynomial is a finite map from integer exponent vectors (tuples of length
``rank``) to arbitrary-precision rationals.  Values are immutable and kept in
canonical form: zero coefficients are never stored, so equality and hashing
are structural.  Floating point enters only through :meth:`LaurentPoly.evaluate`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from ._record import record
from .errors import (
    FloatRangeError,
    NotLaurentError,
    RankMismatchError,
    ZeroCoordinateError,
    ZeroDenominatorError,
)

Exponent = tuple[int, ...]


def _coerce_coeff(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"coefficient must be an int or Fraction, got {type(value).__name__}")


def _default_names(rank: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, rank + 1))


def _grlex_key(e: Exponent) -> tuple:
    # graded-lexicographic: total degree first, then lexicographic on entries
    return (sum(e), e)


class LaurentPoly:
    """A Laurent polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples of length ``rank`` to nonzero Fractions.
    The constructor sums equal keys and drops zero sums; it is the only code
    that does, so the arithmetic below just accumulates into a plain dict.
    ``varnames`` are display names only; they never affect equality.
    """

    __slots__ = ("rank", "varnames", "_terms")

    def __init__(self, rank: int, terms: Mapping[Exponent, Fraction | int] | None = None,
                 varnames: Sequence[str] | None = None):
        if not isinstance(rank, int) or rank < 1:
            raise ValueError(f"rank must be a positive integer, got {rank!r}")
        names = _default_names(rank) if varnames is None else tuple(varnames)
        if len(names) != rank:
            raise RankMismatchError(f"{len(names)} variable names for rank {rank}")
        clean: dict[Exponent, Fraction] = {}
        for e, c in (terms or {}).items():
            key = tuple(e)
            if len(key) != rank or not all(isinstance(x, int) for x in key):
                raise RankMismatchError(f"exponent {key} does not fit rank {rank}")
            c = _coerce_coeff(c)
            if c != 0:
                acc = clean.get(key)
                clean[key] = c if acc is None else acc + c
                if clean[key] == 0:
                    del clean[key]
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "varnames", names)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # ------------------------------------------------------------------ basics

    @classmethod
    def zero(cls, rank: int, varnames: Sequence[str] | None = None) -> "LaurentPoly":
        return cls(rank, {}, varnames)

    @classmethod
    def constant(cls, rank: int, c, varnames: Sequence[str] | None = None) -> "LaurentPoly":
        return cls(rank, {(0,) * rank: c}, varnames)

    @classmethod
    def variable(cls, rank: int, index: int, varnames: Sequence[str] | None = None) -> "LaurentPoly":
        e = [0] * rank
        e[index] = 1
        return cls(rank, {tuple(e): 1}, varnames)

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        return dict(self._terms)

    def support(self) -> list[Exponent]:
        return sorted(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.rank == other.rank and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.rank, frozenset(self._terms.items())))

    def _check_rank(self, other: "LaurentPoly") -> None:
        if self.rank != other.rank:
            raise RankMismatchError(f"rank {self.rank} vs rank {other.rank}")

    def _lift(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return other
        return LaurentPoly.constant(self.rank, other, self.varnames)

    # -------------------------------------------------------------- arithmetic

    def __add__(self, other) -> "LaurentPoly":
        other = self._lift(other)
        self._check_rank(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            acc = out.get(e)
            out[e] = c if acc is None else acc + c
        return LaurentPoly(self.rank, out, self.varnames)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.rank, {e: -c for e, c in self._terms.items()}, self.varnames)

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return self._lift(other) - self

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return self.scale(other)
        self._check_rank(other)
        out: dict[Exponent, Fraction] = {}
        small, big = (self._terms, other._terms)
        if len(small) > len(big):
            small, big = big, small
        for e1, c1 in small.items():
            for e2, c2 in big.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(e)
                out[e] = c1 * c2 if acc is None else acc + c1 * c2
        return LaurentPoly(self.rank, out, self.varnames)

    __rmul__ = __mul__

    def scale(self, c) -> "LaurentPoly":
        c = _coerce_coeff(c)
        return LaurentPoly(self.rank, {e: c * v for e, v in self._terms.items()}, self.varnames)

    def __pow__(self, k: int) -> "LaurentPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {k!r}")
        if k and len(self._terms) <= 1:  # (c x^e)^k = c^k x^(k e), in time free of k
            return LaurentPoly(self.rank, {tuple(k * x for x in e): c ** k
                                           for e, c in self._terms.items()}, self.varnames)
        # Iterated multiplication, not binary powering: for sparse operands,
        # multiplying by the short factor ``self`` is usually cheaper than
        # squaring a long intermediate.  Period sequences and tangency
        # coefficients do not come through here; ``periods`` has its own kernel.
        acc = LaurentPoly.constant(self.rank, 1, self.varnames)
        for _ in range(k):
            acc = acc * self
        return acc

    # ------------------------------------------------------------- evaluation

    def evaluate(self, point: Sequence[complex]) -> complex:
        pt = [complex(z) for z in point]
        if len(pt) != self.rank:
            raise RankMismatchError(f"point of length {len(pt)} for rank {self.rank}")
        if any(z == 0 for z in pt):
            raise ZeroCoordinateError("evaluation point must avoid the coordinate axes")
        total = 0j
        try:
            for e, c in self._terms.items():
                mono = 1 + 0j
                for z, k in zip(pt, e):
                    if k:
                        mono *= z ** k
                total += complex(c) * mono
            finite = math.isfinite(total.real) and math.isfinite(total.imag)
        except (OverflowError, ZeroDivisionError):  # z ** k or complex(c) out of range
            finite = False
        if not finite:
            raise FloatRangeError(f"the value at {pt} is outside the float range")
        return total

    # ---------------------------------------------------------------- display

    def render(self) -> str:
        """Serialise to the expression grammar (round-trips through ``parse``)."""
        if not self._terms:
            return "0"
        pieces = []
        for e in sorted(self._terms, key=_grlex_key, reverse=True):
            c = self._terms[e]
            mono = "*".join(
                name if k == 1 else f"{name}^{k}"
                for name, k in zip(self.varnames, e)
                if k != 0
            )
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" + body) if sign == "-" else body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()!r}, vars={list(self.varnames)})"


# ---------------------------------------------------------------------------
# Exact division in the Laurent ring.
# ---------------------------------------------------------------------------

def _min_exponents(f: LaurentPoly) -> Exponent:
    support = f.support()
    return tuple(min(e[i] for e in support) for i in range(f.rank))


def divide_exact(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Exact quotient f/g in the Laurent ring; raises NotLaurentError otherwise.

    Both operands are shifted by monomials until they are ordinary polynomials
    (each variable attains exponent 0 somewhere), then single-divisor division
    with remainder runs under the graded-lexicographic order.  For a single
    divisor, a zero remainder is equivalent to divisibility, and divisibility
    of the shifted polynomials is equivalent to divisibility in the Laurent
    ring.
    """
    if g.is_zero():
        raise ZeroDenominatorError("division by the zero polynomial")
    if f.rank != g.rank:
        raise RankMismatchError(f"rank {f.rank} vs rank {g.rank}")
    if f.is_zero():
        return LaurentPoly.zero(f.rank, f.varnames)
    if g.is_monomial():
        (e0, c0), = g._terms.items()
        return LaurentPoly(
            f.rank,
            {tuple(a - b for a, b in zip(e, e0)): c / c0 for e, c in f._terms.items()},
            f.varnames,
        )
    mf = _min_exponents(f)
    mg = _min_exponents(g)
    num = {tuple(a - b for a, b in zip(e, mf)): c for e, c in f._terms.items()}
    den = {tuple(a - b for a, b in zip(e, mg)): c for e, c in g._terms.items()}
    lt_den = max(den, key=_grlex_key)
    lc_den = den[lt_den]
    quot: dict[Exponent, Fraction] = {}
    while num:
        lt = max(num, key=_grlex_key)
        diff = tuple(a - b for a, b in zip(lt, lt_den))
        if any(d < 0 for d in diff):
            raise NotLaurentError("denominator does not divide the numerator")
        q = num[lt] / lc_den
        quot[diff] = q
        for e, c in den.items():
            key = tuple(a + b for a, b in zip(diff, e))
            s = num.get(key, Fraction(0)) - q * c
            if s == 0:
                num.pop(key, None)
            else:
                num[key] = s
    offset = tuple(a - b for a, b in zip(mf, mg))
    return LaurentPoly(
        f.rank,
        {tuple(a + b for a, b in zip(e, offset)): c for e, c in quot.items()},
        f.varnames,
    )


# ---------------------------------------------------------------------------
# Rational expressions (num/den pairs on the torus).
# ---------------------------------------------------------------------------

@record
class RationalExpr:
    """A quotient of Laurent polynomials, as produced by the parser.

    No canonical form is imposed; ``laurent_normalize`` turns an expression
    back into a Laurent polynomial when the denominator divides exactly.
    """

    num: LaurentPoly
    den: LaurentPoly

    def __post_init__(self):
        if self.num.rank != self.den.rank:
            raise RankMismatchError("numerator and denominator rank differ")
        if self.den.is_zero():
            raise ZeroDenominatorError("denominator is the zero polynomial")

    @classmethod
    def from_poly(cls, f: LaurentPoly) -> "RationalExpr":
        return cls(f, LaurentPoly.constant(f.rank, 1, f.varnames))

    @property
    def rank(self) -> int:
        return self.num.rank

    def __add__(self, other: "RationalExpr") -> "RationalExpr":
        return _tidy(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RationalExpr") -> "RationalExpr":
        return _tidy(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RationalExpr":
        return RationalExpr(-self.num, self.den)

    def __mul__(self, other: "RationalExpr") -> "RationalExpr":
        return _tidy(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalExpr") -> "RationalExpr":
        if other.num.is_zero():
            raise ZeroDenominatorError("division by an expression that is identically zero")
        return _tidy(self.num * other.den, self.den * other.num)

    def __pow__(self, k: int) -> "RationalExpr":
        if not isinstance(k, int):
            raise ValueError("exponent must be an integer")
        if k >= 0:
            return _tidy(self.num ** k, self.den ** k)
        if self.num.is_zero():
            raise ZeroDenominatorError("negative power of the zero expression")
        return _tidy(self.den ** (-k), self.num ** (-k))


def _tidy(num: LaurentPoly, den: LaurentPoly) -> RationalExpr:
    # Fold monomial denominators into the numerator; keeps parser output small
    # and makes laurent_normalize trivial for the common case.  A zero ``den``
    # is no monomial, and RationalExpr rejects it.
    if den.is_monomial():
        return RationalExpr(divide_exact(num, den),
                            LaurentPoly.constant(num.rank, 1, num.varnames))
    return RationalExpr(num, den)


def laurent_normalize(expr: RationalExpr) -> LaurentPoly:
    """Collapse a rational expression to a Laurent polynomial, exactly."""
    return divide_exact(expr.num, expr.den)
