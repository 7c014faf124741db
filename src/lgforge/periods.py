"""Regularized quantum-period sequences from constant terms of powers.

The k-th coefficient attached to a Laurent potential f is the constant term
of f**k.  Sequences are exact rational lists; reference data can be ingested
from CSV or JSON files that carry coefficients as decimal strings.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import reduce
from math import comb, factorial, lcm, perm, prod
from operator import mul, or_
from pathlib import Path
from typing import Callable, Literal, Sequence

from ._record import record
from .errors import RankMismatchError, ReferenceFormatError, SequenceRangeError
from .laurent import LaurentPoly
from .parsing import spec_field, spec_int, spec_str


@record
class PeriodSequence:
    """Coefficients c_0..c_K of a regularized quantum period (c_0 = 1)."""

    name: str
    coeffs: tuple[Fraction, ...]
    source: Literal["computed", "ingested"]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a period sequence stores at least c_0")
        if self.coeffs[0] != 1:
            raise ValueError(f"c_0 must be 1, got {self.coeffs[0]}")
        object.__setattr__(self, "coeffs", tuple(  # a Fraction is kept, not copied
            c if type(c) is Fraction else Fraction(c) for c in self.coeffs))

    @property
    def max_power(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        if not 0 <= k <= self.max_power:
            raise SequenceRangeError(f"k={k} outside stored range 0..{self.max_power}")
        return self.coeffs[k]


def _integral(f: LaurentPoly) -> tuple[dict[tuple[int, ...], int], int]:
    """``(g, D)`` with g = D*f integral, as an exponent -> int dict; D is the lcm of
    f's denominators."""
    terms = f.terms
    denom = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (denom // c.denominator) for e, c in terms.items()}, denom


def _packing(bounds: Sequence[int]) -> Callable[[Sequence[int]], int]:
    """The map e -> sum(e_i * R_i) with R_0 = 1 and R_(i+1) = R_i * (2*bounds_i + 1).

    It is linear and injective on the box |e_i| <= bounds_i, so sums,
    negations and differences of exponents in that box become sums,
    negations and differences of int keys.
    """
    radices = []
    radix = 1
    for bound in bounds:
        radices.append(radix)
        radix *= 2 * bound + 1

    def pack(e: Sequence[int]) -> int:
        return sum(map(mul, e, radices))

    return pack


def _powers(g: dict[tuple[int, ...], int], h: int, pack: Callable[[Sequence[int]], int]
            ) -> list[dict[int, int]]:
    """Powers g**0..g**h of an integral g != 0, on the keys ``pack`` gives.

    Each g**j is g**(j-1) shifted by g's first term, into which the other
    terms of g are added, so a power costs (|g| - 1) * |g**(j-1)| dict
    updates.  ``pack`` must be injective on a box that holds g**h's support.
    """
    (k0, c0), *rest = [(pack(e), c) for e, c in g.items()]
    powers = [{0: 1}]
    for _ in range(h):
        prev = powers[-1]
        out = {kp + k0: cp * c0 for kp, cp in prev.items()}
        get = out.get
        for kg, cg in rest:
            for kp, cp in prev.items():
                k = kp + kg
                out[k] = get(k, 0) + cp * cg
        if 0 in out.values():
            out = {k: c for k, c in out.items() if c}
        powers.append(out)
    return powers


def _half_powers(g: dict[tuple[int, ...], int], h: int, pad: Sequence[int]
                 ) -> tuple[list[dict[int, int]], Callable[[Sequence[int]], int]]:
    """The kernel's powers g**0..g**h of an integral g != 0, on packed exponent keys.

    Returns ``(_powers(g, h, pack), pack)`` for the ``_packing`` with
    bounds B_i = h * max|e_i| over the support of g, plus |pad_i|.  That box
    holds every exponent a of g**0..g**h, and pad - a too, so callers pair
    g**j with g**(k-j) at pad.  Callers read the constant term of g**k for
    k <= h straight off ``powers[k]``; h = ceil(K/2) is the cheapest split for
    c_0..c_K, because building g**(h+1) would cost |g| * |g**h| updates, more
    than the |g**(K-h)| pairing lookups it saves.
    """
    pack = _packing([h * max(abs(e[i]) for e in g) + abs(extra) for i, extra in enumerate(pad)])
    return _powers(g, h, pack), pack


def _pair(hi: dict[int, int], lo: dict[int, int], target: int) -> int:
    """sum over keys a of hi[a] * lo[target - a], iterating over the smaller dict."""
    small, big = (lo, hi) if len(lo) <= len(hi) else (hi, lo)
    get = big.get
    return sum(c * get(target - a, 0) for a, c in small.items())


def _simplex_solve(exps: list[tuple[int, ...]], r: int, t: Sequence[int]
                   ) -> list[Fraction] | Literal[False] | None:
    """The a with sum(a_i) = r and sum(a_i * e_i) = t over the support e_1..e_T.

    When no e_i is an affine combination of the others (the support spans a
    simplex, so T <= n + 1), the vectors (1, e_i) are independent and a is
    unique if it exists: returns it, or False when the system has no
    solution.  Returns None for an affinely dependent support (at once when
    T > n + 1); its caller runs the ``_half_powers`` kernel instead.
    Gauss-Jordan elimination in integers; only the last division makes Fractions.
    """
    if len(exps) > len(t) + 1:
        return None
    rows = [[1] * len(exps) + [r]] + [[e[i] for e in exps] + [x] for i, x in enumerate(t)]
    for col in range(len(exps)):
        pick = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        if pick is None:
            return None
        rows[col], rows[pick] = rows[pick], rows[col]
        pivot = rows[col]
        p = pivot[col]
        for i, row in enumerate(rows):
            q = row[col]
            if q and i != col:
                rows[i] = [p * x - q * y for x, y in zip(row, pivot)]
    if any(row[-1] for row in rows[len(exps):]):
        return False
    return [Fraction(row[-1], row[i]) for i, row in enumerate(rows[:len(exps)])]


def _fold(a: list[int], b: list[int]) -> list[int]:
    """c_k(A + B) = sum_j C(k, j) * c_j(A) * c_(k-j)(B) when A and B share no
    variable, from a[j] = c_j(A) and b[j] = c_j(B); only nonzero entries are visited."""
    size = len(a)
    out = [0] * size
    nonzero = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in nonzero:
                k = i + j
                if k >= size:
                    break
                out[k] += comb(k, j) * x * y
    return out


def _blocks(g: dict[tuple[int, ...], int], rank: int) -> list[dict[tuple[int, ...], int]]:
    """g's terms in groups that share no variable; the constant term is a group
    of its own.  Each variable's terms form a mask (one byte per term), and
    overlapping masks are merged, so each merged mask is one group."""
    parts: list[int] = []
    for column in zip(*g):
        mask = int.from_bytes(bytes(map(bool, column)), "big")
        if mask:
            joined = [p for p in parts if p & mask]
            parts = [p for p in parts if not p & mask] + [reduce(or_, joined, mask)]
    origin = (0,) * rank
    if len(parts) + (origin in g) < 2:
        return [g]
    items = list(g.items())
    blocks = [{e: c for (e, c), used in zip(items, p.to_bytes(len(items), "big")) if used}
              for p in parts]
    return blocks + [{origin: g[origin]}] if origin in g else blocks


def _product_split(g: dict[tuple[int, ...], int], rank: int
                   ) -> tuple[int, int, dict[tuple[int, ...], int], dict[tuple[int, ...], int]] | None:
    """``(q, c, A, B)`` with q*g = c + A*B, A in one variable x_i and B free of
    it, or None.

    Seen as a matrix M[a][b], a the x_i-exponent and b the other exponents,
    g must fill the grid of its a's times its b's, all but the origin cell, and
    M off the origin must have rank one.  With a pivot q = M[a0][b0], a0 != 0
    and b0 != 0, A = sum_a M[a][b0] x_i**a and B = sum_b M[a0][b] x**b use no
    origin cell, and A*B = q*g + A_0*B_0 because g has no constant term (the
    sum rule took it), so c = -A_0*B_0.
    """
    zero = (0,) * rank
    for i, column in enumerate(zip(*g)):
        xs = set(column)
        # On a grid every nonzero a occurs equally often: a cheap first test.
        if len({column.count(a) for a in xs if a}) != 1:
            continue
        cells = {(e[i], e[:i] + (0,) + e[i + 1:]): c for e, c in g.items()}
        rest = {b for _, b in cells}
        b0 = next((b for b in rest if b != zero), None)
        if b0 is None or len(xs) * len(rest) != len(g) + (0 in xs and zero in rest):
            continue
        a0 = next(a for a in xs if a)
        q = cells[a0, b0]
        if any(c * q != cells[a, b0] * cells[a0, b] for (a, b), c in cells.items()):
            continue
        a_part = {zero[:i] + (a,) + zero[i + 1:]: cells[a, b0] for a in xs}
        b_part = {b: cells[a0, b] for b in rest}
        return q, -cells.get((0, b0), 0) * cells.get((a0, zero), 0), a_part, b_part
    return None


def _summed_variable(g: dict[tuple[int, ...], int]) -> int | None:
    """The first variable x_i whose exponents in g all lie in {-1, 0, 1}, with
    both -1 and 1 among them, or None: one pass over the exponent columns."""
    return next((i for i, column in enumerate(zip(*g)) if {-1, 1} <= set(column) <= {-1, 0, 1}),
                None)


def _trinomial_split(g: dict[tuple[int, ...], int], i: int
                     ) -> tuple[dict[tuple[int, ...], int], dict[tuple[int, ...], int]]:
    """``(S, Q)`` with g = x_i*P + Q + R/x_i, S = P*R, and P, Q, R free of x_i."""
    parts: dict[int, dict[tuple[int, ...], int]] = {-1: {}, 0: {}, 1: {}}
    for e, c in g.items():
        parts[e[i]][e[:i] + (0,) + e[i + 1:]] = c
    s: dict[tuple[int, ...], int] = {}
    for a, x in parts[1].items():
        for b, y in parts[-1].items():
            e = tuple(u + v for u, v in zip(a, b))
            s[e] = s.get(e, 0) + x * y
    return {e: c for e, c in s.items() if c}, parts[0]


def _power_constants(g: dict[tuple[int, ...], int], rank: int, up_to: int) -> list[int]:
    """c_0(g**k) for k = 0..up_to of an integral g (exponent -> nonzero int):
    a one-term g at once, otherwise by the five steps of ``period_sequence``."""
    if len(g) == 1:
        ((e, c),) = g.items()
        return [1] + [0] * up_to if any(e) else [c ** k for k in range(up_to + 1)]
    blocks = _blocks(g, rank)
    if len(blocks) > 1:
        return reduce(_fold, (_power_constants(b, rank, up_to) for b in blocks))
    lam = _simplex_solve(list(g), 1, (0,) * rank)
    if lam is not None:
        out = [1] + [0] * up_to
        if lam is not False and min(lam) >= 0:
            m = lcm(*(x.denominator for x in lam))
            ell = [x.numerator * (m // x.denominator) for x in lam]
            weight = prod(c ** l for c, l in zip(g.values(), ell))
            multinomial = power = 1
            for j in range(1, up_to // m + 1):  # (jm)!/prod (jℓ_i)! from its value at j - 1
                multinomial = multinomial * perm(j * m, m) // prod(perm(j * l, l) for l in ell)
                power *= weight
                out[j * m] = multinomial * power
        return out
    split = _product_split(g, rank)
    if split is not None:
        q, c, a_part, b_part = split
        products = [x * y for x, y in zip(_power_constants(a_part, rank, up_to),
                                          _power_constants(b_part, rank, up_to))]
        return [v // q ** k for k, v in enumerate(_fold([c ** k for k in range(up_to + 1)],
                                                        products))]
    i = _summed_variable(g)
    if i is not None:
        s, q = _trinomial_split(g, i)
        half = up_to // 2
        if not q:
            out = [0] * (up_to + 1)
            for j, v in enumerate(_power_constants(s, rank, half)):
                out[2 * j] = comb(2 * j, j) * v
            return out
        # S**j is needed only up to the largest j for which some S**j * Q**m,
        # m <= up_to - 2j, has the origin in its exponent box j*box(S) + m*box(Q);
        # every c_0(S**j * Q**m) beyond it is 0
        boxes = [(min(a), max(a), min(b), max(b)) for a, b in zip(zip(*s), zip(*q))]
        top = next(j for j in range(half, -1, -1) if any(
            all(j * s0 + m * q0 <= 0 <= j * s1 + m * q1 for s0, s1, q0, q1 in boxes)
            for m in range(up_to - 2 * j + 1)))
        # one box holds S**0..S**top, Q**0..Q**up_to and -a for each key a of an S**j
        pack = _packing([max(top * max(-s0, s1), up_to * max(-q0, q1))
                         for s0, s1, q0, q1 in boxes])
        s_powers, q_powers = _powers(s, top, pack), _powers(q, up_to, pack)
        return [sum(comb(k, 2 * j) * comb(2 * j, j) * _pair(s_powers[j], q_powers[k - 2 * j], 0)
                    for j in range(min(top, k // 2) + 1)) for k in range(up_to + 1)]
    h = (up_to + 1) // 2
    powers, _ = _half_powers(g, h, (0,) * rank)
    out = [p.get(0, 0) for p in powers]
    return out + [_pair(powers[h], powers[k - h], 0) for k in range(h + 1, up_to + 1)]


def period_sequence(f: LaurentPoly, up_to: int) -> PeriodSequence:
    """Constant terms of f**k for k = 0..up_to, exactly.

    Write f = g/D with g integral; then c_k = c_0(g**k) / D**k.  A one-term g
    gives c_k = c**k when the term is the constant c and 1, 0, 0, ... when it
    is not; otherwise c_0(g**k) comes from the first of five steps that
    applies, each step recursing on smaller integral potentials:

    1. Sum rule.  When g's terms fall into blocks that share no variable (the
       constant term is a block of its own), c_k(A + B) =
       sum_j C(k, j) c_j(A) c_(k-j)(B), folded over the blocks.  This is the
       product formula for periods: the period of a product of Fano varieties
       is the product of their periods (Coates, Corti, Galkin, Golyshev and
       Kasprzyk, "Mirror symmetry and Fano manifolds", 2013), as for the
       P^1 x P^1 mirror x + 1/x + y + 1/y.
    2. Closed form, when the support of g is affinely independent (at most
       n + 1 terms, none an affine combination of the others), as for the
       mirrors of projective and weighted projective spaces.  With λ the
       barycentric coordinates of the origin over the support, c_k = 0 for
       k >= 1 if the origin is off the support's affine span or some λ_i < 0;
       otherwise c_k is nonzero only at k = jm, m the lcm of λ's denominators
       and ℓ = mλ, where c_jm = (jm)!/prod (jℓ_i)! * W**j with the integer
       W = prod g_i**ℓ_i.
    3. Product rule, when q*g = c + A(x_i)*B(other variables) for some
       variable x_i, as for the dP4 mirror (1+x)^2(1+y)^2/(xy) - 4 (see
       ``_product_split``): since A and B share no variable,
       c_0((q*g)**k) = sum_j C(k, j) c**(k-j) c_j(A) c_j(B), which q**k
       divides exactly.
    4. Trinomial step, when some variable x occurs only as x, 1 and 1/x, as
       in the Fano hypersurface quotients x_0 + ... + x_(m-1) +
       B(y)/(x_0...x_(m-1)) and the dP5 chain's X + 2/Y + 2Y + (1+Y)^4/(X*Y^2).
       With g = x*P + Q + R/x and S = P*R, the constant term over x is
       c_0(g**k) = sum_j C(k, 2j) C(2j, j) c_0(S**j * Q**(k-2j)), the
       Givental-type shape of weak LG models of complete intersections
       (Przyjalkowski, Commun. Number Theory Phys., 2007).  When Q = 0,
       c_2j = C(2j, j) c_j(S) recurses on S; otherwise S**0..S**(K//2) (fewer
       when exponent bounds make the rest pair to 0) and Q**0..Q**K are built
       on one packing (see ``_powers``) and paired.
       The product rule goes first because dP4 has such a variable too, and
       the product rule serves it faster.
    5. Kernel: build g**0..g**h for h = ceil(up_to/2) on packed int exponent
       keys (see ``_half_powers``).  For k <= h, c_0(g**k) is read off g**k
       itself; for h < k <= up_to it is sum_a g**(k-h)[a] * g**h[-a],
       iterating the smaller g**(k-h).  h is the cheapest split: one more
       power costs more dict updates than the pairing lookups it would save.
    """
    if up_to < 0:
        raise ValueError("up_to must be nonnegative")
    g, denom = _integral(f)
    coeffs = []
    scale = 1
    zero = Fraction(0)  # shared by every vanishing c_k
    for c in _power_constants(g, f.rank, up_to):
        coeffs.append(Fraction(c, scale) if c else zero)
        scale *= denom
    return PeriodSequence("computed", tuple(coeffs), "computed")


def power_coefficient(f: LaurentPoly, r: int, t: Sequence[int]) -> Fraction:
    """The coefficient of x**t in f**r, exactly, without building f**r.

    Returns 0 at once when t lies outside r times the bounding box of the
    support of f.  When the support is affinely independent (at most n + 1
    terms, none an affine combination of the others), x**t comes from at
    most one choice of a_i factors c_i x**e_i with sum(a_i) = r and
    sum(a_i e_i) = t, so the coefficient is r!/prod a_i! * prod c_i**a_i for
    integral a >= 0, and 0 otherwise.  Every other f takes the kernel, which
    pairs g**ceil(r/2) with g**floor(r/2) at t - a (see ``_half_powers``).
    """
    if not isinstance(r, int) or r < 0:
        raise ValueError(f"exponent must be a nonnegative integer, got {r!r}")
    t = tuple(t)
    if len(t) != f.rank:
        raise RankMismatchError(f"exponent length {len(t)} for rank {f.rank}")
    support = f.terms
    if support and any(not r * min(e[i] for e in support) <= x <= r * max(e[i] for e in support)
                       for i, x in enumerate(t)):
        return Fraction(0)
    a = _simplex_solve(list(support), r, t)
    if a is False:
        return Fraction(0)
    if a is not None:
        if any(x < 0 or x.denominator != 1 for x in a):
            return Fraction(0)
        a = [x.numerator for x in a]
        return Fraction(factorial(r) // prod(map(factorial, a))
                        * prod(c ** x for c, x in zip(support.values(), a)))
    g, denom = _integral(f)
    powers, pack = _half_powers(g, (r + 1) // 2, t)
    return Fraction(_pair(powers[(r + 1) // 2], powers[r // 2], pack(t)), denom ** r)


@record
class WeakLGRow:
    k: int
    computed: Fraction
    reference: Fraction
    match: bool


@record
class WeakLGReport:
    rows: tuple[WeakLGRow, ...]
    passed: bool


def is_weak_lg(f: LaurentPoly, reference: PeriodSequence, up_to: int,
               k_min: int = 2) -> WeakLGReport:
    """Compare constant terms of powers of ``f`` against a reference sequence.

    Mismatches are reported row by row, not raised; the overall flag is true
    only when every k in [k_min, up_to] matches exactly.  An empty or negative
    range is a ValueError, so a report never passes with nothing compared.
    """
    if not 0 <= k_min <= up_to:
        raise ValueError(f"k range {k_min}..{up_to} is empty or negative")
    if reference.max_power < up_to:
        raise SequenceRangeError(
            f"reference covers k <= {reference.max_power}, need {up_to}")
    computed = period_sequence(f, up_to).coeffs
    rows = tuple(WeakLGRow(k, computed[k], ref, computed[k] == ref)
                 for k, ref in enumerate(reference.coeffs[k_min:up_to + 1], start=k_min))
    return WeakLGReport(rows, all(r.match for r in rows))


# ---------------------------------------------------------------------------
# reference ingestion
# ---------------------------------------------------------------------------

def _parse_coeff(text: str, line: int | None) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ReferenceFormatError(f"bad coefficient {text.strip()!r}", line)


def _assemble(pairs: list[tuple[int, Fraction]], name: str) -> PeriodSequence:
    if not pairs:
        raise ReferenceFormatError("no coefficients found")
    seen: dict[int, Fraction] = {}
    for k, c in pairs:
        if k < 0:
            raise ReferenceFormatError(f"negative index k={k}")
        if k in seen:
            raise ReferenceFormatError(f"duplicate entry for k={k}")
        seen[k] = c
    if 0 in seen and seen[0] != 1:
        raise ReferenceFormatError(f"c_0 of a regularized period must be 1, got {seen[0]}")
    coeffs = [Fraction(0)] * (max(seen) + 1)  # one shared zero fills the gaps
    for k, c in seen.items():
        coeffs[k] = c
    coeffs[0] = Fraction(1)
    return PeriodSequence(name, tuple(coeffs), "ingested")


def ingest_reference(path: str | Path) -> PeriodSequence:
    """Load a reference period sequence from a ``.csv`` or ``.json`` file.

    CSV: header ``k,coeff`` then one row per nonzero coefficient.  JSON: an
    object with ``name`` and ``coeffs``, the latter a list of [k, "coeff"]
    pairs.  Missing indices are zero-filled; c_0 defaults to 1.  A malformed
    file raises ReferenceFormatError naming its path.
    """
    path = Path(path)
    try:
        return _read_reference(path)
    except ReferenceFormatError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _read_reference(path: Path) -> PeriodSequence:
    fmt = path.suffix.lstrip(".").lower()
    if fmt not in ("csv", "json"):
        raise ReferenceFormatError(f"unsupported format {fmt!r}")
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise ReferenceFormatError(str(exc)) from None
    if not text.strip():
        raise ReferenceFormatError("file is empty")
    if fmt == "csv":
        lines = text.splitlines()
        header = lines[0].strip().replace(" ", "")
        if header != "k,coeff":
            raise ReferenceFormatError("expected header 'k,coeff'", 1)
        pairs = []
        for i, raw in enumerate(lines[1:], start=2):
            if not raw.strip():
                continue
            cells = raw.split(",")
            if len(cells) != 2:
                raise ReferenceFormatError(f"expected two cells, got {len(cells)}", i)
            try:
                k = int(cells[0])
            except ValueError:
                raise ReferenceFormatError(f"bad index {cells[0].strip()!r}", i)
            pairs.append((k, _parse_coeff(cells[1], i)))
        return _assemble(pairs, path.stem)
    try:
        data = json.loads(text)
    except RecursionError:
        raise ReferenceFormatError("JSON nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise ReferenceFormatError(str(exc)) from None
    if not isinstance(data, dict) or not isinstance(data.get("coeffs"), list):
        raise ReferenceFormatError("JSON reference must be an object with a 'coeffs' list")
    pairs = []
    for entry in data["coeffs"]:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ReferenceFormatError(f"bad coeffs entry {entry!r}")
        k, raw = entry
        try:
            k = spec_int(k)
        except TypeError:
            raise ReferenceFormatError(f"bad index {k!r}") from None
        pairs.append((k, _parse_coeff(str(raw), None)))
    try:
        name = spec_field(data, "name", spec_str, "JSON reference", path.stem)
    except ValueError as exc:
        raise ReferenceFormatError(str(exc)) from None
    return _assemble(pairs, name)
