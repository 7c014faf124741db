"""Regularized quantum-period sequences from constant terms of powers.

The k-th coefficient attached to a Laurent potential f is the constant term
of f**k.  Sequences are exact rational lists; reference data can be ingested
from CSV or JSON files that carry coefficients as decimal strings.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
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


@record
class DescendantConstant:
    """A single regularized point-descendant value, indexed by its degree."""

    r: int
    value: Fraction

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("descendant degree must be nonnegative")
        object.__setattr__(self, "value", Fraction(self.value))


def _half_powers(f: LaurentPoly, h: int, pad: Sequence[int]
                 ) -> tuple[list[dict[int, int]], int, Callable[[Sequence[int]], int]]:
    """Powers g**0..g**h of the integral form g = D*f, on packed exponent keys.

    Returns ``(powers, D, pack)``.  ``pack`` sends an exponent vector e to
    sum(e_i * R_i) with R_0 = 1 and R_(i+1) = R_i * (2*B_i + 1), where
    B_i = h * max|e_i| over the support of f, plus |pad_i|.  The map is linear
    and injective on the box |e_i| <= B_i.  That box holds every exponent a
    of g**0..g**h, and pad - a too, so sums, negations and differences of
    exponents become sums, negations and differences of int keys.

    Each g**j is g**(j-1) shifted by g's first term, into which the other
    terms of g are added, so a power costs (|g| - 1) * |g**(j-1)| dict
    updates.  Callers read the constant term of g**k for k <= h straight
    off ``powers[k]``; h = ceil(K/2) is the cheapest split for c_0..c_K,
    because building g**(h+1) would cost |g| * |g**h| updates, more than
    the |g**(K-h)| pairing lookups it saves.
    """
    terms = f.terms
    denom = lcm(*(c.denominator for c in terms.values()))
    radices = []
    radix = 1
    for i, extra in enumerate(pad):
        radices.append(radix)
        bound = h * max((abs(e[i]) for e in terms), default=0) + abs(extra)
        radix *= 2 * bound + 1

    def pack(e: Sequence[int]) -> int:
        return sum(x * r for x, r in zip(e, radices))

    g = [(pack(e), c.numerator * (denom // c.denominator)) for e, c in terms.items()]
    if not g:
        return [{0: 1}] + [{} for _ in range(h)], denom, pack
    (k0, c0), *rest = g
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
    return powers, denom, pack


def _pair(hi: dict[int, int], lo: dict[int, int], target: int) -> int:
    """sum over keys a of hi[a] * lo[target - a], iterating over the smaller dict."""
    small, big = (lo, hi) if len(lo) <= len(hi) else (hi, lo)
    get = big.get
    return sum(c * get(target - a, 0) for a, c in small.items())


def period_sequence(f: LaurentPoly, up_to: int) -> PeriodSequence:
    """Constant terms of f**k for k = 0..up_to, exactly.

    One kernel: write f = g/D with g integral and build g**0..g**h for
    h = ceil(up_to/2) on packed int exponent keys (see ``_half_powers``).
    For k <= h, c_0(g**k) is read off g**k itself; for h < k <= up_to it is
    sum_a g**(k-h)[a] * g**h[-a], iterating the smaller g**(k-h).  Then
    c_k = c_0(g**k) / D**k.  h is the cheapest split: one more power costs
    more dict updates than the pairing lookups it would save.
    """
    if up_to < 0:
        raise ValueError("up_to must be nonnegative")
    h = (up_to + 1) // 2
    powers, denom, _ = _half_powers(f, h, (0,) * f.rank)
    constants = [p.get(0, 0) for p in powers]
    constants += [_pair(powers[h], powers[k - h], 0) for k in range(h + 1, up_to + 1)]
    coeffs = []
    scale = 1
    for c in constants:
        coeffs.append(Fraction(c, scale))
        scale *= denom
    return PeriodSequence("computed", tuple(coeffs), "computed")


def power_coefficient(f: LaurentPoly, r: int, t: Sequence[int]) -> Fraction:
    """The coefficient of x**t in f**r, exactly, without building f**r.

    Pairs g**ceil(r/2) with g**floor(r/2) at t - a (see ``_half_powers``),
    and returns 0 at once when t lies outside r times the bounding box of the
    support of f.
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
    powers, denom, pack = _half_powers(f, (r + 1) // 2, t)
    return Fraction(_pair(powers[(r + 1) // 2], powers[r // 2], pack(t)), denom ** r)


def descendant_constant(p: PeriodSequence, r: int) -> DescendantConstant:
    """The degree-r coefficient of a period sequence, packaged for cover input."""
    return DescendantConstant(r, p[r])


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
    computed = period_sequence(f, up_to)
    rows = []
    for k in range(k_min, up_to + 1):
        c, ref = computed[k], reference[k]
        rows.append(WeakLGRow(k, c, ref, c == ref))
    return WeakLGReport(tuple(rows), all(r.match for r in rows))


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
