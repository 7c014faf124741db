"""Recursive-descent parser for torus expressions, and the reader for the
fields of JSON spec objects.

Grammar (ASCII, whitespace insignificant, implicit multiplication forbidden):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' ('-'|'+')? INT)?
    atom   := NAME | INT | '(' expr ')'
    NAME   := [a-zA-Z][a-zA-Z0-9_]*
    INT    := [0-9]+

Rational literals like ``3/4`` are handled by the division operator, which is
exact, so they need no dedicated token.  ``^`` binds tighter than ``*`` and
``/``; its exponent must be a (possibly signed) integer literal.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Sequence

from .errors import ExprSyntaxError, UnknownVariableError
from .laurent import LaurentPoly, RationalExpr, laurent_normalize

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_NAME_BODY = _NAME_START | set("0123456789_")
_DIGITS = set("0123456789")
_PUNCT = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch in _NAME_START:
            j = i
            while j < n and text[j] in _NAME_BODY:
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, varnames: Sequence[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.varnames = tuple(varnames)
        self.rank = len(self.varnames)
        if self.rank == 0:
            raise ValueError("at least one variable name is required")
        check_names(self.varnames)
        self.index = {name: i for i, name in enumerate(self.varnames)}

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self, kind: str | None = None) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> RationalExpr:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"unexpected token {tok[1]!r}", tok[2])
        return value

    def expr(self) -> RationalExpr:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> RationalExpr:
        value = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            rhs = self.unary()
            value = value * rhs if op == "*" else value / rhs
        return value

    def unary(self) -> RationalExpr:
        if self.peek()[0] == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self) -> RationalExpr:
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            sign = 1
            if self.peek()[0] in ("-", "+"):
                sign = -1 if self.take()[0] == "-" else 1
            tok = self.take("int")
            return base ** (sign * int(tok[1]))
        return base

    def atom(self) -> RationalExpr:
        kind, text, pos = self.peek()
        if kind == "int":
            self.take()
            return RationalExpr.from_poly(
                LaurentPoly.constant(self.rank, int(text), self.varnames))
        if kind == "name":
            self.take()
            idx = self.index.get(text)
            if idx is None:
                raise UnknownVariableError(text, pos)
            return RationalExpr.from_poly(
                LaurentPoly.variable(self.rank, idx, self.varnames))
        if kind == "(":
            self.take()
            value = self.expr()
            self.take(")")
            return value
        raise ExprSyntaxError(f"expected a value, found {text!r}" if text else "unexpected end of input", pos)


def check_names(names: Sequence[str]) -> None:
    """Raise ValueError unless every name is a NAME of the grammar, none twice."""
    seen = set()
    for name in names:
        if not (isinstance(name, str) and name[:1] in _NAME_START and set(name) <= _NAME_BODY):
            raise ValueError(f"{name!r} is not a variable name ([a-zA-Z][a-zA-Z0-9_]*)")
        if name in seen:
            raise ValueError(f"duplicate variable name {name!r}")
        seen.add(name)


def parse(text: str, varnames: Sequence[str]) -> RationalExpr:
    """Parse ``text`` into a rational expression over the named variables."""
    parser = _Parser(text, varnames)
    try:
        return parser.parse()
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", parser.peek()[2]) from None


def parse_poly(text: str, varnames: Sequence[str]) -> LaurentPoly:
    """Parse and normalise; raises NotLaurentError for genuine rational functions."""
    return laurent_normalize(parse(text, varnames))


# ---------------------------------------------------------------------------
# JSON spec fields
# ---------------------------------------------------------------------------

_REQUIRED = object()


def spec_field(data: dict, key: str, convert: Callable[[Any], Any], where: str,
               default: Any = _REQUIRED) -> Any:
    """``convert(data[key])``, or ``default`` when the key is absent or null.

    A required key that is absent, or a value ``convert`` rejects, raises a
    ValueError naming ``where`` (the file or section being read) and the key.
    """
    value = data.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ValueError(f"{where}: missing key {key!r}")
        return default
    try:
        return convert(value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ValueError(f"{where}: bad value for {key!r}: {exc}") from None


def spec_list(item: Callable[[Any], Any], length: int | None = None) -> Callable[[Any], list]:
    """Converter for a JSON list, passing each entry through ``item``; with
    ``length`` (the number of variables), a list of any other length is rejected."""
    def convert(value) -> list:
        if not isinstance(value, list):
            raise TypeError("expected a list")
        if length is not None and len(value) != length:
            raise ValueError(f"expected {length} values (one per variable), got {len(value)}")
        return [item(v) for v in value]
    return convert


def spec_names(length: int | None = None) -> Callable[[Any], list[str]]:
    """Converter for a list of variable names (see ``check_names``); with
    ``length``, a list of any other length is rejected."""
    strings = spec_list(spec_str, length)

    def convert(value) -> list[str]:
        names = strings(value)
        check_names(names)
        return names
    return convert


def spec_object(value) -> dict:
    """Converter for a JSON object."""
    if not isinstance(value, dict):
        raise TypeError("expected an object")
    return value


def spec_int(value) -> int:
    """Converter for a JSON integer; a float such as 2.5 or 2.0, a string or a
    boolean is rejected rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def spec_str(value) -> str:
    """Converter for a JSON string; a number, list or boolean is rejected
    rather than turned into its text."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def spec_bool(value) -> bool:
    """Converter for a JSON boolean; a string such as "false" is rejected."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def spec_fraction(value) -> Fraction:
    """Converter for a rational given as a number or a string such as "2/3"."""
    return Fraction(str(value))
