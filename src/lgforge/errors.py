"""Exception types shared across the package."""


class LGForgeError(Exception):
    """Base class for every error raised by this package."""


class RankMismatchError(LGForgeError):
    """Operands live on lattices of different rank, or a vector has the wrong length."""


class ZeroCoordinateError(LGForgeError):
    """Evaluation point has a zero coordinate (the torus excludes the axes)."""


class NotLaurentError(LGForgeError):
    """A quotient of polynomials is not a Laurent polynomial."""


class ZeroDenominatorError(LGForgeError):
    """A denominator normalises to the zero polynomial."""


class ExprSyntaxError(LGForgeError):
    """Malformed expression text; carries the character offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(ExprSyntaxError):
    """Identifier not present in the declared variable list."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown variable '{name}'", position)
        self.name = name


class NotInSublatticeError(LGForgeError):
    """A monomial exponent falls outside the target sublattice."""

    def __init__(self, exponent):
        super().__init__(f"exponent {tuple(exponent)} is not in the sublattice")
        self.exponent = tuple(exponent)


class InvalidFunctionalError(LGForgeError):
    """Divisor functional takes a value outside {0, 1} (or a non-integer) on the support."""

    def __init__(self, offenders):
        self.offenders = tuple((tuple(e), v) for e, v in offenders)
        detail = ", ".join(f"{e} -> {v}" for e, v in self.offenders)
        super().__init__(f"functional is not {{0,1}}-valued on the support: {detail}")


class CharacterSolveError(LGForgeError):
    """The congruence system for a deck character has no solution."""


class MultiplicityError(LGForgeError):
    """Tangency multiplicities do not sum to the cover degree."""


class FloatRangeError(LGForgeError):
    """An exact number, or a value computed from exact data, does not fit in a
    finite float (an evaluation overflows, or a coefficient is too large)."""


class SequenceRangeError(LGForgeError):
    """Requested index lies outside the stored period sequence."""


class ReferenceFormatError(LGForgeError):
    """Reference period file is malformed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class DiscLedgerError(LGForgeError):
    """Disc-class bookkeeping input is invalid (e.g. a non-positive area)."""
