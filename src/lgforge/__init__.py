"""lgforge: exact Laurent-polynomial machinery for Landau-Ginzburg potentials.

Core pieces: sparse Laurent algebra with an expression parser, integer-lattice
normal forms for quotient-torus rewrites, regularized quantum periods via
constant terms of powers, cyclic-cover potentials and tangency counts,
mutations, and a numerical critical-point solver.
"""

from .cover import (
    CoverResult,
    CoverSpec,
    DiscClass,
    DivisorFunctional,
    MaslovReport,
    RHLift,
    TangencyNumber,
    build_cover_potential,
    cover_connected,
    cover_spec_from_dict,
    derive_action,
    maslov_positive,
    monotonicity_check,
    riemann_hurwitz_lift,
    split_potential,
    tangency_number,
)
from .critical import (
    CriticalPoint,
    CriticalSearch,
    CriticalValueSet,
    SolverOptions,
    critical_points,
    critical_values,
    log_gradient,
)
from .errors import (
    CharacterSolveError,
    DiscLedgerError,
    EmptyPolynomialError,
    ExprSyntaxError,
    FloatRangeError,
    InvalidFunctionalError,
    InvarianceError,
    LGForgeError,
    MultiplicityError,
    NotInSublatticeError,
    NotLaurentError,
    RankMismatchError,
    ReferenceFormatError,
    SequenceRangeError,
    UnknownVariableError,
    ZeroCoordinateError,
    ZeroDenominatorError,
)
from .lattice import (
    CharacterAction,
    SNFDecomposition,
    Sublattice,
    hermite_column_basis,
    invariant_sublattice,
    rewrite_in_sublattice,
    smith_normal_form,
    solve_character,
)
from .laurent import (
    Exponent,
    LaurentPoly,
    RationalExpr,
    divide_exact,
    laurent_normalize,
)
from .mutation import (
    PeriodCompareReport,
    Substitution,
    apply_substitution,
    check_period_invariance,
    identity_substitution,
    substitution_from_dict,
)
from .parsing import parse, parse_poly
from .periods import (
    DescendantConstant,
    PeriodSequence,
    WeakLGReport,
    descendant_constant,
    ingest_reference,
    is_weak_lg,
    period_sequence,
    power_coefficient,
)

__version__ = "0.1.0"
