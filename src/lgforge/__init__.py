"""lgforge: exact Laurent-polynomial machinery for Landau-Ginzburg potentials.

Core pieces: sparse Laurent algebra with an expression parser, integer-lattice
normal forms for quotient-torus rewrites, regularized quantum periods via
constant terms of powers, cyclic-cover potentials and tangency counts,
mutations, and a numerical critical-point solver.

Every layer loads on first use (PEP 562 ``__getattr__``).  ``lgforge.cover``
and the other layer names return the layer as a module that is registered in
``sys.modules`` at once but runs its body only on its first attribute access
(``importlib.util.LazyLoader``); ``import lgforge.<layer>`` still loads it
eagerly.  Each name in ``__all__`` resolves through its layer on first access
and is then cached here.  So ``import lgforge`` compiles no layer;
``lgforge.cli`` lists the layers each command loads.
"""

import sys

__version__ = "0.1.0"

_EXPORTS = {
    "cover": ("CoverResult", "CoverSpec", "DiscClass", "DivisorFunctional", "MaslovReport",
              "RHLift", "TangencyNumber", "build_cover_potential", "cover_connected",
              "cover_spec_from_dict", "derive_action", "maslov_positive",
              "monotonicity_check", "riemann_hurwitz_lift", "split_potential",
              "tangency_number"),
    "critical": ("CriticalPoint", "CriticalSearch", "CriticalValueSet", "SolverOptions",
                 "critical_points", "critical_values", "log_gradient"),
    "errors": ("CharacterSolveError", "DiscLedgerError", "ExprSyntaxError",
               "FloatRangeError", "InvalidFunctionalError", "LGForgeError",
               "MultiplicityError", "NotInSublatticeError", "NotLaurentError",
               "RankMismatchError", "ReferenceFormatError", "SequenceRangeError",
               "UnknownVariableError", "ZeroCoordinateError", "ZeroDenominatorError"),
    "lattice": ("CharacterAction", "Sublattice", "invariant_sublattice",
                "rewrite_in_sublattice", "solve_character"),
    "laurent": ("Exponent", "LaurentPoly", "RationalExpr", "divide_exact", "laurent_normalize"),
    "mutation": ("Substitution", "apply_substitution", "check_period_invariance",
                 "substitution_from_dict"),
    "parsing": ("parse", "parse_poly"),
    "periods": ("ComparisonReport", "PeriodSequence", "ingest_reference", "is_weak_lg",
                "period_sequence", "power_coefficient"),
}
_LAYERS = frozenset(_EXPORTS) | {"potentials"}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_LAYER_OF)


def _layer(name: str):
    """The layer module ``lgforge.<name>``: the loaded one if any, else a lazy one."""
    fullname = f"{__name__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        import importlib.util

        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
    globals()[name] = module
    return module


def __getattr__(name: str):
    if name in _LAYERS:
        return _layer(name)
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_layer(layer), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
