"""Command-line front end.

Subcommands: eval, period, cover, quotient, crit, mutate, tangency, compare,
check-weak-lg, ledger.  Inputs come from flags (--expr/--vars, and tangency's
-r, --boundary, --multiplicities, --descendant and --smooth) or from --spec
files: file contents win on conflict, with a warning naming each flag given;
cover and ledger read only --spec.  An empty --spec, --output, --reference
or --sub names no file and is a usage error.  Output is a text table or
stable-key-ordered JSON, byte-identical across runs.  Only crit is random and
takes --seed; every other command is exact and records seed 0 in its
provenance.  Exit codes: 0 success, 1 computation error, 2 usage or parse
error.  crit loads numpy with one BLAS thread unless the user set a thread
count (OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS, MKL_NUM_THREADS or
OMP_NUM_THREADS), and leaves os.environ as it found it.  No command loads
OpenSSL: the provenance digest comes from CPython's builtin SHA-256 (hashlib
only where the build lacks it).  ``run`` is the process entry
(``python -m lgforge`` and the ``lgforge`` script): it turns the cyclic
garbage collector off and lifts CPython's 4300-digit limit on int/str
conversion, so exact results of any size print; ``main`` is the same
without those two process settings.

Every command needs ``errors`` and ``parsing`` (and through it ``laurent``
and ``_record``), and most need ``periods``, so those load with this module.
So does the small ``mutation`` layer (about 1 ms to compile): a program that
imports this module and then times calls into ``lgforge.mutation`` does not
time its first load.  ``cover``, ``critical`` and ``lattice`` come as lazy
modules from the package (``lgforge.__getattr__``) and are called as
``cover.tangency_number(...)`` and so on, so each runs its body on the first
call into it: ``crit`` runs ``critical``, ``quotient`` runs ``lattice``,
``cover``, ``tangency`` and ``ledger`` run ``cover`` and ``lattice``, and
the other commands run none of the three.  A ``from .<layer> import name``
here loads its layer with this module.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

# hashlib loads OpenSSL's libcrypto, about 3 MB of RSS and 4 ms per process,
# for one digest of a few hundred bytes; CPython's builtin SHA-256 gives the
# same digest.  It is _sha2 from 3.12 and _sha256 before; a build without
# either falls back to hashlib.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import __version__, cover, critical, lattice
from .errors import ExprSyntaxError, LGForgeError, ReferenceFormatError
from .mutation import apply_substitution, check_period_invariance, substitution_from_dict
from .parsing import (parse_poly, spec_bool, spec_field, spec_fraction, spec_int, spec_list,
                      spec_names, spec_object, spec_str)
from .periods import ingest_reference, is_weak_lg, period_sequence

_USAGE_ERRORS = (ExprSyntaxError, ReferenceFormatError, OSError, ValueError)


def _frac_json(c: Fraction):
    return c.numerator if c.denominator == 1 else str(c)


def _complex_json(z: complex) -> dict:
    return {"im": z.imag, "re": z.real}


def _rounded_json(z: complex) -> dict:
    """``_complex_json`` at the 10 significant digits ``_complex_text`` prints."""
    return _complex_json(complex(float(f"{z.real:.10g}"), float(f"{z.imag:.10g}")))


def _complex_text(z: complex) -> str:
    return f"{z.real:.10g}{z.imag:+.10g}j"


def _split_csv(text: str) -> list[str]:
    return [cell.strip() for cell in text.split(",") if cell.strip()]


def _finite_complex(text: str) -> complex:
    z = complex(text)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{text!r} is not a finite number")
    return z


def _read_expr(value: str) -> str:
    return sys.stdin.read() if value == "-" else value


def _flag(value, flag: str, convert):
    """``convert(value)`` for an inline flag; a value ``convert`` rejects is a
    ValueError naming the flag."""
    try:
        return convert(value)
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"bad value for {flag}: {exc}") from None


def _csv_flag(text: str, flag: str, convert=spec_list(int)) -> list:
    """The comma-separated values of an inline flag, as a list passed through
    ``convert`` (``spec_list`` or ``spec_names``); a list ``convert`` rejects
    is a ValueError naming the flag."""
    return _flag(_split_csv(text), flag, convert)


def _max_power(args) -> int:
    """The -K flag, which bounds k in c_k: not negative, and at most
    sys.maxsize, the longest list, which c_0..c_K must fit in."""
    if args.max_power < 0:
        raise ValueError(f"-K must be nonnegative, got {args.max_power}")
    if args.max_power > sys.maxsize:
        raise ValueError(f"-K must be at most {sys.maxsize}, got {args.max_power}")
    return args.max_power


def _json_object(path: str) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


# The flags whose inputs a spec file supplies instead, by argparse dest.
_EXPR_FLAGS = {"expr": "--expr", "vars": "--vars"}
_TANGENCY_FLAGS = {**_EXPR_FLAGS, "degree": "-r", "boundary": "--boundary",
                   "multiplicities": "--multiplicities", "descendant": "--descendant",
                   "smooth": "--smooth"}

# The flags that name a file; an empty value names none.
_PATH_FLAGS = ("spec", "output", "reference", "sub")


def _spec(args, spec_only: bool = False, overrides: dict = _EXPR_FLAGS) -> dict | None:
    """The --spec file's JSON object, or None without --spec.

    cover and ledger (``spec_only``) read nothing else, so they require it.
    Every other command also takes the flags in ``overrides``, and this is
    the one place that warns, naming each one given, when --spec overrides
    them.
    """
    if args.spec is None:
        if spec_only:
            raise ValueError("--spec is required")
        return None
    data = _json_object(args.spec)
    # an absent flag is None, or False for --smooth; -r 0 and "" are given
    given = [flag for dest, flag in overrides.items()
             if getattr(args, dest, None) is not None and getattr(args, dest) is not False]
    if given:
        print(f"warning: --spec overrides {', '.join(given)}", file=sys.stderr)
    return data


def _expr_inputs(args) -> tuple[str, list[str], dict]:
    """Return (expr, vars, raw-inputs-for-hashing) from --spec or --expr/--vars."""
    data = _spec(args)
    if data is None:
        if not args.expr or not args.vars:
            raise ValueError("provide --expr and --vars, or --spec")
        expr, varnames = _read_expr(args.expr), _csv_flag(args.vars, "--vars", spec_names())
    else:
        expr = spec_field(data, "expr", spec_str, args.spec)
        varnames = spec_field(data, "vars", spec_names(), args.spec)
    return expr, varnames, {"expr": expr, "vars": varnames}


def _provenance(command: str, inputs: dict, seed: int) -> dict:
    blob = json.dumps({"command": command, "inputs": inputs}, sort_keys=True, default=str)
    return {
        "input_sha256": sha256(blob.encode()).hexdigest(),
        "seed": seed,
        "version": __version__,
    }


# ---------------------------------------------------------------------------
# command handlers: each returns (result_dict, text_lines)
# ---------------------------------------------------------------------------

def _cmd_eval(args):
    expr, varnames, raw = _expr_inputs(args)
    point = _csv_flag(args.point, "--point", spec_list(_finite_complex, len(varnames)))
    raw["point"] = [str(p) for p in point]
    f = parse_poly(expr, varnames)
    value = f.evaluate(point)
    result = {"value": _complex_json(value)}
    lines = [f"f({', '.join(str(p) for p in point)}) = {_complex_text(value)}"]
    return result, lines, raw


def _cmd_period(args):
    expr, varnames, raw = _expr_inputs(args)
    up_to = _max_power(args)
    # "strategy" stays in the hashed inputs so that period provenance hashes
    # are the same as those of releases that had a --strategy flag.
    raw.update({"K": up_to, "strategy": "incremental"})
    f = parse_poly(expr, varnames)
    seq = period_sequence(f, up_to)
    result = {"coeffs": [_frac_json(c) for c in seq.coeffs], "max_power": seq.max_power}
    lines = ["k    c_k", "-" * 24]
    lines += [f"{k:<4d} {c}" for k, c in enumerate(seq.coeffs)]
    return result, lines, raw


def _cmd_cover(args):
    data = _spec(args, spec_only=True)
    spec, basis, qvars = cover.cover_spec_from_dict(data)
    res = cover.build_cover_potential(spec, basis=basis, quotient_varnames=qvars)
    result = {
        "action": {"modulus": res.action.modulus, "weights": list(res.action.weights)},
        "basis_columns": [list(c) for c in res.basis.columns],
        "index": res.basis.index,
        "quotient": res.quotient_potential.render(),
        "quotient_vars": list(res.quotient_potential.varnames),
        "upstairs": res.upstairs_potential.render(),
    }
    lines = [
        f"upstairs  : {result['upstairs']}",
        f"action    : weights {tuple(res.action.weights)} mod {res.action.modulus}",
        f"basis     : columns {[tuple(c) for c in res.basis.columns]} (index {res.basis.index})",
        f"quotient  : {result['quotient']}   in vars {', '.join(result['quotient_vars'])}",
    ]
    return result, lines, data


def _cmd_quotient(args):
    expr, varnames, raw = _expr_inputs(args)
    weights = _csv_flag(args.weights, "--weights", spec_list(int, len(varnames)))
    if args.modulus < 1:
        raise ValueError(f"-r must be at least 1, got {args.modulus}")
    raw.update({"weights": weights, "r": args.modulus})
    f = parse_poly(expr, varnames)
    action = lattice.CharacterAction(tuple(weights), args.modulus)
    sublattice = lattice.invariant_sublattice(action)
    if args.basis is not None:
        columns = [_csv_flag(row, "--basis") for row in args.basis.split(";")]
        try:  # a ragged, dependent or wrong basis
            sublattice = sublattice.rebased(columns)
        except ValueError as exc:
            raise ValueError(f"bad value for --basis: {exc}") from None
        raw["basis"] = args.basis
    new_vars = None
    if args.new_vars is not None:
        new_vars = _csv_flag(args.new_vars, "--new-vars", spec_names(len(varnames)))
        raw["new_vars"] = new_vars
    g = lattice.rewrite_in_sublattice(f, sublattice, varnames=new_vars)
    result = {
        "basis_columns": [list(c) for c in sublattice.columns],
        "index": sublattice.index,
        "quotient": g.render(),
        "quotient_vars": list(g.varnames),
    }
    lines = [
        f"basis    : columns {[tuple(c) for c in sublattice.columns]} (index {sublattice.index})",
        f"quotient : {result['quotient']}   in vars {', '.join(g.varnames)}",
    ]
    return result, lines, raw


def _cmd_crit(args):
    expr, varnames, raw = _expr_inputs(args)
    if args.starts < 1:
        raise ValueError("--starts must be at least 1")
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    opts = critical.SolverOptions(starts=args.starts, seed=args.seed)
    # "tol" and "max_iter" stay in the hashed inputs so that crit provenance
    # hashes are the same as those of releases that had --tol and --max-iter.
    raw.update({"starts": opts.starts, "tol": critical.TOL, "max_iter": critical.MAX_ITER})
    f = parse_poly(expr, varnames)
    if "numpy" not in sys.modules:
        # crit's Newton systems are n x n with n the number of variables, so
        # a BLAS thread pool does no work here.  Its workers spin while numpy
        # loads: about 100 ms of CPU time per crit child on 2 vCPUs, but no
        # wall time or memory.  One thread unless the user set a count:
        # OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and MKL_NUM_THREADS take
        # precedence over OMP_NUM_THREADS, and one already set is kept.  The
        # variable is set for this import only, so no child inherits it.
        unset = "OMP_NUM_THREADS" not in os.environ
        os.environ.setdefault("OMP_NUM_THREADS", "1")
        try:
            import numpy  # noqa: F401
        finally:
            if unset:
                del os.environ["OMP_NUM_THREADS"]
    search = critical.critical_points(f, opts)
    if not search.points and not search.degenerate_input:
        print(f"warning: crit found no critical point from {opts.starts} starts",
              file=sys.stderr)
    values = critical.critical_values(f, opts, search=search)
    result = {
        "degenerate_input": search.degenerate_input,
        "points": [
            {
                "coords": [_rounded_json(z) for z in p.coords],
                "log_hessian_det": _rounded_json(p.log_hessian_det),
                "nondegenerate": p.nondegenerate,
                "residual": float(f"{p.residual:.10g}"),
                "value": _rounded_json(p.value),
            }
            for p in search.points
        ],
        "values": [{"multiplicity": m, "value": _rounded_json(v)} for v, m in values.values],
    }
    lines = []
    if search.degenerate_input:
        lines.append("degenerate input: the gradient vanishes identically")
    lines.append(f"{len(search.points)} critical points")
    for p in search.points:
        coords = ", ".join(_complex_text(z) for z in p.coords)
        flag = "nondegenerate" if p.nondegenerate else "DEGENERATE"
        lines.append(f"  ({coords})  value {_complex_text(p.value)}  residual {p.residual:.2e}  {flag}")
    lines.append("values: " + ", ".join(
        f"{_complex_text(v)} (x{m})" for v, m in values.values))
    return result, lines, raw


def _cmd_mutate(args):
    expr, varnames, raw = _expr_inputs(args)
    sub_data = _json_object(args.sub)
    raw["substitution"] = sub_data
    f = parse_poly(expr, varnames)
    sub = substitution_from_dict(sub_data)
    if len(sub.images) != f.rank:
        raise ValueError(f"{args.sub}: bad value for 'vars': expected {f.rank} values "
                         f"(one per --vars name), got {len(sub.images)}")
    image = apply_substitution(f, sub)
    result = {"image": image.render(), "vars": list(image.varnames)}
    lines = [f"image: {result['image']}"]
    return result, lines, raw


def _cmd_tangency(args):
    data, where = _spec(args, overrides=_TANGENCY_FLAGS), args.spec
    if data is None:  # the flags, as the object a spec file holds (the potential as "expr")
        if args.boundary is None:
            raise ValueError("the boundary class --boundary is required")
        _, _, data = _expr_inputs(args)
        if args.degree is None:
            raise ValueError("the cover degree -r is required")
        boundary = _csv_flag(args.boundary, "--boundary", spec_list(int, len(data["vars"])))
        mults = args.multiplicities
        if mults is not None:
            if args.smooth:
                raise ValueError("--multiplicities: smooth mode takes no multiplicities")
            mults = _csv_flag(mults, "--multiplicities")
            if not mults:
                raise ValueError("bad value for --multiplicities: expected at least one value")
        if args.descendant is not None:  # checked here, hashed as typed
            _flag(args.descendant, "--descendant", spec_fraction)
        data.update(r=args.degree, boundary=boundary, multiplicities=mults,
                    descendant=args.descendant, smooth=args.smooth)
        where = "command line"
    expr = spec_field(data, "potential" if args.spec else "expr", spec_str, where)
    varnames = spec_field(data, "vars", spec_names(), where)
    r = spec_field(data, "r", spec_int, where)
    if r < 0:
        raise ValueError(f"{where}: bad value for 'r': expected a nonnegative integer, got {r}"
                         if args.spec else f"-r must be nonnegative, got {r}")
    boundary = spec_field(data, "boundary", spec_list(spec_int, len(varnames)), where)
    mults = spec_field(data, "multiplicities", spec_list(spec_int), where, None)
    descendant = spec_field(data, "descendant", spec_fraction, where, None)
    smooth = spec_field(data, "smooth", spec_bool, where, False)
    potential = parse_poly(expr, varnames)
    tau = cover.tangency_number(
        potential, r, boundary, multiplicities=mults, descendant=descendant, smooth=smooth)
    result = {"integral": tau.integral, "tau": _frac_json(tau.value)}
    lines = [f"tau = {tau.value}"
             + ("" if tau.integral else "   WARNING: non-integral (inconsistent inputs?)")]
    return result, lines, data


def _comparison(report, left: str, right: str) -> tuple[dict, list[str]]:
    """The JSON rows and the k / left / right / match table of a report whose
    rows compare two sequences; ``left`` and ``right`` name the row fields."""
    rows = [(row.k, getattr(row, left), getattr(row, right), row.match) for row in report.rows]
    result = {"passed": report.passed,
              "rows": [{"k": k, left: _frac_json(a), right: _frac_json(b), "match": match}
                       for k, a, b, match in rows]}
    lines = [f"k    {left:<16} {right:<16} match", "-" * 48]
    lines += [f"{k:<4d} {str(a):<16} {str(b):<16} {'yes' if match else 'NO'}"
              for k, a, b, match in rows]
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return result, lines


def _cmd_compare(args):
    expr, varnames, raw = _expr_inputs(args)
    expr2 = _read_expr(args.expr2)
    up_to = _max_power(args)
    raw.update({"expr2": expr2, "K": up_to})
    f = parse_poly(expr, varnames)
    try:
        g = parse_poly(expr2, varnames)
    except ExprSyntaxError as exc:
        raise ValueError(f"--expr2: {exc}") from None
    result, lines = _comparison(check_period_invariance(f, g, up_to), "left", "right")
    return result, lines, raw


def _cmd_check_weak_lg(args):
    expr, varnames, raw = _expr_inputs(args)
    up_to = _max_power(args)
    if not 0 <= args.k_min <= up_to:  # an empty range would pass with nothing compared
        raise ValueError(f"--k-min must lie in 0..{up_to} (the -K bound), got {args.k_min}")
    reference = ingest_reference(args.reference)
    raw.update({"reference": [_frac_json(c) for c in reference.coeffs],
                "reference_name": reference.name, "K": up_to, "k_min": args.k_min})
    f = parse_poly(expr, varnames)
    report = is_weak_lg(f, reference, up_to, k_min=args.k_min)
    result, lines = _comparison(report, "computed", "reference")
    result.update(k_min=args.k_min, reference_name=reference.name)
    return result, [f"reference: {reference.name}", *lines], raw


_LEDGER_CHECKS = ("maslov_positive", "monotonicity", "riemann_hurwitz", "connected")


def _ledger_checks(data: dict, where: str) -> dict[str, dict]:
    """The ledger checks that are on, each with its options object.

    A check that is absent, null or false is off; true (no options) or an
    options object turns it on.  Any other value, or an unknown check name,
    is a ValueError naming ``checks.<key>``.
    """
    enabled = {}
    for key, value in spec_field(data, "checks", spec_object, where, {}).items():
        if key not in _LEDGER_CHECKS:
            raise ValueError(f"{where}: unknown check 'checks.{key}' "
                             f"(expected one of {', '.join(_LEDGER_CHECKS)})")
        if value is None or value is False:
            continue
        if value is True:
            value = {}
        if not isinstance(value, dict):
            raise ValueError(f"{where}: bad value for 'checks.{key}': "
                             f"expected true, false, null or an object, got {value!r}")
        enabled[key] = value
    return enabled


def _cmd_ledger(args):
    data, where = _spec(args, spec_only=True), args.spec
    classes = []
    for i, c in enumerate(spec_field(data, "classes", spec_list(spec_object), where, [])):
        at = f"{where}: classes[{i}]"
        classes.append(cover.DiscClass(
            half_maslov=spec_field(c, "half_maslov", spec_int, at),
            divisor_hits=spec_field(c, "divisor_hits", spec_list(spec_int), at, ()),
            boundary=spec_field(c, "boundary", spec_list(spec_int), at, ()),
            area=spec_field(c, "area", spec_fraction, at, Fraction(1)),
        ))
    checks = _ledger_checks(data, where)
    at = f"{where}: checks"
    result: dict = {}
    lines: list[str] = []
    if "maslov_positive" in checks:
        hits_index = spec_field(checks["maslov_positive"], "hits_index", spec_list(spec_int),
                                f"{at}.maslov_positive", None)
        report = cover.maslov_positive(classes, hits_index)
        result["maslov_positive"] = {
            "passed": report.passed,
            "rows": [{"half_maslov": row.disc.half_maslov, "ok": row.ok,
                      "required": row.required} for row in report.rows],
        }
        lines.append(f"maslov positivity: {'PASS' if report.passed else 'FAIL'}")
        for row in report.rows:
            lines.append(f"  mu/2 = {row.disc.half_maslov}, needs >= {row.required}: "
                         f"{'ok' if row.ok else 'VIOLATED'}")
    if "monotonicity" in checks:
        lam = cover.monotonicity_check(classes)
        result["monotonicity"] = {"lambda": _frac_json(lam) if lam is not None else None,
                                  "monotone": lam is not None}
        if lam is not None:
            lines.append(f"monotone with lambda = {lam}")
        else:
            lines.append("not monotone (no single area/Maslov ratio)")
    if "riemann_hurwitz" in checks:
        opts = checks["riemann_hurwitz"]
        r = spec_field(opts, "r", lambda value: cover.cover_degree(spec_int(value)),
                       f"{at}.riemann_hurwitz")
        hits_index = spec_field(opts, "hits_index", spec_list(spec_int), f"{at}.riemann_hurwitz",
                                None)
        rows = []
        for disc in classes:
            lift = cover.riemann_hurwitz_lift(disc.half_maslov, disc.hits(hits_index), r)
            rows.append({"half_maslov_up": _frac_json(lift.value), "liftable": lift.liftable})
            lines.append(f"riemann-hurwitz r={r}: mu/2 = {disc.half_maslov}, "
                         f"hits = {disc.hits(hits_index)} -> {lift.value}"
                         f" ({'lifts' if lift.liftable else 'no integral lift'})")
        result["riemann_hurwitz"] = {"r": r, "rows": rows}
    if "connected" in checks:
        opts, at = checks["connected"], f"{at}.connected"
        flag = cover.cover_connected(
            spec_field(opts, "d_values", spec_list(spec_int), at),
            spec_field(opts, "r", lambda value: cover.cover_degree(spec_int(value)), at))
        result["connected"] = flag
        lines.append(f"pre-image connected: {'yes' if flag else 'no'}")
    return result, lines, data


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgforge",
        description="Laurent-polynomial machinery for Landau-Ginzburg potentials.")
    parser.add_argument("--version", action="version", version=f"lgforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler, spec_help="JSON file with {\"expr\": ..., \"vars\": [...]}",
               expr=True):
        p.set_defaults(handler=handler)
        if expr:
            p.add_argument("--expr", help="expression text ('-' reads stdin)")
            p.add_argument("--vars", help="comma-separated variable names")
        p.add_argument("--spec", help=spec_help)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", help="write the report here instead of stdout")

    p = sub.add_parser("eval", help="evaluate a potential at a torus point")
    common(p, _cmd_eval)
    p.add_argument("--point", required=True, help="comma-separated complex coordinates")

    p = sub.add_parser("period", help="constant terms of powers")
    common(p, _cmd_period)
    p.add_argument("-K", "--max-power", type=int, required=True)

    p = sub.add_parser("cover", help="run one cyclic cover step from a spec file")
    common(p, _cmd_cover,
           spec_help="cover spec JSON (potential, vars, functional, r, descendant)", expr=False)

    p = sub.add_parser("quotient", help="rewrite a potential on an invariant sublattice")
    common(p, _cmd_quotient)
    p.add_argument("--weights", required=True, help="character weights, comma-separated")
    p.add_argument("-r", "--modulus", type=int, required=True)
    p.add_argument("--basis", help="explicit basis columns, ';'-separated: 'a,b;c,d'")
    p.add_argument("--new-vars", help="names for the quotient coordinates")

    p = sub.add_parser("crit", help="numerical critical points and values")
    common(p, _cmd_crit)
    p.add_argument("--seed", type=int, default=0, help="seed of the random Newton starts")
    p.add_argument("--starts", type=int, default=200)

    p = sub.add_parser("mutate", help="apply a birational substitution")
    common(p, _cmd_mutate)
    p.add_argument("--sub", required=True, help="substitution JSON file")

    p = sub.add_parser("tangency", help="tangency count from power coefficients")
    common(p, _cmd_tangency, spec_help="tangency spec JSON")
    p.add_argument("-r", "--degree", type=int)
    p.add_argument("--boundary", help="boundary class, comma-separated")
    p.add_argument("--multiplicities", help="divisor multiplicities (snc mode)")
    p.add_argument("--descendant", help="descendant constant (rational)")
    p.add_argument("--smooth", action="store_true", help="smooth-divisor mode")

    p = sub.add_parser("compare", help="compare period sequences of two potentials")
    common(p, _cmd_compare)
    p.add_argument("--expr2", required=True)
    p.add_argument("-K", "--max-power", type=int, required=True)

    p = sub.add_parser("check-weak-lg", help="check a potential against a reference period")
    common(p, _cmd_check_weak_lg)
    p.add_argument("--reference", required=True, help="CSV or JSON reference file")
    p.add_argument("-K", "--max-power", type=int, required=True)
    p.add_argument("--k-min", type=int, default=2)

    p = sub.add_parser("ledger", help="disc-class checks from a JSON file")
    common(p, _cmd_ledger, spec_help="ledger JSON (classes + checks)", expr=False)

    return parser


def _emit(command: str, result: dict, lines: list[str], raw_inputs: dict, args) -> None:
    prov = _provenance(command, raw_inputs, getattr(args, "seed", 0))  # only crit has --seed
    if args.format == "json":
        payload = {"command": command, "provenance": prov, "result": result}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        footer = (f"[lgforge {prov['version']} | seed {prov['seed']} | "
                  f"input {prov['input_sha256'][:12]}]")
        text = "\n".join(lines + [footer]) + "\n"
    if args.output is not None:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in _PATH_FLAGS:
            if getattr(args, name, None) == "":
                raise ValueError(f"--{name} needs a file path, got an empty value")
        result, lines, raw_inputs = args.handler(args)
        _emit(args.command, result, lines, raw_inputs, args)
    except _USAGE_ERRORS as exc:
        print(f"lgforge: {exc}", file=sys.stderr)
        return 2
    except LGForgeError as exc:
        print(f"lgforge: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("lgforge: out of memory", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    """The process entry of ``python -m lgforge`` and the ``lgforge`` script:
    ``main`` without the cyclic garbage collector and without the limit on
    integer digits, then exit with its code.

    No command makes reference cycles; the argparse parser's few hundred
    objects are the only cyclic garbage, whatever the work.  So the
    collector's passes free nothing here and only cost time, during numpy's
    import and again at interpreter exit, which collects every tracked object
    not frozen.  Exact results, reference coefficients and expression
    literals may have any number of digits, and CPython (3.10.7+) refuses to
    convert an int of more than 4300 digits to or from text by default.
    ``main`` itself leaves both settings alone, so a program that calls it
    in-process keeps its own.
    """
    gc.disable()
    if hasattr(sys, "set_int_max_str_digits"):  # absent before 3.10.7, which has no limit
        sys.set_int_max_str_digits(0)
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
