"""Command-line front end.

Subcommands: eval, period, cover, quotient, crit, mutate, tangency, compare,
check-weak-lg, ledger.  Inputs come from --expr/--vars flags or from --spec
files (file contents win on conflict, with a warning).  Output is a text table
or stable-key-ordered JSON; for a fixed seed the JSON is byte-identical across
runs.  Exit codes: 0 success, 1 computation error, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .cover import (
    DiscClass,
    TangencyNumber,
    build_cover_potential,
    cover_connected,
    cover_spec_from_dict,
    maslov_positive,
    monotonicity_check,
    riemann_hurwitz_lift,
    tangency_number,
)
from .critical import SolverOptions, critical_points, critical_values
from .errors import ExprSyntaxError, LGForgeError, ReferenceFormatError
from .lattice import CharacterAction, Sublattice, invariant_sublattice, rewrite_in_sublattice
from .mutation import apply_substitution, check_period_invariance, substitution_from_dict
from .parsing import parse_poly
from .periods import DescendantConstant, ingest_reference, is_weak_lg, period_sequence

_USAGE_ERRORS = (ExprSyntaxError, ReferenceFormatError, FileNotFoundError,
                 json.JSONDecodeError, KeyError, ValueError)


def _frac_json(c: Fraction):
    return int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _frac_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _complex_json(z: complex) -> dict:
    return {"im": z.imag, "re": z.real}


def _complex_text(z: complex) -> str:
    return f"{z.real:.10g}{z.imag:+.10g}j"


def _split_csv(text: str) -> list[str]:
    return [cell.strip() for cell in text.split(",") if cell.strip()]


def _read_expr(value: str) -> str:
    return sys.stdin.read() if value == "-" else value


def _matrix_arg(text: str) -> list[list[int]]:
    return [[int(x) for x in _split_csv(row)] for row in text.split(";")]


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _require_spec(args) -> dict:
    if not args.spec:
        raise ValueError("--spec is required")
    return _load_json(args.spec)


def _resolve_expr_inputs(args) -> tuple[str, list[str], dict]:
    """Return (expr, vars, raw-inputs-for-hashing); --spec wins with a warning."""
    spec_data = None
    if getattr(args, "spec", None):
        spec_data = _load_json(args.spec)
        if args.expr or args.vars:
            print("warning: --spec overrides --expr/--vars", file=sys.stderr)
        expr = str(spec_data["expr"])
        varnames = [str(v) for v in spec_data["vars"]]
    else:
        if not args.expr or not args.vars:
            raise ValueError("provide --expr and --vars, or --spec")
        expr = _read_expr(args.expr)
        varnames = _split_csv(args.vars)
    return expr, varnames, {"expr": expr, "vars": varnames}


def _provenance(command: str, inputs: dict, seed: int) -> dict:
    blob = json.dumps({"command": command, "inputs": inputs}, sort_keys=True, default=str)
    return {
        "input_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "seed": seed,
        "version": __version__,
    }


# ---------------------------------------------------------------------------
# command handlers: each returns (result_dict, text_lines)
# ---------------------------------------------------------------------------

def _cmd_eval(args):
    expr, varnames, raw = _resolve_expr_inputs(args)
    point = [complex(p) for p in _split_csv(args.point)]
    raw["point"] = [str(p) for p in point]
    f = parse_poly(expr, varnames)
    value = f.evaluate(point)
    result = {"value": _complex_json(value)}
    lines = [f"f({', '.join(str(p) for p in point)}) = {_complex_text(value)}"]
    return result, lines, raw


def _cmd_period(args):
    expr, varnames, raw = _resolve_expr_inputs(args)
    raw.update({"K": args.max_power, "strategy": args.strategy})
    f = parse_poly(expr, varnames)
    seq = period_sequence(f, args.max_power, strategy=args.strategy)
    result = {"coeffs": [_frac_json(c) for c in seq.coeffs], "max_power": seq.max_power}
    lines = ["k    c_k", "-" * 24]
    lines += [f"{k:<4d} {_frac_text(c)}" for k, c in enumerate(seq.coeffs)]
    return result, lines, raw


def _cmd_cover(args):
    data = _require_spec(args)
    if args.expr or args.vars:
        print("warning: --spec overrides --expr/--vars", file=sys.stderr)
    spec, basis, qvars = cover_spec_from_dict(data)
    res = build_cover_potential(spec, basis=basis, quotient_varnames=qvars)
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
    expr, varnames, raw = _resolve_expr_inputs(args)
    weights = [int(w) for w in _split_csv(args.weights)]
    raw.update({"weights": weights, "r": args.modulus})
    f = parse_poly(expr, varnames)
    action = CharacterAction(tuple(weights), args.modulus)
    lattice = invariant_sublattice(action)
    if args.basis:
        override = Sublattice.from_columns(_matrix_arg(args.basis))
        if not lattice.same_lattice(override):
            raise ValueError("basis override does not span the invariant sublattice")
        lattice = override
        raw["basis"] = args.basis
    new_vars = _split_csv(args.new_vars) if args.new_vars else None
    g = rewrite_in_sublattice(f, lattice, varnames=new_vars)
    result = {
        "basis_columns": [list(c) for c in lattice.columns],
        "index": lattice.index,
        "quotient": g.render(),
        "quotient_vars": list(g.varnames),
    }
    lines = [
        f"basis    : columns {[tuple(c) for c in lattice.columns]} (index {lattice.index})",
        f"quotient : {result['quotient']}   in vars {', '.join(g.varnames)}",
    ]
    return result, lines, raw


def _cmd_crit(args):
    expr, varnames, raw = _resolve_expr_inputs(args)
    opts = SolverOptions(starts=args.starts, tol=args.tol, seed=args.seed,
                         max_iter=args.max_iter)
    raw.update({"starts": opts.starts, "tol": opts.tol, "max_iter": opts.max_iter})
    f = parse_poly(expr, varnames)
    search = critical_points(f, opts)
    values = critical_values(f, opts, search=search)
    result = {
        "degenerate_input": search.degenerate_input,
        "points": [
            {
                "coords": [_complex_json(z) for z in p.coords],
                "log_hessian_det": _complex_json(p.log_hessian_det),
                "nondegenerate": p.nondegenerate,
                "residual": p.residual,
                "value": _complex_json(p.value),
            }
            for p in search.points
        ],
        "values": [{"multiplicity": m, "value": _complex_json(v)} for v, m in values.values],
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
    expr, varnames, raw = _resolve_expr_inputs(args)
    sub_data = _load_json(args.sub)
    raw["substitution"] = sub_data
    f = parse_poly(expr, varnames)
    sub = substitution_from_dict(sub_data)
    image = apply_substitution(f, sub)
    result = {"image": image.render(), "vars": list(image.varnames)}
    lines = [f"image: {result['image']}"]
    return result, lines, raw


def _cmd_tangency(args):
    if args.spec:
        data = _load_json(args.spec)
        if args.expr or args.vars:
            print("warning: --spec overrides --expr/--vars", file=sys.stderr)
        expr = str(data["potential"])
        varnames = [str(v) for v in data["vars"]]
        r = int(data["r"])
        boundary = [int(b) for b in data["boundary"]]
        mults = data.get("multiplicities")
        desc = data.get("descendant")
        smooth = bool(data.get("smooth", False))
        raw = data
    else:
        if args.boundary is None:
            raise ValueError("the boundary class --boundary is required")
        expr, varnames, raw = _resolve_expr_inputs(args)
        r = args.degree
        boundary = [int(b) for b in _split_csv(args.boundary)]
        mults = [int(m) for m in _split_csv(args.multiplicities)] if args.multiplicities else None
        desc = args.descendant
        smooth = args.smooth
        raw.update({"r": r, "boundary": boundary, "multiplicities": mults,
                    "descendant": desc, "smooth": smooth})
    if r is None:
        raise ValueError("the cover degree -r is required")
    potential = parse_poly(expr, varnames)
    descendant = None
    if desc is not None:
        descendant = DescendantConstant(r, Fraction(str(desc)))
    mults_list = [int(m) for m in mults] if mults is not None else None
    tau: TangencyNumber = tangency_number(
        potential, r, boundary,
        multiplicities=mults_list, descendant=descendant, smooth=smooth)
    result = {"integral": tau.integral, "tau": _frac_json(tau.value)}
    lines = [f"tau = {_frac_text(tau.value)}"
             + ("" if tau.integral else "   WARNING: non-integral (inconsistent inputs?)")]
    return result, lines, raw


def _cmd_compare(args):
    expr, varnames, raw = _resolve_expr_inputs(args)
    expr2 = _read_expr(args.expr2)
    raw.update({"expr2": expr2, "K": args.max_power})
    f = parse_poly(expr, varnames)
    g = parse_poly(expr2, varnames)
    report = check_period_invariance(f, g, args.max_power)
    result = {
        "passed": report.passed,
        "rows": [
            {"k": row.k, "left": _frac_json(row.left), "match": row.match,
             "right": _frac_json(row.right)}
            for row in report.rows
        ],
    }
    lines = ["k    left             right            match", "-" * 48]
    lines += [f"{row.k:<4d} {_frac_text(row.left):<16} {_frac_text(row.right):<16} "
              f"{'yes' if row.match else 'NO'}" for row in report.rows]
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return result, lines, raw


def _cmd_check_weak_lg(args):
    expr, varnames, raw = _resolve_expr_inputs(args)
    reference = ingest_reference(args.reference)
    raw.update({"reference": [_frac_json(c) for c in reference.coeffs],
                "K": args.max_power, "k_min": args.k_min})
    f = parse_poly(expr, varnames)
    report = is_weak_lg(f, reference, args.max_power, k_min=args.k_min)
    result = {
        "k_min": args.k_min,
        "passed": report.passed,
        "reference_name": reference.name,
        "rows": [
            {"computed": _frac_json(row.computed), "k": row.k,
             "match": row.match, "reference": _frac_json(row.reference)}
            for row in report.rows
        ],
    }
    lines = [f"reference: {reference.name}",
             "k    computed         reference        match", "-" * 48]
    lines += [f"{row.k:<4d} {_frac_text(row.computed):<16} {_frac_text(row.reference):<16} "
              f"{'yes' if row.match else 'NO'}" for row in report.rows]
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return result, lines, raw


def _cmd_ledger(args):
    data = _require_spec(args)
    classes = [
        DiscClass(
            half_maslov=int(c["half_maslov"]),
            divisor_hits=tuple(int(h) for h in c.get("divisor_hits", ())),
            boundary=tuple(int(b) for b in c.get("boundary", ())),
            area=Fraction(str(c.get("area", 1))),
        )
        for c in data.get("classes", [])
    ]
    checks = data.get("checks", {})
    result: dict = {}
    lines: list[str] = []
    if "maslov_positive" in checks:
        opts = checks["maslov_positive"]
        hits_index = opts.get("hits_index") if isinstance(opts, dict) else None
        report = maslov_positive(classes, hits_index)
        result["maslov_positive"] = {
            "passed": report.passed,
            "rows": [{"half_maslov": row.disc.half_maslov, "ok": row.ok,
                      "required": row.required} for row in report.rows],
        }
        lines.append(f"maslov positivity: {'PASS' if report.passed else 'FAIL'}")
        for row in report.rows:
            lines.append(f"  mu/2 = {row.disc.half_maslov}, needs >= {row.required}: "
                         f"{'ok' if row.ok else 'VIOLATED'}")
    if checks.get("monotonicity"):
        lam = monotonicity_check(classes)
        result["monotonicity"] = {"lambda": _frac_json(lam) if lam is not None else None,
                                  "monotone": lam is not None}
        if lam is not None:
            lines.append(f"monotone with lambda = {_frac_text(lam)}")
        else:
            lines.append("not monotone (no single area/Maslov ratio)")
    if "riemann_hurwitz" in checks:
        opts = checks["riemann_hurwitz"]
        r = int(opts["r"])
        hits_index = opts.get("hits_index")
        rows = []
        for disc in classes:
            lift = riemann_hurwitz_lift(disc.half_maslov, disc.hits(hits_index), r)
            rows.append({"half_maslov_up": _frac_json(lift.value), "liftable": lift.liftable})
            lines.append(f"riemann-hurwitz r={r}: mu/2 = {disc.half_maslov}, "
                         f"hits = {disc.hits(hits_index)} -> {_frac_text(lift.value)}"
                         f" ({'lifts' if lift.liftable else 'no integral lift'})")
        result["riemann_hurwitz"] = {"r": r, "rows": rows}
    if "connected" in checks:
        opts = checks["connected"]
        flag = cover_connected([int(v) for v in opts["d_values"]], int(opts["r"]))
        result["connected"] = flag
        lines.append(f"pre-image connected: {'yes' if flag else 'no'}")
    return result, lines, data


_HANDLERS = {
    "eval": _cmd_eval,
    "period": _cmd_period,
    "cover": _cmd_cover,
    "quotient": _cmd_quotient,
    "crit": _cmd_crit,
    "mutate": _cmd_mutate,
    "tangency": _cmd_tangency,
    "compare": _cmd_compare,
    "check-weak-lg": _cmd_check_weak_lg,
    "ledger": _cmd_ledger,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgforge",
        description="Laurent-polynomial machinery for Landau-Ginzburg potentials.")
    parser.add_argument("--version", action="version", version=f"lgforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec_help="JSON file with {\"expr\": ..., \"vars\": [...]}"):
        p.add_argument("--expr", help="expression text ('-' reads stdin)")
        p.add_argument("--vars", help="comma-separated variable names")
        p.add_argument("--spec", help=spec_help)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("eval", help="evaluate a potential at a torus point")
    common(p)
    p.add_argument("--point", required=True, help="comma-separated complex coordinates")

    p = sub.add_parser("period", help="constant terms of powers")
    common(p)
    p.add_argument("-K", "--max-power", type=int, required=True)
    p.add_argument("--strategy", choices=("incremental", "split"), default="incremental",
                   help="accepted and validated for compatibility; has no effect, "
                        "results never depend on it")

    p = sub.add_parser("cover", help="run one cyclic cover step from a spec file")
    common(p, spec_help="cover spec JSON (potential, vars, functional, r, descendant)")

    p = sub.add_parser("quotient", help="rewrite a potential on an invariant sublattice")
    common(p)
    p.add_argument("--weights", required=True, help="character weights, comma-separated")
    p.add_argument("-r", "--modulus", type=int, required=True)
    p.add_argument("--basis", help="explicit basis columns, ';'-separated: 'a,b;c,d'")
    p.add_argument("--new-vars", help="names for the quotient coordinates")

    p = sub.add_parser("crit", help="numerical critical points and values")
    common(p)
    p.add_argument("--starts", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-11)
    p.add_argument("--max-iter", type=int, default=80)

    p = sub.add_parser("mutate", help="apply a birational substitution")
    common(p)
    p.add_argument("--sub", required=True, help="substitution JSON file")

    p = sub.add_parser("tangency", help="tangency count from power coefficients")
    common(p, spec_help="tangency spec JSON")
    p.add_argument("-r", "--degree", type=int)
    p.add_argument("--boundary", help="boundary class, comma-separated")
    p.add_argument("--multiplicities", help="divisor multiplicities (snc mode)")
    p.add_argument("--descendant", help="descendant constant (rational)")
    p.add_argument("--smooth", action="store_true", help="smooth-divisor mode")

    p = sub.add_parser("compare", help="compare period sequences of two potentials")
    common(p)
    p.add_argument("--expr2", required=True)
    p.add_argument("-K", "--max-power", type=int, required=True)

    p = sub.add_parser("check-weak-lg", help="check a potential against a reference period")
    common(p)
    p.add_argument("--reference", required=True, help="CSV or JSON reference file")
    p.add_argument("-K", "--max-power", type=int, required=True)
    p.add_argument("--k-min", type=int, default=2)

    p = sub.add_parser("ledger", help="disc-class checks from a JSON file")
    common(p, spec_help="ledger JSON (classes + checks)")

    return parser


def _emit(command: str, result: dict, lines: list[str], raw_inputs: dict, args) -> None:
    prov = _provenance(command, raw_inputs, args.seed)
    if args.format == "json":
        payload = {"command": command, "provenance": prov, "result": result}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        footer = (f"[lgforge {prov['version']} | seed {prov['seed']} | "
                  f"input {prov['input_sha256'][:12]}]")
        text = "\n".join(lines + [footer]) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        result, lines, raw_inputs = handler(args)
    except _USAGE_ERRORS as exc:
        print(f"lgforge: {exc}", file=sys.stderr)
        return 2
    except LGForgeError as exc:
        print(f"lgforge: {exc}", file=sys.stderr)
        return 1
    _emit(args.command, result, lines, raw_inputs, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
