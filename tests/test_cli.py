import argparse
import gc
import importlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from lgforge.cli import build_parser, main, run
from lgforge.critical import TOL

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "cases" / "golden_manifest.json").read_text())


def resolve(argv):
    return [str(ROOT / a) if a.startswith("cases/") else a for a in argv]


def run_cli(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


# ---------------------------------------------------------------------------
# golden outputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("entry", MANIFEST, ids=[e["name"] for e in MANIFEST])
def test_golden(entry, capsys):
    golden = (ROOT / "cases" / "golden" / f"{entry['name']}.json").read_text()
    rc, out = run_cli(resolve(entry["argv"]) + ["--format", "json"], capsys)
    assert rc == 0
    assert out == golden


@pytest.mark.parametrize("entry", [e for e in MANIFEST if e["argv"][0] == "crit"],
                         ids=lambda e: e["name"])
def test_crit_golden_floats_carry_the_ten_digits_the_text_prints(entry):
    floats = []

    def keep(text):
        floats.append(float(text))
        return floats[-1]

    json.loads((ROOT / "cases" / "golden" / f"{entry['name']}.json").read_text(), parse_float=keep)
    assert floats
    assert [x for x in floats if x != float(f"{x:.10g}")] == []


def test_same_seed_byte_identical(capsys):
    argv = ["crit", "--expr", "x + (1+y)^2/(x*y)", "--vars", "x,y",
            "--seed", "3", "--starts", "40", "--format", "json"]
    rc1, out1 = run_cli(argv, capsys)
    rc2, out2 = run_cli(argv, capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_different_seed_changes_hash(capsys):
    base = ["crit", "--expr", "x+1/x", "--vars", "x", "--starts", "20", "--format", "json"]
    _, out1 = run_cli(base + ["--seed", "1"], capsys)
    _, out2 = run_cli(base + ["--seed", "2"], capsys)
    assert json.loads(out1)["provenance"]["seed"] == 1
    assert json.loads(out2)["provenance"]["seed"] == 2


def test_crit_warns_on_stderr_when_it_finds_no_point(capsys):
    # x + 2/x + y + 3/(x*y^2) has six critical points; scaled by 10^6 none
    # passes the absolute TOL, and the empty report must not pass silently.
    # Stdout, and with it the provenance hash, is what it was without the warning.
    from lgforge import __version__

    expr = "1000000*x + 2000000/x + 1000000*y + 3000000/(x*y^2)"
    assert main(["crit", "--expr", expr, "--vars", "x,y"]) == 0
    out, err = capsys.readouterr()
    assert out == ("0 critical points\nvalues: \n"
                   f"[lgforge {__version__} | seed 0 | input e0974d855ec8]\n")
    assert err == "warning: crit found no critical point from 200 starts\n"
    for expr in ("x + 2/x + y + 3/(x*y^2)", "5"):  # points found; degenerate input
        assert main(["crit", "--expr", expr, "--vars", "x,y", "--starts", "20"]) == 0
        assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_zero_on_success(capsys):
    rc, out = run_cli(["period", "--expr", "x+1/x", "--vars", "x", "-K", "4"], capsys)
    assert rc == 0
    assert "c_k" in out


def test_exit_one_on_not_laurent(tmp_path, capsys):
    sub = tmp_path / "sub.json"
    sub.write_text('{"vars": ["x", "y"], "images": ["x/(1+y)", "y"]}')
    rc, _ = run_cli(["mutate", "--expr", "x+y", "--vars", "x,y", "--sub", str(sub)], capsys)
    assert rc == 1


def test_exit_two_on_syntax_error(capsys):
    rc, _ = run_cli(["period", "--expr", "x + * y", "--vars", "x,y", "-K", "3"], capsys)
    assert rc == 2


def test_exit_two_on_unknown_variable(capsys):
    rc, _ = run_cli(["period", "--expr", "x + q", "--vars", "x,y", "-K", "3"], capsys)
    assert rc == 2


def test_exit_two_on_missing_file(capsys):
    rc, _ = run_cli(["cover", "--spec", "no_such_file.json"], capsys)
    assert rc == 2


def test_exit_two_on_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["period", "--expr", "x", "--vars", "x"])  # missing -K
    assert err.value.code == 2


def test_exit_one_on_inconsistent_character(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({
        "potential": "x + 1/x",
        "vars": ["x"],
        "functional": {"linear": ["0"], "constant": "1"},
        "r": 3,
        "descendant": "0",
    }))
    rc, _ = run_cli(["cover", "--spec", str(spec)], capsys)
    assert rc == 1


# ---------------------------------------------------------------------------
# input plumbing
# ---------------------------------------------------------------------------

def test_spec_file_wins_with_warning(tmp_path, capsys):
    spec = tmp_path / "in.json"
    spec.write_text('{"expr": "x + 1/x", "vars": ["x"]}')
    rc = main(["period", "--expr", "x", "--vars", "x", "--spec", str(spec), "-K", "2"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "overrides" in captured.err
    assert "2" in captured.out  # c_2 of x + 1/x


def test_spec_override_warning_names_each_flag(capsys):
    spec = ["tangency", "--spec", str(ROOT / "cases" / "tangency_toric.json")]
    assert main(spec) == 0
    alone = capsys.readouterr()
    assert alone.err == ""
    assert main(spec + ["--boundary", "5,5", "-r", "0", "--descendant", "3", "--smooth"]) == 0
    overridden = capsys.readouterr()
    assert overridden.out == alone.out
    assert overridden.err == "warning: --spec overrides -r, --boundary, --descendant, --smooth\n"
    # an empty value is still a given flag
    assert main(["quotient", "--spec", str(ROOT / "cases" / "f2_upstairs.json"),
                 "--weights", "1,1", "-r", "2", "--expr", ""]) == 0
    assert capsys.readouterr().err == "warning: --spec overrides --expr\n"


@pytest.mark.parametrize("argv", [
    ["cover", "--spec", ""],
    ["period", "--spec", "", "--expr", "x+1/x", "--vars", "x", "-K", "2"],
    ["period", "--expr", "x+1/x", "--vars", "x", "-K", "2", "--output", ""],
    ["check-weak-lg", "--expr", "x", "--vars", "x", "-K", "2", "--reference", ""],
    ["mutate", "--expr", "x", "--vars", "x", "--sub", ""],
], ids=["cover-spec", "period-spec", "output", "reference", "sub"])
def test_empty_path_flag_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    flag = argv[argv.index("") - 1]
    assert captured.out == ""
    assert captured.err == f"lgforge: {flag} needs a file path, got an empty value\n"


def test_expr2_syntax_error_names_the_flag(capsys):
    assert main(["compare", "--expr", "x", "--vars", "x", "--expr2", "", "-K", "2"]) == 2
    assert capsys.readouterr().err == (
        "lgforge: --expr2: unexpected end of input (at position 0)\n")


def test_expr_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("x + y + 1/(x*y)"))
    rc, out = run_cli(["period", "--expr", "-", "--vars", "x,y", "-K", "3"], capsys)
    assert rc == 0
    assert out.splitlines()[-2].split() == ["3", "6"]


def test_text_report_carries_provenance_footer(capsys):
    rc, out = run_cli(["period", "--expr", "x+1/x", "--vars", "x", "-K", "2"], capsys)
    assert rc == 0
    footer = out.splitlines()[-1]
    assert footer.startswith("[lgforge ") and "seed 0" in footer and "input " in footer


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc = main(["eval", "--expr", "x+y", "--vars", "x,y", "--point", "2,3",
               "--format", "json", "--output", str(target)])
    assert rc == 0
    data = json.loads(target.read_text())
    assert data["result"]["value"]["re"] == 5.0


def test_complex_point_evaluation(capsys):
    rc, out = run_cli(["eval", "--expr", "x^2", "--vars", "x", "--point", "1j",
                       "--format", "json"], capsys)
    assert rc == 0
    assert json.loads(out)["result"]["value"]["re"] == -1.0


def test_tangency_flag_mode_hash_is_pinned(capsys):
    # No golden covers the flag form of tangency; its provenance hash must not drift.
    rc, out = run_cli(["tangency", "--expr", "z1+z2+1/(z1*z2)", "--vars", "z1,z2", "-r", "3",
                       "--boundary", "1,2", "--multiplicities", "0,1,2", "--format", "json"],
                      capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["result"] == {"integral": True, "tau": 1}
    assert data["provenance"]["input_sha256"] == (
        "b43f9a975e0a8ba24b2885e81763971ec0078409e146aaec2da3e7d3bfe2a4b1")


def input_hash(argv, capsys) -> str:
    rc, out = run_cli(resolve(argv) + ["--format", "json"], capsys)
    assert rc == 0
    return json.loads(out)["provenance"]["input_sha256"]


QUOTIENT_F2 = ["quotient", "--spec", "cases/f2_upstairs.json", "--weights", "1,1", "-r", "2",
               "--basis=-1,-1;2,0"]


def test_quotient_hash_covers_the_new_variable_names(capsys):
    uv = input_hash(QUOTIENT_F2 + ["--new-vars", "u,v"], capsys)
    vu = input_hash(QUOTIENT_F2 + ["--new-vars", "v,u"], capsys)
    plain = input_hash(QUOTIENT_F2, capsys)
    assert len({uv, vu, plain}) == 3
    # without --new-vars the hashed inputs, and so the hash, are as before
    assert plain == "e9177f2e64bea7d0b6da468dadcf736a3bee42816540ac314ebdb8a03a445bc6"


def test_weak_lg_hash_covers_the_reference_name(tmp_path, capsys):
    renamed = tmp_path / "renamed.json"
    renamed.write_text(json.dumps(
        dict(json.loads((ROOT / "cases" / "p2_reference.json").read_text()), name="renamed")))
    argv = ["check-weak-lg", "--expr", "x+y+1/(x*y)", "--vars", "x,y", "-K", "9",
            "--k-min", "1", "--reference"]
    assert (input_hash(argv + ["cases/p2_reference.json"], capsys)
            != input_hash(argv + [str(renamed)], capsys))


def test_ledger_check_off_values_skip_the_check(tmp_path, capsys):
    spec = tmp_path / "ledger.json"
    spec.write_text(json.dumps({
        "classes": [{"half_maslov": 1, "divisor_hits": [1], "area": "1/2"}],
        "checks": {"maslov_positive": False, "connected": None, "riemann_hurwitz": False,
                   "monotonicity": True},
    }))
    rc, out = run_cli(["ledger", "--spec", str(spec), "--format", "json"], capsys)
    assert rc == 0
    assert json.loads(out)["result"] == {"monotonicity": {"lambda": "1/2", "monotone": True}}


# ---------------------------------------------------------------------------
# the option surface
# ---------------------------------------------------------------------------

INPUT_OPTIONS = ["--expr", "--vars", "--spec", "--format", "--output"]
SPEC_ONLY_OPTIONS = ["--spec", "--format", "--output"]
OPTIONS = {
    "eval": INPUT_OPTIONS + ["--point"],
    "period": INPUT_OPTIONS + ["--max-power"],
    "cover": SPEC_ONLY_OPTIONS,
    "quotient": INPUT_OPTIONS + ["--weights", "--modulus", "--basis", "--new-vars"],
    "crit": INPUT_OPTIONS + ["--seed", "--starts"],
    "mutate": INPUT_OPTIONS + ["--sub"],
    "tangency": INPUT_OPTIONS + ["--degree", "--boundary", "--multiplicities", "--descendant",
                                 "--smooth"],
    "compare": INPUT_OPTIONS + ["--expr2", "--max-power"],
    "check-weak-lg": INPUT_OPTIONS + ["--reference", "--max-power", "--k-min"],
    "ledger": SPEC_ONLY_OPTIONS,
}


def test_option_set_of_each_subcommand():
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    seen = {name: [a.option_strings[-1] for a in p._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)]
            for name, p in subparsers.choices.items()}
    assert seen == OPTIONS
    assert sum(map(len, seen.values())) == 65


def readme_commands() -> list[str]:
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("line", readme_commands(), ids=lambda line: line.split()[1])
def test_readme_command_line_examples_run(line, monkeypatch, capsys):
    # punctuation_chars splits off ';', '&' and '|' as a shell would, so an
    # unquoted control character leaves a stray token that argparse rejects
    lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    argv = list(lexer)
    assert argv[0] == "lgforge"
    monkeypatch.chdir(ROOT)
    try:
        code = main(argv[1:])
    except SystemExit as exc:  # argparse
        code = exc.code
    assert code == 0, capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0


# BLAS thread counts that numpy's BLAS reads at import; every child below runs
# without them, as a user who never set one would.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "MKL_NUM_THREADS")


def child_env(**extra):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def run_child(args, env):
    """A fresh interpreter in the repo root; stdout and stderr as bytes."""
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, timeout=60)


@pytest.mark.parametrize("entry", [e for e in MANIFEST if e["argv"][0] == "crit"],
                         ids=lambda e: e["name"])
def test_crit_golden_in_a_fresh_process(entry):
    # test_golden runs in-process, after pytest has loaded numpy with its
    # default BLAS pool; here crit loads numpy itself, with one BLAS thread
    golden = (ROOT / "cases" / "golden" / f"{entry['name']}.json").read_bytes()
    proc = run_child(["-m", "lgforge", *entry["argv"], "--format", "json"], child_env())
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == golden


@pytest.mark.parametrize("expr, vars_, starts", [
    ("x^1000+x^-1000", "x", 5),
    ("x^300*y^-300+y^200+1/x", "x,y", 40),
])
def test_crit_stderr_has_no_numpy_warnings(expr, vars_, starts):
    # starts overflow; numpy's RuntimeWarnings about the dropped rows must not
    # reach the user, only crit's own warning when no start found a point
    proc = run_child(["-m", "lgforge", "crit", "--expr", expr, "--vars", vars_,
                      "--starts", str(starts), "--format", "json"], child_env())
    assert proc.returncode == 0, proc.stderr.decode()
    points = json.loads(proc.stdout)["result"]["points"]
    assert all(p["residual"] < TOL for p in points)
    warning = f"warning: crit found no critical point from {starts} starts\n".encode()
    assert proc.stderr == (b"" if points else warning)


# Runs in a fresh interpreter: every non-crit golden command, then one small
# crit search, through lgforge.cli.main; prints the exit codes, whether numpy
# was loaded after each stage, which of dataclasses, inspect and _hashlib
# (OpenSSL's libcrypto; each import once cost every command's start-up) the
# exact commands loaded, whether crit left os.environ as it found it, the
# OPENBLAS_NUM_THREADS it left, and the process's thread count afterwards
# (Linux only; null elsewhere).
NUMPY_PROBE = """
import contextlib, io, json, os, sys
from pathlib import Path
from lgforge.cli import build_parser, main

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)

manifest = json.loads(Path("cases/golden_manifest.json").read_text())
codes = [run(e["argv"]) for e in manifest if e["argv"][0] != "crit"]
exact = "numpy" in sys.modules
stdlib = [name for name in ("dataclasses", "inspect", "_hashlib") if name in sys.modules]
before = dict(os.environ)
codes.append(run(["crit", "--expr", "x + 1/x", "--vars", "x", "--starts", "2"]))
linux = sys.platform.startswith("linux")
print(json.dumps({"codes": codes, "exact": exact, "stdlib": stdlib,
                  "crit": "numpy" in sys.modules,
                  "environ_kept": dict(os.environ) == before,
                  "openblas": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "threads": len(os.listdir("/proc/self/task")) if linux else None}))
"""


def run_numpy_probe(env):
    proc = run_child(["-c", NUMPY_PROBE], env)
    assert proc.returncode == 0, proc.stderr.decode()
    seen = json.loads(proc.stdout)
    assert seen["codes"] == [0] * (sum(e["argv"][0] != "crit" for e in MANIFEST) + 1)
    assert not seen["exact"], "a command other than crit imported numpy"
    assert seen["stdlib"] == [], f"the exact commands imported {seen['stdlib']}"
    assert seen["crit"]
    assert seen["environ_kept"], "crit left os.environ changed"
    return seen


def test_only_crit_imports_numpy():
    seen = run_numpy_probe(child_env())
    if seen["threads"] is not None:
        assert seen["threads"] == 1, "crit loaded numpy with a BLAS thread pool"


def test_crit_keeps_a_blas_thread_count_the_user_set():
    env = child_env(OPENBLAS_NUM_THREADS="2")
    seen = run_numpy_probe(env)
    assert seen["openblas"] == "2"
    if seen["threads"] is None:
        pytest.skip("thread counts are read from /proc/self/task, on Linux only")
    # OpenBLAS caps the count at the number of CPUs, so compare with the
    # count a bare import gets under the same environment
    bare = run_child(["-c", "import os, numpy; print(len(os.listdir('/proc/self/task')))"], env)
    assert bare.returncode == 0, bare.stderr.decode()
    assert seen["threads"] == int(bare.stdout)


# Collects in `ran` the name of every lgforge module whose body runs.  The
# audit hook sees each module body, also one that importlib.util.LazyLoader
# runs on first use, which -X importtime does not list.
RAN_HOOK = """
import json, sys
from pathlib import Path

ran = set()

def hook(event, args):
    if event == "exec" and getattr(args[0], "co_name", None) == "<module>":
        path = Path(args[0].co_filename)
        if path.parent.name == "lgforge":
            ran.add(path.stem)

sys.addaudithook(hook)
"""

# Runs, in a fresh interpreter, every golden-manifest command of one
# subcommand (argv[1]) through lgforge.cli.main and prints the exit codes and
# the lgforge modules whose body ran.
LAYER_PROBE = RAN_HOOK + """
import contextlib, io
from lgforge.cli import main

manifest = json.loads(Path("cases/golden_manifest.json").read_text())
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(e["argv"]) for e in manifest if e["argv"][0] == sys.argv[1]]
print(json.dumps({"codes": codes, "ran": sorted(ran)}))
"""

# What every command runs, then the layers each subcommand adds.
EAGER_MODULES = {"__init__", "cli", "errors", "parsing", "laurent", "_record", "periods",
                 "mutation"}
COMMAND_LAYERS = {
    "eval": set(),
    "period": set(),
    "check-weak-lg": set(),
    "crit": {"critical"},
    "quotient": {"lattice"},
    "mutate": set(),
    "compare": set(),
    "cover": {"cover", "lattice"},
    "tangency": {"cover", "lattice"},
    "ledger": {"cover", "lattice"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_LAYERS))
def test_each_command_runs_only_its_layers(command):
    assert set(COMMAND_LAYERS) == {e["argv"][0] for e in MANIFEST}
    proc = run_child(["-c", LAYER_PROBE, command], child_env())
    assert proc.returncode == 0, proc.stderr.decode()
    seen = json.loads(proc.stdout)
    assert seen["codes"] and set(seen["codes"]) == {0}
    assert set(seen["ran"]) == EAGER_MODULES | COMMAND_LAYERS[command]


# The names lgforge exports, by the layer that defines them.
API = {
    "cover": "CoverResult CoverSpec DiscClass DivisorFunctional MaslovReport RHLift "
             "TangencyNumber build_cover_potential cover_connected cover_spec_from_dict "
             "derive_action maslov_positive monotonicity_check riemann_hurwitz_lift "
             "split_potential tangency_number",
    "critical": "CriticalPoint CriticalSearch CriticalValueSet SolverOptions critical_points "
                "critical_values log_gradient",
    "errors": "CharacterSolveError DiscLedgerError ExprSyntaxError FloatRangeError "
              "InvalidFunctionalError LGForgeError MultiplicityError NotInSublatticeError "
              "NotLaurentError RankMismatchError ReferenceFormatError SequenceRangeError "
              "UnknownVariableError ZeroCoordinateError ZeroDenominatorError",
    "lattice": "CharacterAction Sublattice invariant_sublattice rewrite_in_sublattice "
               "solve_character",
    "laurent": "Exponent LaurentPoly RationalExpr divide_exact laurent_normalize",
    "mutation": "Substitution apply_substitution check_period_invariance substitution_from_dict",
    "parsing": "parse parse_poly",
    "periods": "ComparisonReport PeriodSequence ingest_reference is_weak_lg period_sequence "
               "power_coefficient",
}

# Runs in a fresh interpreter with the API table as argv[1]: which lgforge
# module bodies `import lgforge` runs, which of the benchmark tracer's layers
# are missing from sys.modules after `import lgforge.cli`, the names
# `from lgforge import *` binds, those not bound to their layer's object,
# dir(lgforge), a call through lgforge.potentials, and the error for an
# unknown name.
API_PROBE = RAN_HOOK + """
import lgforge
package_ran = sorted(ran)
import lgforge.cli
sys.path.insert(0, "perfbench")
from tracer import LAYERS
unloaded = [name for name in LAYERS if f"lgforge.{name}" not in sys.modules]
star = {}
exec("from lgforge import *", star)
del star["__builtins__"]
wrong = [name for layer, names in json.loads(sys.argv[1]).items() for name in names.split()
         if star.get(name) is not getattr(getattr(lgforge, layer), name)]
try:
    lgforge.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"package_ran": package_ran, "unloaded": unloaded, "star": sorted(star),
                  "wrong": wrong, "dir": dir(lgforge),
                  "potential": lgforge.potentials.projective_space(2).render(),
                  "unknown": unknown}))
"""


def test_package_api_and_the_tracer_layers():
    proc = run_child(["-c", API_PROBE, json.dumps(API)], child_env())
    assert proc.returncode == 0, proc.stderr.decode()
    seen = json.loads(proc.stdout)
    names = sorted(name for names in API.values() for name in names.split())
    assert len(names) == 60
    assert seen["package_ran"] == ["__init__"]
    assert seen["unloaded"] == []
    assert seen["star"] == names
    assert seen["wrong"] == []
    assert set(names) <= set(seen["dir"])
    assert seen["potential"] == "z1 + z2 + z1^-1*z2^-1"
    assert seen["unknown"] == "module 'lgforge' has no attribute 'no_such_name'"


@pytest.fixture(scope="module")
def crit_child_imports() -> set[str]:
    """Every module a `crit` child imports: -X importtime lists them on stderr."""
    proc = run_child(["-X", "importtime", "-m", "lgforge", "crit", "--expr", "x + 1/x",
                      "--vars", "x", "--starts", "2"], child_env())
    assert proc.returncode == 0, proc.stderr.decode()
    loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.decode().splitlines()
              if line.startswith("import time:")}
    assert "numpy" in loaded
    return loaded


def test_crit_child_does_not_load_numpy_random(crit_child_imports):
    assert not {m for m in crit_child_imports
                if m == "numpy.random" or m.startswith("numpy.random.")}


def test_crit_child_does_not_load_openssl(crit_child_imports):
    # numpy does not load _hashlib either, so no child of any command does
    assert "_hashlib" not in crit_child_imports


# Runs `python -m lgforge` with lgforge.cli.main replaced by a stub that
# prints whether the collector is on and returns 3; prints at exit whether
# any object was frozen.
ENTRY_PROBE = """
import atexit, gc, runpy
import lgforge.cli as cli

def stub():
    print("collector on:", gc.isenabled())
    return 3

cli.main = stub
atexit.register(lambda: print("frozen:", gc.get_freeze_count() > 0))
runpy.run_module("lgforge", run_name="__main__")
"""


def test_both_process_entries_run_without_the_collector():
    proc = run_child(["-c", ENTRY_PROBE], child_env())
    assert proc.returncode == 3, proc.stderr.decode()
    assert proc.stdout == b"collector on: False\nfrozen: True\n"
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, name = scripts["lgforge"].partition(":")
    assert getattr(importlib.import_module(module), name) is run


def test_main_leaves_the_collector_alone(capsys):
    frozen = gc.get_freeze_count()
    assert run_cli(["period", "--expr", "x+1/x", "--vars", "x", "-K", "4"], capsys)[0] == 0
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen


# Runs every golden-manifest command, then a deep period and a 2,000-start
# crit, through lgforge.cli.main with the collector off, and prints how many
# unreachable objects gc.collect() finds after each, next to the count that
# building the argparse parser alone leaves.  numpy is imported first: its
# import leaves a fixed few hundred once, whatever the command does after.
CYCLE_PROBE = """
import contextlib, gc, io, json, sys
from pathlib import Path
import numpy
from lgforge.cli import build_parser, main

extra = [["period", "--expr", "x+y+1/(x*y)", "--vars", "x,y", "-K", "120"],
         ["crit", "--expr", "x+y+1/(x*y)", "--vars", "x,y", "--starts", "2000"]]
argvs = [e["argv"] for e in json.loads(Path("cases/golden_manifest.json").read_text())] + extra
gc.disable()
gc.collect()
build_parser()
found = {"parser": gc.collect()}
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    found[" ".join(argv)] = [code, gc.collect()]
print(json.dumps(found))
"""


def test_commands_make_no_reference_cycles():
    # so running the CLI without the cyclic collector leaves nothing uncollected
    proc = run_child(["-c", CYCLE_PROBE], child_env())
    assert proc.returncode == 0, proc.stderr.decode()
    found = json.loads(proc.stdout)
    parser = found.pop("parser")
    assert parser > 0
    assert len(found) == len(MANIFEST) + 2
    assert {cmd: code for cmd, (code, _) in found.items() if code} == {}
    assert {cmd: n for cmd, (_, n) in found.items() if n > parser} == {}


def test_a_reference_too_large_for_memory_is_an_error_not_a_traceback(tmp_path):
    # one row at k = 10^9 asks for a list of 10^9 coefficients; under a 512 MB
    # address-space limit, set in the child only, that allocation fails at once
    pytest.importorskip("resource")
    ref = tmp_path / "ref.csv"
    ref.write_text("k,coeff\n1000000000,1\n")
    limit = "import resource; resource.setrlimit(resource.RLIMIT_AS, (2 ** 29, 2 ** 29))"
    proc = run_child(["-c", f"{limit}\nfrom lgforge.cli import run\nrun()",
                      "check-weak-lg", "--expr", "x+1/x", "--vars", "x", "-K", "2",
                      "--reference", str(ref)], child_env())
    assert (proc.returncode, proc.stderr) == (1, b"lgforge: out of memory\n")


def test_a_cover_of_degree_ten_to_the_twelve_solves_its_character(tmp_path):
    # the character is read off one Hermite form, in time that does not grow with r
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({
        "potential": "1/x + y",
        "vars": ["x", "y"],
        "functional": {"linear": ["-1", "0"], "constant": "0"},
        "r": 10 ** 12,
        "descendant": "0",
    }))
    proc = run_child(["-m", "lgforge", "cover", "--spec", str(spec)], child_env())
    assert proc.returncode == 0, proc.stderr
    assert b"weights (999999999999, 0) mod 1000000000000" in proc.stdout


# Runs every non-crit golden command through lgforge.cli.main in a fresh
# interpreter where neither builtin SHA-256 module (_sha2 from 3.12, _sha256
# before) can be imported, so cli falls back to hashlib; prints each report
# with its exit code, and whether OpenSSL's _hashlib was loaded.
FALLBACK_PROBE = """
import contextlib, io, json, sys
from pathlib import Path
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from lgforge.cli import main

reports = {}
for e in json.loads(Path("cases/golden_manifest.json").read_text()):
    if e["argv"][0] != "crit":
        with contextlib.redirect_stdout(io.StringIO()) as out:
            reports[e["name"]] = [main(e["argv"] + ["--format", "json"]), out.getvalue()]
print(json.dumps({"hashlib": "_hashlib" in sys.modules, "reports": reports}))
"""


def test_exact_goldens_hash_the_same_through_the_hashlib_fallback():
    proc = run_child(["-c", FALLBACK_PROBE], child_env())
    assert proc.returncode == 0, proc.stderr.decode()
    seen = json.loads(proc.stdout)
    assert seen["hashlib"], "the fallback did not load hashlib's OpenSSL digest"
    want = {e["name"]: [0, (ROOT / "cases" / "golden" / f"{e['name']}.json").read_text()]
            for e in MANIFEST if e["argv"][0] != "crit"}
    assert seen["reports"] == want


def child_result(args) -> dict:
    """The JSON result of `python -m lgforge <args>`, its integers kept as
    digit strings, so this process needs no limit lifted to read them."""
    proc = run_child(["-m", "lgforge", *args, "--format", "json"], child_env())
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout, parse_int=str)["result"]


# CPython refuses by default to convert an int of more than 4300 digits to or
# from text; the process entry lifts that limit
def test_a_result_of_more_than_4300_digits_prints():
    result = child_result(["period", "--expr", "10^2200*x+10^2200/x", "--vars", "x", "-K", "2"])
    assert result["coeffs"] == ["1", "0", "2" + "0" * 4400]


def test_an_expression_literal_of_5000_digits_parses():
    literal = "1" * 5000
    result = child_result(["period", "--expr", f"{literal}*x + 1/x", "--vars", "x", "-K", "2"])
    assert result["coeffs"] == ["1", "0", "2" * 5000]


def test_a_reference_coefficient_of_5000_digits_reads(tmp_path):
    ref = tmp_path / "ref.csv"
    digits = "1" + "0" * 4999
    ref.write_text(f"k,coeff\n0,1\n1,0\n2,{digits}\n")
    result = child_result(["check-weak-lg", "--expr", "5*10^4998*x + 1/x", "--vars", "x",
                           "-K", "2", "--reference", str(ref)])
    assert result["rows"] == [{"computed": digits, "k": "2", "match": True, "reference": digits}]
    assert result["passed"]


def test_main_keeps_the_callers_digit_limit(capsys):
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        pytest.skip("this Python has no limit on integer digits")
    limit = get_limit()
    assert run_cli(["period", "--expr", "x+1/x", "--vars", "x", "-K", "4"], capsys)[0] == 0
    assert get_limit() == limit
