"""Usage errors on the command line end in exit code 2 (or 1 for a
computation error) with a one-line message, never a Python traceback.

Each case runs ``python -m lgforge`` in a child process, so an uncaught
exception would show on stderr exactly as a user sees it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_lgforge(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "lgforge", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("command", ["cover", "ledger"])
def test_missing_spec_is_a_usage_error(command):
    proc = run_lgforge(command)
    assert proc.returncode == 2
    assert "--spec is required" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_tangency_without_boundary_is_a_usage_error():
    proc = run_lgforge("tangency", "--expr", "x + y + 1/(x*y)", "--vars", "x,y",
                       "-r", "3", "--smooth")
    assert proc.returncode == 2
    assert "--boundary" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("mults", [None, [1, -1, 3], [1, 1, 2]],
                         ids=["missing", "negative", "wrong-sum"])
def test_tangency_bad_multiplicities_from_spec(tmp_path, mults):
    spec = {"potential": "z1 + z2 + 1/(z1*z2)", "vars": ["z1", "z2"],
            "r": 3, "boundary": [1, 2], "smooth": False}
    if mults is not None:
        spec["multiplicities"] = mults
    path = tmp_path / "tangency.json"
    path.write_text(json.dumps(spec))
    proc = run_lgforge("tangency", "--spec", str(path))
    assert proc.returncode == 1
    assert "multiplicities" in proc.stderr
    assert "Traceback" not in proc.stderr


TANGENCY = {"potential": "z1 + z2 + 1/(z1*z2)", "vars": ["z1", "z2"], "r": 3,
            "boundary": [1, 2], "multiplicities": [0, 1, 2]}
COVER = {"potential": "x + 1/x", "vars": ["x"], "r": 2, "descendant": "2",
         "functional": {"linear": ["0"], "constant": "1"}}
CLASS = {"half_maslov": 1, "divisor_hits": [1]}
EXPR = ["--expr", "x + 1/x", "--vars", "x"]
EXPR2 = ["--expr", "z1 + z2 + 1/(z1*z2)", "--vars", "z1,z2"]


class FileText(str):
    """File contents given as text, for JSON that json.dumps cannot write
    because it nests too deeply."""

    suffix = ".json"


class CsvText(FileText):
    """File contents given as text, written to a ``.csv`` file."""

    suffix = ".csv"


class FileBytes(bytes):
    """File contents given as raw bytes, written to a ``.json`` file."""

    suffix = ".json"


NESTED = FileText("[" * 100_000 + "]" * 100_000)
NOT_UTF8 = FileBytes(b"\xff\xfe")  # a UTF-16 byte-order mark

# (id, argv, exit code, strings the message must contain).  A dict, list,
# FileText or FileBytes in argv is written to a file named input<i> plus its
# suffix (.json for a dict or list), whose path takes its place; "{tmp}" is
# the test's temporary directory.
MALFORMED = [
    ("period-vars-not-list", ["period", "--spec", {"expr": "x + 1/x", "vars": 5}, "-K", "3"],
     2, ["'vars'", "expected a list"]),
    ("spec-is-array", ["period", "--spec", [1, 2], "-K", "3"], 2, ["JSON object"]),
    ("spec-is-directory", ["period", "--spec", "{tmp}", "-K", "3"], 2, ["{tmp}"]),
    ("tangency-boundary-not-list", ["tangency", "--spec", dict(TANGENCY, boundary=7)],
     2, ["'boundary'", "expected a list"]),
    ("tangency-descendant-zero-denominator", [
        "tangency", *EXPR, "-r", "2", "--boundary", "0", "--smooth", "--descendant", "1/0"],
     2, ["--descendant"]),
    ("ledger-classes-not-list", ["ledger", "--spec", {"classes": 3}], 2, ["'classes'"]),
    ("ledger-class-without-half-maslov", ["ledger", "--spec", {"classes": [{"area": 1}]}],
     2, ["classes[0]", "missing key 'half_maslov'"]),
    ("ledger-maslov-hits-index", ["ledger", "--spec", {
        "classes": [CLASS], "checks": {"maslov_positive": {"hits_index": [5]}}}],
     1, ["hits_index", "5"]),
    ("ledger-riemann-hurwitz-hits-index", ["ledger", "--spec", {
        "classes": [CLASS], "checks": {"riemann_hurwitz": {"r": 2, "hits_index": [5]}}}],
     1, ["hits_index", "5"]),
    ("ledger-riemann-hurwitz-without-r", ["ledger", "--spec", {
        "classes": [CLASS], "checks": {"riemann_hurwitz": {}}}],
     2, ["checks.riemann_hurwitz", "missing key 'r'"]),
    ("sub-vars-not-list", ["mutate", *EXPR, "--sub", {"vars": 3, "images": ["x"]}],
     2, ["'vars'", "expected a list"]),
    ("sub-images-not-list", ["mutate", *EXPR, "--sub", {"vars": ["x"], "images": "x"}],
     2, ["'images'", "expected a list"]),
    ("cover-functional-without-constant", ["cover", "--spec", dict(
        COVER, functional={"linear": ["0"]})], 2, ["functional", "missing key 'constant'"]),
    ("cover-functional-linear-malformed", ["cover", "--spec", dict(
        COVER, functional={"linear": 0, "constant": "1"})], 2, ["functional", "'linear'"]),
    ("crit-starts", ["crit", *EXPR, "--starts", "-3"], 2, ["--starts"]),
    ("crit-seed-negative", ["crit", *EXPR, "--starts", "3", "--seed", "-1"],
     2, ["--seed must be nonnegative, got -1"]),
    ("reference-coeffs-not-list", ["check-weak-lg", *EXPR, "-K", "2", "--reference",
                                   {"coeffs": 5}], 2, ["'coeffs'"]),
    ("output-in-missing-directory", ["period", *EXPR, "-K", "2", "--output",
                                     "{tmp}/missing/report.txt"], 2, ["{tmp}/missing"]),
    ("spec-nested-deeply", ["period", "--spec", NESTED, "-K", "3"],
     2, ["{tmp}/input2.json", "nested too deeply"]),
    ("sub-nested-deeply", ["mutate", *EXPR, "--sub", NESTED],
     2, ["{tmp}/input6.json", "nested too deeply"]),
    ("reference-nested-deeply", ["check-weak-lg", *EXPR, "-K", "2", "--reference", NESTED],
     2, ["{tmp}/input8.json", "nested too deeply"]),
    ("spec-json-malformed", ["tangency", "--spec", FileText("{")],
     2, ["{tmp}/input2.json", "line 1 column 2"]),
    ("sub-json-malformed", ["mutate", *EXPR, "--sub", FileText('{"vars": ["x"],}')],
     2, ["{tmp}/input6.json", "line 1 column 16"]),
    ("reference-json-malformed", ["check-weak-lg", *EXPR, "-K", "2", "--reference",
                                  FileText('{"coeffs": [[0, "1"]')],
     2, ["{tmp}/input8.json", "line 1 column 21"]),
    ("quotient-r-zero", ["quotient", *EXPR2, "--weights", "1,1", "-r", "0"],
     2, ["-r must be at least 1, got 0"]),
    ("tangency-r-negative", ["tangency", *EXPR, "-r", "-1", "--boundary", "0", "--smooth"],
     2, ["-r must be nonnegative, got -1"]),
    ("tangency-spec-r-negative", ["tangency", "--spec", dict(TANGENCY, r=-1)],
     2, ["{tmp}/input2.json", "'r'", "got -1"]),
    ("expr-nested-deeply", ["period", "--expr", "(" * 3000 + "x" + ")" * 3000, "--vars", "x",
                            "-K", "2"], 2, ["expression nested too deeply"]),
    ("quotient-weights", ["quotient", *EXPR2, "--weights", "1,a", "-r", "2"],
     2, ["--weights", "'a'"]),
    ("quotient-basis", ["quotient", *EXPR2, "--weights", "1,1", "-r", "2", "--basis", "1,1;0,b"],
     2, ["--basis", "'b'"]),
    ("eval-point", ["eval", *EXPR, "--point", "1+"], 2, ["--point"]),
    ("tangency-boundary", ["tangency", *EXPR, "-r", "2", "--boundary", "q", "--smooth"],
     2, ["--boundary", "'q'"]),
    ("tangency-multiplicities", ["tangency", *EXPR2, "-r", "3", "--boundary", "1,2",
                                 "--multiplicities", "0,1.5"], 2, ["--multiplicities", "'1.5'"]),
    ("quotient-basis-ragged", ["quotient", *EXPR2, "--weights", "1,1", "-r", "2",
                               "--basis", "1,1;1"], 2, ["--basis", "independent columns"]),
    ("quotient-basis-three-columns", ["quotient", *EXPR2, "--weights", "1,1", "-r", "2",
                                      "--basis", "1,1;1,-1;2,0"], 2, ["--basis"]),
    ("quotient-basis-wrong-dimension", ["quotient", *EXPR2, "--weights", "1,1", "-r", "1",
                                        "--basis", "1,0,0;0,1,0;0,0,1"],
     2, ["--basis", "do not span"]),
    ("cover-basis-ragged", ["cover", "--spec", dict(COVER, basis=[[1, 1], [1]])],
     2, ["cover spec", "'basis'"]),
    ("cover-basis-dimension", ["cover", "--spec", dict(COVER, basis=[[1, 0], [0, 1]])],
     2, ["cover spec", "'basis'", "expected 1 values"]),
    ("cover-basis-not-spanning", ["cover", "--spec", dict(COVER, basis=[[1]])],
     2, ["cover spec", "'basis'", "do not span"]),
    ("cover-basis-dependent", ["cover", "--spec", dict(COVER, basis=[[0]])],
     2, ["cover spec", "'basis'", "linearly dependent"]),
    ("sub-vars-count", ["mutate", *EXPR, "--sub", {"vars": ["x", "y"], "images": ["y", "x"]}],
     2, ["{tmp}/input6.json", "'vars'", "expected 1 values"]),
    ("quotient-weights-length", ["quotient", *EXPR2, "--weights", "1", "-r", "2"],
     2, ["--weights", "expected 2 values"]),
    ("quotient-new-vars-empty", ["quotient", *EXPR2, "--weights", "0,0", "-r", "2",
                                 "--new-vars", ""], 2, ["--new-vars", "expected 2 values"]),
    ("quotient-basis-empty", ["quotient", *EXPR2, "--weights", "1,1", "-r", "2", "--basis", ""],
     2, ["--basis", "independent columns"]),
    ("tangency-smooth-multiplicities", ["tangency", *EXPR2, "-r", "3", "--boundary", "1,2",
                                        "--smooth", "--multiplicities", "1,1"],
     2, ["smooth mode takes no multiplicities"]),
    ("tangency-smooth-multiplicities-empty", ["tangency", *EXPR2, "-r", "3", "--boundary", "1,2",
                                              "--smooth", "--multiplicities", ""],
     2, ["smooth mode takes no multiplicities"]),
    ("tangency-spec-smooth-multiplicities", ["tangency", "--spec", dict(TANGENCY, smooth=True)],
     2, ["smooth mode takes no multiplicities"]),
    ("quotient-new-vars-length", ["quotient", *EXPR2, "--weights", "0,0", "-r", "2",
                                  "--new-vars", "u"], 2, ["--new-vars", "expected 2 values"]),
    ("eval-point-length", ["eval", *EXPR2, "--point", "1"], 2, ["--point", "expected 2 values"]),
    ("tangency-boundary-length", ["tangency", *EXPR2, "-r", "3", "--boundary", "1", "--smooth"],
     2, ["--boundary", "expected 2 values"]),
    ("cover-quotient-vars-length", ["cover", "--spec", dict(COVER, quotient_vars=["u", "v"])],
     2, ["cover spec", "'quotient_vars'", "expected 1 values"]),
    ("cover-functional-linear-length", ["cover", "--spec", dict(
        COVER, functional={"linear": ["0", "1"], "constant": "1"})],
     2, ["functional", "'linear'", "expected 1 values"]),
    ("tangency-spec-boundary-length", ["tangency", "--spec", dict(TANGENCY, boundary=[1, 2, 0])],
     2, ["'boundary'", "expected 2 values"]),
    ("weak-lg-k-min-above-K", ["check-weak-lg", *EXPR2, "-K", "4", "--k-min", "9",
                               "--reference", "cases/p2_reference.json"], 2, ["--k-min"]),
    ("weak-lg-k-min-negative", ["check-weak-lg", *EXPR2, "-K", "4", "--k-min", "-3",
                                "--reference", "cases/p2_reference.json"], 2, ["--k-min"]),
    ("weak-lg-K-negative", ["check-weak-lg", *EXPR2, "-K", "-1",
                            "--reference", "cases/p2_reference.json"], 2, ["-K"]),
    ("period-K-negative", ["period", *EXPR, "-K", "-1"], 2, ["-K"]),
    ("compare-K-negative", ["compare", *EXPR, "--expr2", "x + 2/x", "-K", "-2"], 2, ["-K"]),
    # c_0..c_K would not fit in a list: once an OverflowError traceback
    ("period-K-beyond-list", ["period", *EXPR, "-K", str(2 ** 63)],
     2, [f"-K must be at most {sys.maxsize}, got {2 ** 63}"]),
    ("compare-K-beyond-list", ["compare", *EXPR2, "--expr2", "z1 + z2 + 1/(z1*z2)",
                               "-K", str(10 ** 30)], 2, ["-K must be at most"]),
    # variable names: the NAME of the expression grammar, none twice
    ("period-vars-not-a-name", ["period", "--vars", "x,y z", "--expr", "y", "-K", "2"],
     2, ["bad value for --vars", "'y z' is not a variable name"]),
    ("period-spec-vars-duplicate", ["period", "--spec", {"expr": "x", "vars": ["x", "x"]},
                                    "-K", "2"], 2, ["'vars'", "duplicate variable name 'x'"]),
    ("quotient-new-vars-duplicate", ["quotient", "--spec", "cases/f2_upstairs.json",
                                     "--weights", "1,1", "-r", "2", "--new-vars", "u,u"],
     2, ["bad value for --new-vars", "duplicate variable name 'u'"]),
    ("quotient-new-vars-not-a-name", ["quotient", "--spec", "cases/f2_upstairs.json",
                                      "--weights", "1,1", "-r", "2", "--new-vars", "u,v w"],
     2, ["bad value for --new-vars", "'v w' is not a variable name"]),
    ("tangency-vars-duplicate", ["tangency", "--spec", dict(TANGENCY, vars=["z1", "z1"])],
     2, ["'vars'", "duplicate variable name 'z1'"]),
    ("cover-vars-not-a-name", ["cover", "--spec", dict(COVER, vars=["1x"])],
     2, ["cover spec", "'vars'", "'1x' is not a variable name"]),
    ("cover-quotient-vars-not-a-name", ["cover", "--spec", dict(COVER, quotient_vars=["u-1"])],
     2, ["cover spec", "'quotient_vars'", "'u-1' is not a variable name"]),
    ("sub-vars-not-a-name", ["mutate", *EXPR, "--sub", {"vars": ["x^2"], "images": ["x"]}],
     2, ["substitution", "'vars'", "'x^2' is not a variable name"]),
    ("tangency-r-float", ["tangency", "--spec", dict(TANGENCY, r=3.9, boundary=[1.5, 2.7])],
     2, ["'r'", "expected an integer, got 3.9"]),
    ("tangency-boundary-float", ["tangency", "--spec", dict(TANGENCY, boundary=[1.5, 2.7])],
     2, ["'boundary'", "expected an integer, got 1.5"]),
    ("tangency-multiplicities-bool", ["tangency", "--spec", dict(
        TANGENCY, multiplicities=[0, True, 2])], 2, ["'multiplicities'", "got True"]),
    ("tangency-smooth-string", ["tangency", "--spec", dict(TANGENCY, smooth="false")],
     2, ["'smooth'", "expected true or false"]),
    ("cover-r-float", ["cover", "--spec", dict(COVER, r=2.5)],
     2, ["cover spec", "'r'", "expected an integer"]),
    ("cover-basis-float", ["cover", "--spec", dict(COVER, basis=[[2.0]])],
     2, ["cover spec", "'basis'", "expected an integer"]),
    ("ledger-half-maslov-float", ["ledger", "--spec", {"classes": [{"half_maslov": 1.9}]}],
     2, ["classes[0]", "'half_maslov'", "expected an integer"]),
    ("ledger-connected-r-string", ["ledger", "--spec", {
        "classes": [CLASS], "checks": {"connected": {"d_values": [1], "r": "2"}}}],
     2, ["checks.connected", "'r'", "expected an integer"]),
    ("reference-index-bool", ["check-weak-lg", *EXPR, "-K", "2", "--reference",
                              {"coeffs": [[True, "2"]]}], 2, ["bad index True"]),
    ("ledger-check-misspelt", ["ledger", "--spec", {
        "classes": [CLASS], "checks": {"monotonicty": True}}], 2, ["checks.monotonicty"]),
    ("ledger-check-string", ["ledger", "--spec", {
        "classes": [CLASS], "checks": {"monotonicity": "no"}}], 2, ["checks.monotonicity"]),
    ("ledger-riemann-hurwitz-true", ["ledger", "--spec", {
        "classes": [CLASS], "checks": {"riemann_hurwitz": True}}],
     2, ["checks.riemann_hurwitz", "missing key 'r'"]),
    ("period-expr-number", ["period", "--spec", {"expr": 5, "vars": ["x"]}, "-K", "3"],
     2, ["'expr'", "expected a string, got 5"]),
    ("period-vars-number", ["period", "--spec", {"expr": "x + 1/x", "vars": [1]}, "-K", "3"],
     2, ["'vars'", "expected a string, got 1"]),
    ("tangency-potential-list", ["tangency", "--spec", dict(TANGENCY, potential=["z1"])],
     2, ["'potential'", "expected a string"]),
    ("cover-potential-number", ["cover", "--spec", dict(COVER, potential=3)],
     2, ["cover spec", "'potential'", "expected a string, got 3"]),
    ("cover-vars-number", ["cover", "--spec", dict(COVER, vars=[1])],
     2, ["cover spec", "'vars'", "expected a string, got 1"]),
    ("cover-quotient-vars-bool", ["cover", "--spec", dict(COVER, quotient_vars=[True])],
     2, ["cover spec", "'quotient_vars'", "expected a string, got True"]),
    ("sub-vars-number", ["mutate", *EXPR, "--sub", {"vars": [0], "images": ["x"]}],
     2, ["'vars'", "expected a string, got 0"]),
    ("sub-images-number", ["mutate", *EXPR, "--sub", {"vars": ["x"], "images": [2]}],
     2, ["'images'", "expected a string, got 2"]),
    ("spec-not-utf8", ["period", "--spec", NOT_UTF8, "-K", "3"],
     2, ["{tmp}/input2.json", "can't decode byte 0xff"]),
    ("reference-not-utf8", ["check-weak-lg", *EXPR, "-K", "2", "--reference", NOT_UTF8],
     2, ["{tmp}/input8.json", "can't decode byte 0xff"]),
    ("reference-csv-bad-coefficient", ["check-weak-lg", *EXPR, "-K", "2", "--reference",
                                       CsvText("k,coeff\n1,x\n")],
     2, ["{tmp}/input8.csv: bad coefficient 'x' (line 2)"]),
    ("ledger-connected-r-zero", ["ledger", "--spec", {
        "classes": [CLASS], "checks": {"connected": {"d_values": [1], "r": 0}}}],
     2, ["{tmp}/input2.json: checks.connected: bad value for 'r'",
         "cover degree must be at least 2, got 0"]),
    ("ledger-riemann-hurwitz-r-one", ["ledger", "--spec", {
        "classes": [CLASS], "checks": {"riemann_hurwitz": {"r": 1}}}],
     2, ["{tmp}/input2.json: checks.riemann_hurwitz: bad value for 'r'",
         "cover degree must be at least 2, got 1"]),
    ("cover-r-negative", ["cover", "--spec", dict(COVER, r=-2)],
     2, ["cover spec", "'r'", "cover degree must be at least 2, got -2"]),
    ("reference-name-number", ["check-weak-lg", *EXPR, "-K", "2", "--reference",
                               {"name": 7, "coeffs": [[0, "1"], [2, "2"]]}],
     2, ["{tmp}/input8.json", "'name'", "expected a string, got 7"]),
    # exact values that leave the float range where they become floats
    ("eval-power-overflows", ["eval", "--expr", "x^2", "--vars", "x", "--point", "1e200"],
     1, ["outside the float range"]),
    ("eval-point-inf", ["eval", "--expr", "x", "--vars", "x", "--point", "inf"],
     2, ["--point", "'inf' is not a finite number"]),
    ("eval-coefficient-overflows", ["eval", "--expr", "10^400*x", "--vars", "x",
                                    "--point", "1"], 1, ["outside the float range"]),
    ("crit-coefficient-overflows", ["crit", "--expr", "10^400*x+1/x", "--vars", "x",
                                    "--starts", "3"], 1, ["coefficient", "outside the float range"]),
    ("crit-exponent-overflows", ["crit", "--expr", "x+y^99999999999999999999", "--vars", "x,y",
                                 "--starts", "2"], 1, ["exponent", "99999999999999999999"]),
    ("eval-negative-power-underflows", ["eval", "--expr", "x^-2", "--vars", "x",
                                        "--point", "1e-200"], 1, ["outside the float range"]),
    ("eval-json-infinity", ["eval", "--expr", "x*y", "--vars", "x,y", "--point", "1e200,1e200",
                            "--format", "json"], 1, ["outside the float range"]),
]


# Flags that no longer exist: --seed outside crit, --expr/--vars on the
# spec-only commands, and the solver settings that are now constants.
@pytest.mark.parametrize("argv", [
    ["period", *EXPR, "-K", "2", "--seed", "1"],
    ["cover", "--spec", "cases/rank1_cover.json", "--expr", "x"],
    ["crit", *EXPR, "--tol", "1e-9"],
    ["crit", *EXPR, "--max-iter", "5"],
], ids=["period-seed", "cover-expr", "crit-tol", "crit-max-iter"])
def test_removed_flag_is_an_argparse_error(argv):
    proc = run_lgforge(*argv)
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, code, needles", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_input_is_named_without_traceback(tmp_path, argv, code, needles):
    args = []
    for i, arg in enumerate(argv):
        if isinstance(arg, (dict, list, FileText, FileBytes)):
            path = tmp_path / f"input{i}{getattr(arg, 'suffix', '.json')}"
            if isinstance(arg, FileBytes):
                path.write_bytes(arg)
            else:
                path.write_text(arg if isinstance(arg, FileText) else json.dumps(arg))
            arg = str(path)
        args.append(arg.replace("{tmp}", str(tmp_path)))
    proc = run_lgforge(*args)
    assert proc.returncode == code
    for needle in needles:
        assert needle.replace("{tmp}", str(tmp_path)) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
