import argparse
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from lgforge.cli import build_parser, main

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
    # every start overflows; numpy's RuntimeWarnings about the dropped rows
    # must not reach the user, only crit's own warning
    proc = run_child(["-m", "lgforge", "crit", "--expr", expr, "--vars", vars_,
                      "--starts", str(starts)], child_env())
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == f"warning: crit found no critical point from {starts} starts\n".encode()


# Runs in a fresh interpreter: every non-crit golden command, then one small
# crit search, through lgforge.cli.main; prints the exit codes, whether numpy
# was loaded after each stage, which of dataclasses and inspect (whose import
# once cost every command's start-up) the exact commands loaded, whether crit
# left os.environ as it found it, the OPENBLAS_NUM_THREADS it left, and the
# process's thread count afterwards (Linux only; null elsewhere).
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
stdlib = [name for name in ("dataclasses", "inspect") if name in sys.modules]
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
