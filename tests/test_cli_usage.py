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
