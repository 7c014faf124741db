"""The narrative scripts under scripts/ print exactly the text pinned here.

Each script runs in a child process with the repository's ``src`` first on
the path, and its whole stdout is compared.  ``hypersurface_critical_values.py``
is left out: it prints floats from the Newton solver, whose last digits depend
on the BLAS build.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

EXPECTED = {
    "delpezzo_chain": """\
== stage 1: double cover of the plane branched along a conic ==
upstairs : z1^2 + 2*z1*z2 + z2^2 + z1^-1*z2^-1
quotient : x + x^-1*y + 2*x^-1 + x^-1*y^-1
mutated product-of-lines potential: x + x^-1*y + 2*x^-1 + x^-1*y^-1
exact match: True

== stage 2: double cover of the quadric branched along an elliptic curve ==
descendant at degree 2: 4
upstairs : x^2 + 2*y + x^-2*y^2 + 2*y^-1 + 4*x^-2*y + 6*x^-2 + 4*x^-2*y^-1 + x^-2*y^-2
quotient : X + 2*Y + X^-1*Y^2 + 4*X^-1*Y + 2*Y^-1 + 6*X^-1 + 4*X^-1*Y^-1 + X^-1*Y^-2
mutated degree-4 del Pezzo potential: x + 2*y + x^-1*y^2 + 4*x^-1*y + 2*y^-1 + 6*x^-1 + 4*x^-1*y^-1 + x^-1*y^-2
periods of the chain output vs the reference potential (K = 12):
  k=0   1 vs 1  ok
  k=1   0 vs 0  ok
  k=2   20 vs 20  ok
  k=3   96 vs 96  ok
  k=4   1188 vs 1188  ok
  k=5   10560 vs 10560  ok
  k=6   111440 vs 111440  ok
  k=7   1142400 vs 1142400  ok
  k=8   12154660 vs 12154660  ok
  k=9   130220160 vs 130220160  ok
  k=10  1414339920 vs 1414339920  ok
  k=11  15488457600 vs 15488457600  ok
  k=12  170965040400 vs 170965040400  ok
overall: PASS
""",
    "hirzebruch_quotient": """\
deck character: weights (1, 1) mod 2
canonical invariant basis: columns ((1, 1), (0, 2)) (index 2)
upstairs potential : x^2 + x*y + y^2 + x^-1*y^-1
quotient potential : u + v + u^-1 + u^-2*v^-1
toric F2 potential : x + y + x^-1 + x^-2*y^-1
exact match after renaming: True
""",
    "clifford_tangency": """\
potential: z1 + z2 + z1^-1*z2^-1
toric boundary, multiplicities (0,1,2):  tau = 1
smooth anticanonical cubic:              tau = 3
degree-3 descendant from the period sequence: 6
spherical class (zero boundary):         tau = 0
""",
}


@pytest.mark.parametrize("script", sorted(EXPECTED))
def test_script_stdout_is_pinned(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / f"{script}.py")], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == EXPECTED[script]
