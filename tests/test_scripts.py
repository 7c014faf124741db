"""The narrative scripts under scripts/ print exactly the text pinned here.

Each script runs in a child process with the repository's ``src`` first on
the path, and its whole stdout is compared.  ``hypersurface_critical_values.py``
prints floats from the Newton solver, whose last digits depend on the BLAS
build and on the order of the potential's terms.  So its closed-form errors
are only bounded, and the sign of a zero printed to 9 decimals is dropped;
the rest of its stdout is pinned.
"""

import os
import re
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


HYPERSURFACE_VALUES = """\
(n, d) = (2, 1):  x0 + x1 + x0^-1*x1^-1
  value -1.500000000-2.598076211j  multiplicity 1
  value -1.500000000+2.598076211j  multiplicity 1
  value +3.000000000+0.000000000j  multiplicity 1
  nondegenerate: True   (3 points)

(n, d) = (2, 2):  x0 + x0^-1*y1 + 2*x0^-1 + x0^-1*y1^-1
  value -4.000000000+0.000000000j  multiplicity 1
  value +4.000000000+0.000000000j  multiplicity 1
  nondegenerate: True   (2 points)

(n, d) = (3, 2):  x0 + x1 + x0^-1*x1^-1*y1 + 2*x0^-1*x1^-1 + x0^-1*x1^-1*y1^-1
  value -2.381101578-4.124188911j  multiplicity 1
  value -2.381101578+4.124188911j  multiplicity 1
  value +4.762203156+0.000000000j  multiplicity 1
  nondegenerate: True   (3 points)

(n, d) = (3, 3):  x0 + x0^-1*y1^2*y2^-1 + 3*x0^-1*y1 + 3*x0^-1*y2 + x0^-1*y1^-1*y2^2 + 3*x0^-1*y1*y2^-1 + 6*x0^-1 + 3*x0^-1*y1^-1*y2 + 3*x0^-1*y2^-1 + 3*x0^-1*y1^-1 + x0^-1*y1^-1*y2^-1
  value -10.392304845+0.000000000j  multiplicity 1
  value +10.392304845+0.000000000j  multiplicity 1
  nondegenerate: True   (2 points)

(n, d) = (4, 3):  x0 + x1 + x0^-1*x1^-1*y1^2*y2^-1 + 3*x0^-1*x1^-1*y1 + 3*x0^-1*x1^-1*y2 + x0^-1*x1^-1*y1^-1*y2^2 + 3*x0^-1*x1^-1*y1*y2^-1 + 6*x0^-1*x1^-1 + 3*x0^-1*x1^-1*y1^-1*y2 + 3*x0^-1*x1^-1*y2^-1 + 3*x0^-1*x1^-1*y1^-1 + x0^-1*x1^-1*y1^-1*y2^-1
  value -4.500000000-7.794228634j  multiplicity 1
  value -4.500000000+7.794228634j  multiplicity 1
  value +9.000000000+0.000000000j  multiplicity 1
  nondegenerate: True   (3 points)

"""


def run_script(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / f"{script}.py")], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", sorted(EXPECTED))
def test_script_stdout_is_pinned(script):
    assert run_script(script) == EXPECTED[script]


def test_hypersurface_critical_values_pinned_up_to_float_noise():
    lines = []
    for line in run_script("hypersurface_critical_values").splitlines():
        m = re.fullmatch(r"(  value \S+  multiplicity \d+)  \|closed-form error\| = (\S+)", line)
        if m:
            assert float(m.group(2)) < 1e-12, line
            line = m.group(1)
        lines.append(re.sub(r"-(0\.0{9})(?!\d)", r"+\1", line))  # a signed zero
    assert "\n".join(lines) + "\n" == HYPERSURFACE_VALUES
