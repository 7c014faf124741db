"""Generated spec files never crash the command line.

Each example writes a JSON spec for ``period``, ``tangency``, ``cover``,
``ledger`` or ``mutate --sub`` and runs ``lgforge.cli.main`` in-process.  The
specs start from a valid one with entries replaced, added or deleted at any
depth, so both the readers and the computations behind them see malformed
input.  ``main`` must
return 0, 1 or 2 (argparse may exit 2); any other exception is a crash.
Integers stay within -3..6 and the strings hold no exponents, so no power
grows large.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgforge.cli import main

BASES = {
    "period": {"expr": "x + 1/x", "vars": ["x"]},
    "tangency": {"potential": "z1 + z2 + 1/(z1*z2)", "vars": ["z1", "z2"], "r": 3,
                 "boundary": [1, 2], "multiplicities": [0, 1, 2], "descendant": "6",
                 "smooth": False},
    "cover": {"potential": "x + 1/x", "vars": ["x"], "r": 2, "descendant": "2",
              "functional": {"linear": ["0"], "constant": "1"},
              "basis": [[2]], "quotient_vars": ["u"]},
    "ledger": {"classes": [{"half_maslov": 1, "divisor_hits": [0, 1], "boundary": [1, 0],
                            "area": "1/2"}],
               "checks": {"maslov_positive": {"hits_index": [1]}, "monotonicity": True,
                          "riemann_hurwitz": {"r": 2}, "connected": {"d_values": [1], "r": 2}}},
    "mutate": {"vars": ["x"], "images": ["x/(1+x)"]},
}

ARGV = {
    "period": ["period", "-K", "4", "--spec"],
    "tangency": ["tangency", "--spec"],
    "cover": ["cover", "--spec"],
    "ledger": ["ledger", "--spec"],
    "mutate": ["mutate", "--expr", "x + 1/x", "--vars", "x", "--sub"],
}

KEYS = sorted({"expr", "potential", "vars", "r", "boundary", "multiplicities", "descendant",
               "smooth", "functional", "linear", "constant", "basis", "quotient_vars",
               "classes", "half_maslov", "divisor_hits", "area", "checks", "maslov_positive",
               "hits_index", "monotonicity", "riemann_hurwitz", "connected", "d_values",
               "images", "junk", ""})

TEXT = st.sampled_from(["x", "z1", "z2", "u", "x + 1/x", "z1 + z2 + 1/(z1*z2)", "x/(1+x)",
                        "1/0", "(", "", "2/3", "-1", "0", "1", "abc", "x x", "nan"])
SCALARS = (st.none() | st.booleans() | st.integers(-3, 6) | st.floats(-3, 6)
           | st.sampled_from([math.nan, math.inf]) | TEXT)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner,
                                                               max_size=3),
    max_leaves=8)


@st.composite
def specs(draw, command):
    """The command's valid spec after one to three random edits."""
    spec = json.loads(json.dumps(BASES[command]))
    for _ in range(draw(st.integers(1, 3))):
        node = spec
        while isinstance(node, (dict, list)) and draw(st.booleans()):
            inner = [k for k, v in (node.items() if isinstance(node, dict) else enumerate(node))
                     if isinstance(v, (dict, list))]
            if not inner:
                break
            node = node[draw(st.sampled_from(inner))]
        if isinstance(node, dict):
            key = draw(st.sampled_from(sorted(node) + KEYS))
            if key in node and draw(st.booleans()):
                del node[key]
            else:
                node[key] = draw(VALUES)
        elif isinstance(node, list) and node:
            node[draw(st.integers(0, len(node) - 1))] = draw(VALUES)
        elif isinstance(node, list):
            node.append(draw(VALUES))
    return draw(VALUES) if draw(st.integers(0, 19)) == 0 else spec


@pytest.mark.parametrize("command", sorted(BASES))
def test_generated_specs_never_crash(command):
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(specs(command))
    def run(spec):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.json"
            path.write_text(json.dumps(spec))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main([*ARGV[command], str(path)])
                except SystemExit as exc:  # argparse
                    code = exc.code
        assert code in (0, 1, 2), err.getvalue()

    run()
