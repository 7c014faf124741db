"""Generated spec files and empty flag values never crash the command line.

Each example writes a JSON spec for ``period``, ``tangency``, ``cover``,
``ledger`` or ``mutate --sub`` and runs ``lgforge.cli.main`` in-process.  The
specs start from a valid one with entries replaced, added or deleted at any
depth, so both the readers and the computations behind them see malformed
input.  ``main`` must
return 0, 1 or 2 (argparse may exit 2); any other exception is a crash.
Integers stay within -3..6 and the strings hold no exponents, so no power
grows large.

The last test gives each string flag an empty value on every golden-manifest
command, and on the flag form of two tangency commands: the flag is either
rejected by name or overridden by --spec with a warning that names it, never
silently dropped.
"""

import argparse
import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgforge.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "cases" / "golden_manifest.json").read_text())

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
    @settings(max_examples=60)
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


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    return code, err.getvalue()


def string_flags(command):
    """The options of ``command`` that take one string value."""
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    return [a.option_strings[-1] for a in subparsers.choices[command]._actions
            if type(a) is argparse._StoreAction and a.type is None]


# The manifest's tangency commands all read --spec; these give the same inputs as flags.
TANGENCY_FLAGS = ["tangency", "--expr", "z1 + z2 + 1/(z1*z2)", "--vars", "z1,z2", "-r", "3"]
FLAG_FORMS = [
    {"name": "tangency_toric_flags",
     "argv": [*TANGENCY_FLAGS, "--boundary", "1,2", "--multiplicities", "0,1,2"]},
    {"name": "tangency_spherical_flags",
     "argv": [*TANGENCY_FLAGS, "--boundary", "0,0", "--smooth", "--descendant", "6"]},
]


@pytest.mark.parametrize("entry", MANIFEST + FLAG_FORMS,
                         ids=[e["name"] for e in MANIFEST + FLAG_FORMS])
def test_empty_flag_value_is_named(entry):
    argv = [str(ROOT / a) if a.startswith("cases/") else a for a in entry["argv"]]
    for flag in string_flags(argv[0]):
        code, err = run_main([*argv, flag, ""])  # the last value of a flag wins
        named = re.search(re.escape(flag) + r"(?![\w-])", err)
        assert named and (code == 2 or code == 0 and "warning: --spec overrides" in err), (
            flag, code, err)
