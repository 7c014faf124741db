"""The summary rule of ``scripts/bench_pairs.py``, on canned numbers; no
benchmark runs here."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
summarize = bench_pairs.summarize

PARENT = [10.0, 12.0, 11.0, 13.0, 9.0, 14.0, 10.0, 12.0, 11.0, 15.0]


def test_quartiles_and_medians():
    s = summarize(PARENT, [x + 1 for x in PARENT], "higher", 0.25)
    # sorted parent: 9 10 10 11 11 12 12 13 14 15
    assert s["parent_median"] == 11.5
    assert (s["parent_q1"], s["parent_q3"]) == (10.25, 12.75)
    assert s["change_median"] == 12.5
    assert (s["won"], s["pairs"]) == (10, 10)
    assert not s["exceeds_spread"]          # a gap of 1.0 inside a spread of 2.5


def test_direction_ties_and_spread():
    change = [x - 4 for x in PARENT]
    change[0] = PARENT[0]                   # a tie counts for neither side
    change[1] = PARENT[1] + 1               # one pair lost
    lower = summarize(PARENT, change, "lower", 0.25)
    assert lower["won"] == 8
    assert lower["exceeds_spread"]          # 11.5 -> 8.5 beyond 2.5
    higher = summarize(PARENT, change, "higher", 0.25)
    assert higher["won"] == 1
    assert higher["exceeds_spread"]         # the gap counts either way; `won` says which


def test_wrong_argument_count_is_a_usage_error(capsys):
    assert bench_pairs.main(["parent", "change"]) == 2
    assert "PARENT_DIR CHANGE_DIR WORKLOAD FIRST_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_equal_runs_win_nothing(better):
    s = summarize(PARENT, list(PARENT), better, 0.25)
    assert s["won"] == 0 and not s["exceeds_spread"]


# PARENT: median 11.5, quartiles [10.25, 12.75], so a spread of 2.5; a bound
# of 0.25 allows 2.875 (the spread is inside it), one of 0.1 allows 1.15.
@pytest.mark.parametrize("better, shift, bound, verdict", [
    ("higher", -2, 0.25, "within bound"),    # worse by 2.0 <= 2.875
    ("lower", 2, 0.25, "within bound"),
    ("higher", 1, 0.25, "within bound"),     # better
    ("higher", -3, 0.25, "regressed"),       # worse by 3.0 > 2.875
    ("lower", 3, 0.25, "regressed"),
    ("higher", -3, 0.1, "unresolved"),       # spread 2.5 > 1.15 and no clean sweep
    ("higher", 1, 0.1, "unresolved"),        # better in the median, still unresolved
    ("higher", 10, 0.1, "within bound"),     # every change run beats every parent run
    ("lower", -10, 0.1, "within bound"),
])
def test_verdict_against_the_bound(better, shift, bound, verdict):
    assert summarize(PARENT, [x + shift for x in PARENT], better, bound)["verdict"] == verdict
