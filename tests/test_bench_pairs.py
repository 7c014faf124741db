"""The summary rule and the output of ``scripts/bench_pairs.py``, on canned
numbers and stub runs; no benchmark runs here."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
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


# With a bound of 0.1 the parent's spread (2.5) exceeds the 1.15 allowed, so
# the all-vs-all margin alone decides between "unresolved" and the rest.
@pytest.mark.parametrize("better, shift, all_beat, worst_change, best_parent, verdict", [
    ("lower", -7, True, 8.0, 9.0, "within bound"),    # change's slowest, 15 - 7, beats 9
    ("lower", -6, False, 9.0, 9.0, "unresolved"),     # a tie with the parent's best is no win
    ("lower", -1, False, 14.0, 9.0, "unresolved"),
    ("higher", 7, True, 16.0, 15.0, "within bound"),  # change's lowest, 9 + 7, beats 15
    ("higher", 6, False, 15.0, 15.0, "unresolved"),
    ("higher", -7, False, 2.0, 15.0, "unresolved"),   # worse on every run
])
def test_all_vs_all_margin(better, shift, all_beat, worst_change, best_parent, verdict):
    s = summarize(PARENT, [x + shift for x in PARENT], better, 0.1)
    assert (s["all_beat"], s["worst_change"], s["best_parent"], s["verdict"]) == (
        all_beat, worst_change, best_parent, verdict)


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


def stub_run(args, cwd, capture_output, text):
    """A benchmark run's last two lines: the report line, then the result line.
    The parent's runs take twice the change's time; seed s adds s ms."""
    seed = int(args[args.index("--seed") + 1])
    side = Path(cwd).name
    slow = 2.0 if side == "parent" else 1.0
    by_kind = {"period/P2": slow + seed, "period/dP4": 3 * slow + seed}
    if side == "parent" and seed == 3:
        by_kind["period/extra"] = 7.0            # a kind timed on one side only
    environment = {"seed": seed, "git_commit": f"{side}-commit", "source_sha256": f"{side}-src",
                   "lgforge_file": f"/{side}/src/lgforge/__init__.py"}
    report = {"report": {"environment": environment, "latency_p50_ms_by_kind": by_kind}}
    metrics = {name: {"value": slow + seed, "unit": "ms"}
               for name in ("setup_s", "jobs_per_s", "latency_p50_ms", "latency_tail_ms",
                            "peak_rss_mb")}
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    return subprocess.CompletedProcess(args, 0, json.dumps(report) + "\n" + json.dumps(result)
                                       + "\n", "")


def stub_checkouts(tmp_path, monkeypatch):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "parent")
    monkeypatch.setattr(bench_pairs.subprocess, "run", stub_run)
    return [str(tmp_path / "parent"), str(tmp_path / "change")]


def test_per_kind_medians_are_printed_after_the_summary(tmp_path, monkeypatch, capsys):
    assert bench_pairs.main([*stub_checkouts(tmp_path, monkeypatch), "periods-deep", "0"]) == 0
    out = capsys.readouterr().out
    summary, kinds = out.split("median latency per job kind (ms), median over runs:\n")
    assert "latency_p50_ms (ms, lower is better)" in summary
    # seeds 0..9 add 0..9 ms, so the median over runs adds 4.5
    assert kinds.splitlines() == [
        "    period/P2: parent 6.5, change 5.5",
        "    period/dP4: parent 10.5, change 7.5",
        "    period/extra: parent 7, change n/a",
    ]


def test_each_set_appends_a_record_that_agrees_with_the_summary(tmp_path, monkeypatch, capsys):
    checkouts = stub_checkouts(tmp_path, monkeypatch)
    trajectory = tmp_path / "change" / "BENCH_periods-deep.json"
    assert bench_pairs.main([*checkouts, "periods-deep", "0"]) == 0
    out = capsys.readouterr().out
    (record,) = json.loads(trajectory.read_text())
    assert record["workload"] == "periods-deep"
    assert record["seeds"] == list(range(10))
    assert record["parent"] == {"git_commit": "parent-commit", "source_sha256": "parent-src"}
    assert record["change"] == {"git_commit": "change-commit", "source_sha256": "change-src"}
    assert record["environment"] == {"seed": 0, "git_commit": "change-commit",
                                     "source_sha256": "change-src"}  # first run, no path
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert list(record["metrics"]) == [m["name"] for m in metrics]
    for m in metrics:
        s = record["metrics"][m["name"]]
        assert (f"  {m['name']} ({m['unit']}, {m['better']} is better): parent "
                f"{s['parent_median']:.4g} [{s['parent_q1']:.4g}, {s['parent_q3']:.4g}], "
                f"change {s['change_median']:.4g}, won {s['won']}/{s['pairs']}, ") in out
        assert (f"every change run beats every parent run: {'yes' if s['all_beat'] else 'no'} "
                f"(worst change {s['worst_change']:.4g}, best parent {s['best_parent']:.4g}); "
                f"{s['verdict']} (bound {m['bound']:.0%})") in out
    assert record["metrics"]["latency_p50_ms"]["change_median"] == 5.5
    # stub seeds 0..9 add 0..9 ms to 1 ms (change) and 2 ms (parent): 10 against 2
    assert {key: record["metrics"]["latency_p50_ms"][key]
            for key in ("all_beat", "worst_change", "best_parent")} == {
        "all_beat": False, "worst_change": 10.0, "best_parent": 2.0}
    assert record["kind_medians"] == {
        "period/P2": {"parent": 6.5, "change": 5.5},
        "period/dP4": {"parent": 10.5, "change": 7.5},
        "period/extra": {"parent": 7.0, "change": None},
    }
    assert bench_pairs.main([*checkouts, "periods-deep", "20"]) == 0
    first, second = json.loads(trajectory.read_text())
    assert first == record and second["seeds"] == list(range(20, 30))


def test_a_failed_set_writes_no_record(tmp_path, monkeypatch):
    checkouts = stub_checkouts(tmp_path, monkeypatch)

    def wrong_on_seed_5(args, cwd, capture_output, text):
        proc = stub_run(args, cwd, capture_output, text)
        if "5" in args:
            proc.stdout = proc.stdout.replace('"correct": true', '"correct": false')
        return proc

    monkeypatch.setattr(bench_pairs.subprocess, "run", wrong_on_seed_5)
    with pytest.raises(SystemExit, match="correct=False"):
        bench_pairs.main([*checkouts, "periods-deep", "0"])
    assert not (tmp_path / "change" / "BENCH_periods-deep.json").exists()


def test_a_run_without_a_report_line_fails(tmp_path, monkeypatch):
    def result_only(args, cwd, capture_output, text):
        proc = stub_run(args, cwd, capture_output, text)
        proc.stdout = proc.stdout.splitlines()[-1] + "\n"
        return proc

    monkeypatch.setattr(bench_pairs.subprocess, "run", result_only)
    with pytest.raises(SystemExit, match="run failed"):
        bench_pairs.run_side(tmp_path, "periods-deep", 0)
