#!/usr/bin/env python3
"""Ten alternating benchmark pairs of two checkouts, summarised per metric.

Usage::

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR WORKLOAD FIRST_SEED

Pair i (i = 0..9) runs ``python3 perfbench/run.py --workload WORKLOAD
--seed FIRST_SEED+i --trace 0`` in both checkouts, the parent first on even
pairs and the change first on odd ones.  For each end-to-end metric of the
parent's ``BENCHMARK.json`` it prints the parent's median and quartiles
[q1, q3], the change's median, the pairs the change won (ties count for
neither side), whether the medians differ by more than the parent's
quartile spread q3 - q1, and a verdict against the metric's ``bound``, the
share of the parent's median by which the change may be worse:

- *unresolved*: the parent's quartile spread exceeds that share, and not
  every change run beats every parent run, so the runs cannot tell;
- *regressed*: otherwise, the change's median is worse than the parent's by
  more than that share;
- *within bound*: otherwise.

Quartiles interpolate linearly between order statistics
(``statistics.quantiles(..., method="inclusive")``).

After the summary it prints, for each job kind in the report line (the line
before the result), each side's median over its runs of the kind's median
latency (``latency_p50_ms_by_kind``), so a saving can be placed; no verdict
rests on these.

Then it appends one record to ``BENCH_<WORKLOAD>.json`` in CHANGE_DIR, a
JSON list that each full set of pairs extends by one, so the numbers of
successive changes can be read side by side.  A record holds the workload,
the seeds, each side's ``git_commit`` and ``source_sha256`` from its report
line's environment block, each metric's ``summarize`` dict, the per-kind
medians (null where a side timed no such job) and the change's environment
block from its first run, less ``lgforge_file``: a path on the machine that
ran it, where ``source_sha256`` already identifies the code.

Exits 1 as soon as a run fails, reports an incorrect result or a failed
operation, writing no record, and 0 otherwise, whatever the numbers say.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, the parent's quartiles, the pairs the change won, whether the
    gap between the medians exceeds the parent's quartile spread, and the
    verdict against ``bound`` (see the module docstring).

    ``parent[i]`` and ``change[i]`` are the two runs of pair i; ``better`` is
    "lower" or "higher".
    """
    sign = 1 if better == "higher" else -1
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    allowed = bound * abs(parent_median)
    if q3 - q1 > allowed and not all(sign * (c - p) > 0 for p in parent for c in change):
        verdict = "unresolved"
    elif sign * (parent_median - change_median) > allowed:
        verdict = "regressed"
    else:
        verdict = "within bound"
    return {
        "parent_median": parent_median,
        "parent_q1": q1,
        "parent_q3": q3,
        "change_median": change_median,
        "won": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "exceeds_spread": abs(change_median - parent_median) > q3 - q1,
        "verdict": verdict,
    }


def kind_median(by_kind_runs: list[dict[str, float]], kind: str) -> float | None:
    """The median of ``kind`` over the runs that timed it, or None if none did."""
    values = [r[kind] for r in by_kind_runs if kind in r]
    return statistics.median(values) if values else None


def append_record(path: Path, record: dict) -> None:
    records = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps(records + [record], indent=1) + "\n")


def run_side(checkout: Path, workload: str, seed: int
             ) -> tuple[dict[str, float], dict[str, float], dict]:
    """One run's end-to-end metrics, its median latency per job kind in ms,
    and its environment block."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and len(lines) >= 2 else None
    if result is None or not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench_pairs: {checkout} seed {seed}: "
                         + ("run failed" if result is None else
                            f"correct={result['correct']}, failed={result['failed']}"))
    report = json.loads(lines[-2])["report"]
    return ({name: m["value"] for name, m in result["metrics"].items()},
            report["latency_p50_ms_by_kind"], report["environment"])


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print("usage: bench_pairs.py PARENT_DIR CHANGE_DIR WORKLOAD FIRST_SEED", file=sys.stderr)
        return 2
    parent_dir, change_dir, workload = Path(argv[0]), Path(argv[1]), argv[2]
    first_seed = int(argv[3])
    metrics = json.loads((parent_dir / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    kinds = {"parent": [], "change": []}
    environments = {}
    for i in range(PAIRS):
        seed = first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            metrics_run, by_kind, environment = run_side(
                parent_dir if side == "parent" else change_dir, workload, seed)
            runs[side].append(metrics_run)
            kinds[side].append(by_kind)
            environments.setdefault(side, environment)
        parent, change = runs["parent"][-1], runs["change"][-1]
        print(f"pair {i + 1} seed {seed} ({order[0]} first): " + "; ".join(
            f"{m['name']} {parent[m['name']]:.4g} -> {change[m['name']]:.4g}" for m in metrics),
            flush=True)
    print(f"{workload}, seeds {first_seed}-{first_seed + PAIRS - 1}:")
    summaries = {}
    for m in metrics:
        name = m["name"]
        s = summaries[name] = summarize([r[name] for r in runs["parent"]],
                                        [r[name] for r in runs["change"]], m["better"], m["bound"])
        print(f"  {name} ({m['unit']}, {m['better']} is better): parent {s['parent_median']:.4g} "
              f"[{s['parent_q1']:.4g}, {s['parent_q3']:.4g}], change {s['change_median']:.4g}, "
              f"won {s['won']}/{s['pairs']}, gap beyond the parent's spread: "
              f"{'yes' if s['exceeds_spread'] else 'no'}; {s['verdict']} "
              f"(bound {m['bound']:.0%})")
    print("  median latency per job kind (ms), median over runs:")
    kind_medians = {}
    for kind in sorted({k for r in kinds["parent"] + kinds["change"] for k in r}):
        medians = kind_medians[kind] = {side: kind_median(kinds[side], kind)
                                        for side in ("parent", "change")}
        parent, change = ("n/a" if v is None else f"{v:.4g}" for v in medians.values())
        print(f"    {kind}: parent {parent}, change {change}")
    append_record(change_dir / f"BENCH_{workload}.json", {
        "workload": workload,
        "seeds": list(range(first_seed, first_seed + PAIRS)),
        **{side: {key: environments[side][key] for key in ("git_commit", "source_sha256")}
           for side in ("parent", "change")},
        "metrics": summaries,
        "kind_medians": kind_medians,
        "environment": {key: value for key, value in environments["change"].items()
                        if key != "lgforge_file"},
    })
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
