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

Exits 1 as soon as a run fails, reports an incorrect result or a failed
operation, and 0 otherwise, whatever the numbers say.
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


def kind_median(by_kind_runs: list[dict[str, float]], kind: str) -> str:
    """The median of ``kind`` over the runs that timed it, or "n/a" if none did."""
    values = [r[kind] for r in by_kind_runs if kind in r]
    return f"{statistics.median(values):.4g}" if values else "n/a"


def run_side(checkout: Path, workload: str, seed: int
             ) -> tuple[dict[str, float], dict[str, float]]:
    """One run's end-to-end metrics and its median latency per job kind, in ms."""
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
            report["latency_p50_ms_by_kind"])


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print("usage: bench_pairs.py PARENT_DIR CHANGE_DIR WORKLOAD FIRST_SEED", file=sys.stderr)
        return 2
    parent_dir, change_dir, workload = Path(argv[0]), Path(argv[1]), argv[2]
    first_seed = int(argv[3])
    metrics = json.loads((parent_dir / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    kinds = {"parent": [], "change": []}
    for i in range(PAIRS):
        seed = first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            metrics_run, by_kind = run_side(parent_dir if side == "parent" else change_dir,
                                            workload, seed)
            runs[side].append(metrics_run)
            kinds[side].append(by_kind)
        parent, change = runs["parent"][-1], runs["change"][-1]
        print(f"pair {i + 1} seed {seed} ({order[0]} first): " + "; ".join(
            f"{m['name']} {parent[m['name']]:.4g} -> {change[m['name']]:.4g}" for m in metrics),
            flush=True)
    print(f"{workload}, seeds {first_seed}-{first_seed + PAIRS - 1}:")
    for m in metrics:
        name = m["name"]
        s = summarize([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                      m["better"], m["bound"])
        print(f"  {name} ({m['unit']}, {m['better']} is better): parent {s['parent_median']:.4g} "
              f"[{s['parent_q1']:.4g}, {s['parent_q3']:.4g}], change {s['change_median']:.4g}, "
              f"won {s['won']}/{s['pairs']}, gap beyond the parent's spread: "
              f"{'yes' if s['exceeds_spread'] else 'no'}; {s['verdict']} "
              f"(bound {m['bound']:.0%})")
    print("  median latency per job kind (ms), median over runs:")
    for kind in sorted({k for r in kinds["parent"] + kinds["change"] for k in r}):
        parent, change = (kind_median(kinds[side], kind) for side in ("parent", "change"))
        print(f"    {kind}: parent {parent}, change {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
