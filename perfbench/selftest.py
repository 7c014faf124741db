#!/usr/bin/env python3
"""Self-test of the benchmark itself; run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that the closed-form oracles agree with lgforge at small K, that the
input generator is deterministic, that the tracer patches every namespace
and restores it, that the crit golden comparison catches a real change, that
traced and untraced runs return identical results with self times summing to
the job wall time, that no timed job fails while the crit defect probe still
shows the solver's known defects, and that the benchmark refuses to run
without the package sources.  Takes about a minute; exits 1 on the first
failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import lgforge  # noqa: E402
import lgforge.cli  # noqa: E402,F401
from lgforge import potentials  # noqa: E402

import oracles  # noqa: E402
import workloads as wls  # noqa: E402
from tracer import Tracer  # noqa: E402


def check(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def test_oracles_match_lgforge() -> None:
    seq = lgforge.periods.period_sequence
    for n, d, K in [(2, 1, 12), (3, 1, 12), (2, 2, 10), (3, 2, 9), (3, 3, 8), (4, 3, 6)]:
        got = seq(potentials.fano_hypersurface_quotient(n, d), K).coeffs
        check(list(got) == [oracles.hypersurface_period(n, d, k) for k in range(K + 1)],
              f"hypersurface ({n},{d}) closed form disagrees with lgforge")
        check(potentials.fano_hypersurface_quotient(n, d)
              == lgforge.LaurentPoly(n, wls._hypersurface(n, d)),
              f"hypersurface ({n},{d}) exponent dict disagrees with lgforge.potentials")
    for n in (2, 3):
        check(potentials.projective_space(n) == lgforge.LaurentPoly(n, wls._simplex(n)),
              f"P^{n} exponent dict disagrees")
    got = seq(potentials.product_of_lines(), 12).coeffs
    check(list(got) == [oracles.product_of_lines_period(k) for k in range(13)], "P1xP1")
    check(potentials.product_of_lines() == lgforge.LaurentPoly(2, wls._product_of_lines()),
          "P1xP1 exponent dict disagrees")
    got = seq(potentials.del_pezzo_bl5(), 10).coeffs
    check(list(got) == [oracles.del_pezzo_bl5_period(k) for k in range(11)], "dP4")
    check(potentials.del_pezzo_bl5() == lgforge.LaurentPoly(2, wls._del_pezzo_bl5()),
          "dP4 exponent dict disagrees")
    left = lgforge.parse_poly("X + 2/Y + 2*Y + (1+Y)^4/(X*Y^2)", ["X", "Y"])
    check(left == lgforge.LaurentPoly(2, wls._dp5_chain_left()), "dP5-chain exponent dict")
    for n, r in [(2, 7), (2, 9), (3, 6)]:
        power = potentials.projective_space(n) ** r
        for b, c in power.terms.items():
            check(c == oracles.simplex_power_coefficient(r, b),
                  f"multinomial oracle at P^{n}, r={r}, b={b}")
        check(oracles.simplex_power_coefficient(r, (r + 1,) + (0,) * (n - 1)) == 0,
              "multinomial oracle outside the support")
    for n, d in [(2, 1), (2, 2), (3, 2)]:
        opts = lgforge.SolverOptions(starts=60, seed=1)
        f = potentials.fano_hypersurface_quotient(n, d)
        want = oracles.hypersurface_critical_values(n, d)
        matched, misses = wls.match_points(lgforge.critical_points(f, opts).points, want)
        values = lgforge.critical_values(f, opts).values
        check(not misses and len(matched) == len(want) == len(values)
              and all(min(abs(v - w) for w in want) < 1e-6 * abs(v) for v, _ in values),
              f"critical values of ({n},{d}): {misses or values}")
    print("PASS oracles agree with lgforge at small K")


def test_charts_keep_the_oracle() -> None:
    import random

    rng = random.Random(5)
    for _ in range(5):
        chart = wls.draw_chart(rng, 2)
        f = wls.charted_poly(lgforge, wls._del_pezzo_bl5(), ("x", "y"), chart)
        got = lgforge.period_sequence(f, 8).coeffs
        check(list(got) == [oracles.del_pezzo_bl5_period(k) for k in range(9)],
              f"chart {chart} changed a period")
    print("PASS chart changes keep every c_k")


def _inputs(workload, seed, r):
    wl = wls.WORKLOADS[workload](lgforge, ROOT, seed)
    return [(job.kind, job.describe, job.inputs) for job in wl.round_jobs(r)]


def test_generator_is_deterministic() -> None:
    for name in wls.WORKLOADS:
        for r in (0, 3):
            first, second = _inputs(name, 7, r), _inputs(name, 7, r)
            check(first == second, f"{name} round {r}: one seed gave different inputs")
        if name != "cli-golden":
            check(_inputs(name, 7, 0) != _inputs(name, 8, 0),
                  f"{name}: two seeds gave the same inputs")
    print("PASS one seed gives equal inputs")


def test_tracer_patches_every_namespace() -> None:
    originals = {
        "cli.parse_poly": lgforge.cli.parse_poly,
        "mutation.period_sequence": lgforge.mutation.period_sequence,
        "critical.critical_points": lgforge.critical.critical_points,
        "lgforge.period_sequence": lgforge.period_sequence,
        "LaurentPoly.__mul__": lgforge.LaurentPoly.__mul__,
    }
    f = potentials.fano_hypersurface_quotient(2, 1)
    tracer = Tracer()
    tracer.install()
    try:
        for key in originals:
            owner, attr = key.rsplit(".", 1)
            target = {"cli": lgforge.cli, "mutation": lgforge.mutation,
                      "critical": lgforge.critical, "lgforge": lgforge,
                      "LaurentPoly": lgforge.LaurentPoly}[owner]
            check(getattr(target, attr) is not originals[key], f"{key} is not wrapped")
        lgforge.critical.critical_values(f, lgforge.SolverOptions(starts=5))
    finally:
        tracer.uninstall()
    check(lgforge.cli.parse_poly is originals["cli.parse_poly"], "uninstall left a wrapper")
    check(lgforge.LaurentPoly.__mul__ is originals["LaurentPoly.__mul__"],
          "uninstall left a method wrapper")
    names = [s[1] for s in tracer.spans]
    inner = names.index("critical_points")
    check(names[tracer.spans[inner][5]] == "critical_values",
          "critical_points, reached through module globals, is not a child span")
    root = tracer.spans[0]
    total = sum(s[4] - s[3] - s[6] for s in tracer.spans)
    check(abs(total - (root[4] - root[3])) < 1e-9, "self times do not sum to the root span")
    print("PASS tracer wraps from-imports and module globals, and restores them")


def test_crit_golden_comparison() -> None:
    text = (ROOT / "cases" / "golden" / "crit_quadric.json").read_text()
    want = json.loads(text)
    check(wls._same_crit(json.loads(text), want) == "", "golden differs from itself")
    moved = json.loads(text)
    moved["result"]["points"][0]["value"]["re"] += 1e-3
    check(wls._same_crit(moved, want) != "", "a moved critical value went unnoticed")
    noisy = json.loads(text)
    noisy["result"]["points"][0]["coords"][0]["re"] *= 1 + 1e-11
    noisy["result"]["points"][0]["residual"] = 3e-13
    check(wls._same_crit(noisy, want) == "", "float noise counted as a difference")
    print("PASS crit goldens compare numerically")


def _run(workload: str, seed: int, trace: int, seconds: int = 1) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    check(proc.returncode == 0, f"{workload} run failed: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_traced_runs() -> None:
    for name in wls.WORKLOADS:
        report, result = _run(name, 3, 1)
        check(report["traced_identical"], f"{name}: traced and untraced results differ")
        check(result["correct"], f"{name}: traced run reported a wrong output")
        m = report["all_metrics"]
        gap = 1 - m["trace.attributed_share"]
        check(0 <= gap <= max(m["trace.overhead_share"], 0.01),
              f"{name}: self times miss {gap:.4f} of the job wall time")
        check(result["failed"] == 0, f"{name}: failures {report['failures']}")
        if name == "cli-golden":
            check(m["critical.probe_found_share"] < 1 and m["critical.probe_spurious"] > 0,
                  "the solver's known defects no longer show in the probe; "
                  "update this check, DEFECT_PROBES and CHANGES.md")
        print(f"PASS {name}: traced == untraced, self times cover the job wall time")


def test_refuses_without_sources() -> None:
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns(
            "out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "periods-deep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "the benchmark ran without lgforge sources")
    print("PASS refuses to run without the package sources")


def main() -> int:
    tests = [test_oracles_match_lgforge, test_charts_keep_the_oracle,
             test_generator_is_deterministic, test_tracer_patches_every_namespace,
             test_crit_golden_comparison, test_refuses_without_sources, test_traced_runs]
    try:
        for test in tests:
            test()
    except AssertionError as exc:
        print(f"FAIL {test.__name__}: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
