#!/usr/bin/env python3
"""lgforge benchmark: one seeded workload, checked against closed forms.

Run from the root of a checkout::

    python3 perfbench/run.py --workload periods-deep --seed 1 --seconds 40 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``periods-deep`` - in-process ``period_sequence``, ``is_weak_lg``,
  ``check_period_invariance`` and ``tangency_number`` on charted potentials;
* ``cli-golden``   - one ``python -m lgforge ... --format json`` child per
  entry of ``cases/golden_manifest.json``, three of them ``crit`` searches.

A run is a closed loop with one caller.  It runs a fixed number of whole
rounds (every job kind once, in seeded order): as many as fit in
``--seconds`` at the workload's nominal round time, and at least one, so
every run of a workload does the same work whatever the machine's speed.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate traced replay of round 0 (on cli-golden also
``critical.probe_*``, the solver's known defects measured on fixed inputs).
The last line of stdout is the result object; the line before it is a
report with the environment block, every metric and every failure, which is
also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7
STARTUP_PROBES = 5
CLI_COMMAND_ROUNDS = 2
# Stop starting rounds after this long, whatever the round count, so a run
# always ends within three minutes.
HARD_STOP_S = 120.0
PROBE_TIMEOUT_S = 120

perf = time.perf_counter


class PreflightError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _under(path: str, directory: Path) -> bool:
    try:
        Path(path).resolve().relative_to(directory.resolve())
    except ValueError:
        return False
    return True


def preflight():
    """Import lgforge from this checkout's ``src``, in this process and in a child."""
    src = ROOT / "src"
    if not (src / "lgforge" / "__init__.py").is_file():
        raise PreflightError(f"no lgforge package under {src}")
    sys.path.insert(0, str(src))
    import lgforge
    import lgforge.cli  # noqa: F401  (imports every layer module)

    if not _under(lgforge.__file__, src):
        raise PreflightError(f"lgforge imported from {lgforge.__file__}, not from {src}")
    from workloads import cli_env

    child = subprocess.run(
        [sys.executable, "-c", "import lgforge; print(lgforge.__file__)"],
        cwd=ROOT, env=cli_env(ROOT), capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S)
    if child.returncode != 0 or not _under(child.stdout.strip(), src):
        raise PreflightError(f"a child process imports lgforge from {child.stdout.strip()!r} "
                             f"(exit {child.returncode}): {child.stderr.strip()}")
    return lgforge


def setup(workload: str, seed: int):
    """Import, generate round 0 and warm up: the work ``setup_s`` times."""
    lg = preflight()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](lg, ROOT, seed)
    jobs = wl.round_jobs(0)
    wl.warm_up()
    return lg, wl, jobs


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that only set up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        times.append(perf() - t0)
        if proc.returncode != 0:
            raise PreflightError(f"set-up probe failed: {proc.stderr.strip()}")
    return times


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

def run_job(job, call, round_index: int, failures: list) -> tuple[float, str, object]:
    """Time one call; classify its output as ok, failed or wrong."""
    t0 = perf()
    try:
        result = call()
    except Exception as exc:  # a job that raises is a failure, not the end of the run
        latency = perf() - t0
        status, detail, result = "failed", f"{type(exc).__name__}: {exc}", None
    else:
        latency = perf() - t0
        try:
            status, detail = job.check(result)
        except Exception as exc:  # an output the check cannot read is wrong
            status, detail = "wrong", f"check raised {type(exc).__name__}: {exc}"
    if status != "ok":
        failures.append({"job": job.kind, "round": round_index, "status": status,
                         "detail": detail, "inputs": job.describe})
    return latency, status, result


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (the 'inclusive' method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure(wl, jobs, seconds: float) -> dict:
    """The untraced closed loop: as many whole rounds as fit in ``seconds`` nominally."""
    latencies, statuses, failures = [], [], []
    by_kind = defaultdict(list)
    target = max(1, int(seconds / wl.round_s))
    rounds = 0
    t_start = perf()
    while True:
        for job in jobs:
            latency, status, _ = run_job(job, job.call, rounds, failures)
            latencies.append(latency)
            statuses.append(status)
            by_kind[job.kind].append(latency * 1e3)
        rounds += 1
        if rounds >= target or perf() - t_start > HARD_STOP_S:
            break
        jobs = wl.round_jobs(rounds)
    ok = statuses.count("ok")
    tail = percentile(latencies, wl.tail_percentile)
    usage = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return {
        "rounds": rounds,
        "window_s": perf() - t_start,
        "attempted": len(statuses),
        "failed": len(statuses) - ok,
        "wrong": statuses.count("wrong"),
        "failures": failures,
        "metrics": {
            "jobs_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_tail_ms": tail * 1e3,
            "failed_share": (len(statuses) - ok) / len(statuses),
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
        },
        "tail_percentile": wl.tail_percentile,
        "samples": len(latencies),
        "samples_beyond_tail": sum(1 for x in latencies if x > tail),
        "latency_p50_ms_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
    }


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

def startup_probes(env: dict) -> dict:
    """Interpreter start from ``python -c pass``; import costs from ``-X importtime``."""
    interp, imports, numpy_ms = [], [], []
    for _ in range(STARTUP_PROBES):
        t0 = perf()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True,
                       timeout=PROBE_TIMEOUT_S)
        interp.append((perf() - t0) * 1e3)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lgforge.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        top, numpy_us = 0, 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            module, depth = name.strip(), len(name) - len(name.lstrip())
            if depth == 1 and (module == "lgforge" or module.startswith("lgforge.")):
                top += int(parts[1])
            if module == "numpy":
                numpy_us = max(numpy_us, int(parts[1]))
        imports.append(top / 1e3)
        numpy_ms.append(numpy_us / 1e3)
    return {"startup.interpreter_ms": statistics.median(interp),
            "startup.import_ms": statistics.median(imports),
            "startup.import_numpy_ms": statistics.median(numpy_ms)}


def cli_command_ms(jobs) -> dict:
    """Median subprocess wall time of every golden command."""
    times = defaultdict(list)
    for _ in range(CLI_COMMAND_ROUNDS):
        for job in jobs:
            t0 = perf()
            job.call()
            times[job.kind.removeprefix("cli/")].append((perf() - t0) * 1e3)
    return {f"cli.cmd.{name}_ms": statistics.median(v) for name, v in times.items()}


def measure_traced(wl, jobs, seconds: float) -> dict:
    """Alternate untraced and traced replays of round 0; per-layer numbers are per round."""
    from tracer import Tracer
    from workloads import cli_env

    t_start = perf()
    layer = startup_probes(cli_env(ROOT))
    if not wl.in_process:
        layer.update(cli_command_ms(jobs))
    probe = wl.defect_probe()
    tracer = Tracer()
    failures, statuses = [], []
    untraced_s = traced_s = 0.0
    points_expected = 0
    replays = 0
    identical = True

    def plain(job):
        call = job.call if wl.in_process else job.call_inprocess
        latency, status, result = run_job(job, call, replays, failures)
        statuses.append(status)
        return latency, result

    def traced(job, i):
        nonlocal points_expected
        tracer.job = i
        searches = tracer.counters["critical.searches"]
        tracer.install()
        try:
            out = plain(job)
        finally:
            tracer.uninstall()
        points_expected += job.expected_points * (tracer.counters["critical.searches"] - searches)
        return out

    # Each job runs untraced and traced back to back, in alternating order,
    # so that both sides of the overhead ratio see the same machine load.
    t_replay = perf()
    while True:
        for i, job in enumerate(jobs):
            if (replays + i) % 2:
                t_lat, t_res = traced(job, i)
                u_lat, u_res = plain(job)
            else:
                u_lat, u_res = plain(job)
                t_lat, t_res = traced(job, i)
            untraced_s += u_lat
            traced_s += t_lat
            digest = [job.digest(r) if r is not None else None for r in (u_res, t_res)]
            if digest[0] != digest[1]:
                identical = False
                failures.append({"job": job.kind, "round": replays, "status": "wrong",
                                 "detail": "traced and untraced results differ",
                                 "inputs": job.describe})
        replays += 1
        elapsed = perf() - t_replay
        left = seconds - (t_replay - t_start)
        if elapsed * (replays + 1) / replays > left or perf() - t_start > HARD_STOP_S:
            break

    self_s, calls = tracer.per_layer()
    count = tracer.counters

    def per_round(x):
        return x / replays

    def busy(key):
        return per_round(self_s.get(key, 0.0)) * 1e3

    found = per_round(count["critical.points_found"])
    expected = per_round(points_expected)
    layer.update({
        "parsing.calls": per_round(calls["parsing"]),
        "parsing.busy_ms": busy("parsing"),
        "laurent.mul_calls": per_round(count["laurent.mul_calls"]),
        "laurent.term_products": per_round(count["laurent.term_products"]),
        "laurent.max_support": count["laurent.max_support"],
        "laurent.busy_ms": busy("laurent"),
        "laurent.eval_calls": per_round(calls["laurent.eval"]),
        "laurent.eval_busy_ms": busy("laurent.eval"),
        "periods.calls": per_round(calls["periods"]),
        "periods.busy_ms": busy("periods"),
        "periods.max_coeff_bits": count["periods.max_coeff_bits"],
        "cover.calls": per_round(calls["cover"]),
        "cover.busy_ms": busy("cover"),
        "lattice.calls": per_round(calls["lattice"]),
        "lattice.busy_ms": busy("lattice"),
        "mutation.calls": per_round(calls["mutation"]),
        "mutation.busy_ms": busy("mutation"),
        "critical.searches": per_round(count["critical.searches"]),
        "critical.starts": per_round(count["critical.starts"]),
        "critical.busy_ms": busy("critical"),
        "critical.points_found": found,
        "critical.points_expected": expected,
        "critical.found_ratio": found / expected if expected else 0.0,
        "critical.probe_found_share": probe["found_share"] if probe else 0.0,
        "critical.probe_spurious": probe["spurious"] if probe else 0,
        "cli.self_ms": busy("cli"),
        "trace.overhead_share": traced_s / untraced_s - 1,
        "trace.attributed_share": sum(self_s.values()) / traced_s,
    })
    tracer.dump(OUT / f"spans-{wl.name}-seed{wl.seed}.json")
    ok = statuses.count("ok")
    return {
        "rounds": replays,
        "window_s": perf() - t_start,
        "attempted": len(statuses),
        "failed": len(statuses) - ok,
        "wrong": statuses.count("wrong") + (0 if identical else 1),
        "failures": failures,
        "metrics": layer,
        "traced_identical": identical,
        "defect_probe": probe,
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(lg, args) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "git_commit": git_commit(),
        "source_sha256": source_sha256(), "lgforge_file": lg.__file__,
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        spec = load_spec()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise PreflightError(f"unknown workload {args.workload!r}")
        if args.setup_probe:
            setup(args.workload, args.seed)
            return 0
        lg, wl, jobs = setup(args.workload, args.seed)
        setup_runs = [] if args.trace else setup_seconds(args.workload, args.seed)
    except (PreflightError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        run = measure_traced(wl, jobs, args.seconds)
        wanted = spec["per_layer"]
    else:
        run = measure(wl, jobs, args.seconds)
        run["metrics"]["setup_s"] = statistics.median(setup_runs)
        run["setup_runs_s"] = setup_runs
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if wl.in_process:  # no CLI command runs in an in-process workload
        for name in units:
            if name.startswith("cli.cmd."):
                run["metrics"][name] = 0.0
    metrics = {name: {"value": run["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    report = {
        "environment": environment(lg, args),
        **{k: v for k, v in run.items() if k != "metrics"},
        "all_metrics": run["metrics"],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n")
    for f in run["failures"]:
        print(f"perfbench: {f['status']} {f['job']} (round {f['round']}): {f['detail']} "
              f"inputs={json.dumps(f['inputs'], default=str)}", file=sys.stderr)
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": run["wrong"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
