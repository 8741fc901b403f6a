#!/usr/bin/env python3
"""Benchmark for ruminalg: four seeded workloads, timed end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload symbolic-n3 --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

Each workload runs as a closed loop of rounds in this one process: a round
empties the program's caches, makes new ContactModel instances, times one
cold pass and then one warm pass over the same inputs, each step of a pass
timed on its own.  Another round starts while it would end within
--seconds, judged by the length of the last one.  cold_s and warm_s are
passes assembled from the fastest run of each step.  After the timed rounds
comes the correctness stage.  The last line of standard output
is one JSON object with "correct", "attempted", "failed" and "metrics": the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1 (a
separate run, which traces one cold and one warm pass).  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7
SETUP_TIMEOUT = 120


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import ruminalg
    except ImportError as exc:
        sys.exit(f"error: cannot import ruminalg from {ROOT / 'src'}: {exc}")
    if not Path(ruminalg.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"error: ruminalg was imported from {ruminalg.__file__}, not from this checkout")
    return ruminalg


def _git_sha() -> str:
    git = ROOT / ".git"
    if not git.exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _timed_pass(workload):
    """Run one pass; return the time of each of its steps and the merged
    result."""
    from workloads import PassResult

    gc.collect()
    clock = time.perf_counter
    total, times = PassResult(), []
    start = clock()
    for part in workload.run_pass():
        times.append(clock() - start)
        total.merge(part)
        start = clock()
    return times, total


def _pin(cpu: int) -> None:
    """Run the process on `cpu` alone.  Rounds take the allowed CPUs in turn:
    on a shared host each virtual CPU has phases of contention of its own,
    seconds to a minute long, which slow all code on it by up to half; one
    CPU can sit in such a phase for a whole run, two together seldom do."""
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass


def _faster(best, times):
    """Step-wise minimum of the step times so far (`best`, None at first)
    and those of one more pass.  Keeping only the minimum holds the
    benchmark's own memory fixed, so that it does not grow with the number
    of rounds and show in peak_rss_mb.

    The sum of the result is the pass time assembled from the fastest run of
    each step.  Interference from other work on a shared host only ever adds
    time, and it comes in phases of seconds; the fastest run of each short
    step is steady where a median over the run is not."""
    return times if best is None else list(map(min, best, times))


def _setup_seconds(name: str, seed: int) -> float:
    """Median wall time of a fresh interpreter that imports ruminalg and
    builds the workload's inputs.  The wait for the child blocks instead of
    polling (subprocess polls in steps of up to 50 ms when given a timeout);
    an alarm kills a child that is still running after SETUP_TIMEOUT s."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.DEVNULL,
        )
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: child.kill())
        signal.alarm(SETUP_TIMEOUT)
        try:
            code = child.wait()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        times.append(time.perf_counter() - start)
        if code != 0:
            sys.exit(f"error: the set-up of {name} exited with code {code}")
    return statistics.median(times)


class Totals:
    """Operations attempted and failed over a run, and the problems found by
    the per-pass check counts and the correctness stage."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = self.known = 0
        self.problems: list = []

    def add(self, result) -> None:
        self.attempted += result.attempted
        self.failed += result.failed
        self.known += result.known
        expected = self.workload.expected_checks()
        if result.checks != expected:
            self.problems.append(f"a pass made {result.checks} checks, expected {expected}")

    def finish(self) -> bool:
        if self.failed != self.known:
            self.problems.append(f"{self.failed - self.known} operations failed")
        self.problems += self.workload.verify()
        for problem in self.problems:
            print(f"  FAIL {problem}")
        return not self.problems


def run_timed(cls, seed: int, seconds: float):
    setup_s = _setup_seconds(cls.name, seed)
    workload = cls(seed)
    totals = Totals(workload)
    cold = warm = None  # fastest time of each step so far
    cold_totals, warm_totals = [], []
    checks = 0
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    try:
        for round_no in itertools.count():
            _pin(cpus[round_no % len(cpus)])
            round_start = time.perf_counter()
            workload.fresh()
            times, result = _timed_pass(workload)
            cold = _faster(cold, times)
            cold_totals.append(sum(times))
            totals.add(result)
            times, result = _timed_pass(workload)
            warm = _faster(warm, times)
            warm_totals.append(sum(times))
            totals.add(result)
            checks = result.checks
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break
    finally:
        os.sched_setaffinity(0, cpus)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cold_s, warm_s = sum(cold), sum(warm)
    print(f"{cls.name} seed={seed}: {len(cold_totals)} rounds of {len(cold)} steps, cold passes "
          f"{' '.join(f'{t:.3f}' for t in cold_totals)} s, warm passes "
          f"{' '.join(f'{t:.3f}' for t in warm_totals)} s, {checks} checks per pass")
    correct = totals.finish()
    metrics = {
        "setup_s": (setup_s, "s"),
        "cold_s": (cold_s, "s"),
        "warm_s": (warm_s, "s"),
        "checks_per_s": (checks / warm_s, "checks/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return correct, totals, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_traced(cls, seed: int):
    import tracing
    from ruminalg import rumin

    def solver_count():
        return len(getattr(rumin, "_solver_cache", ()))

    workload = cls(seed)
    totals = Totals(workload)
    workload.fresh()
    for _ in range(2):  # cold, then warm
        times, result = _timed_pass(workload)
        totals.add(result)
    untraced = sum(times)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.fresh()
        builds = 0
        for _ in range(2):
            before = solver_count()
            times, result = _timed_pass(workload)
            builds += solver_count() - before
            totals.add(result)
    finally:
        tracer.uninstall()
    traced = sum(times)
    print(f"{cls.name} seed={seed}: untraced warm pass {untraced:.3f} s, traced {traced:.3f} s")
    correct = totals.finish()
    metrics = tracer.metrics()
    metrics["rumin.solver_builds"]["value"] = builds
    metrics["trace.overhead"] = {"value": traced / untraced, "unit": "ratio"}
    return correct, totals, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the program, build the workload's inputs and exit")
    args = parser.parse_args(argv)

    ruminalg = _import_program()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    if args.setup_only:
        workloads.WORKLOADS[names[0]](args.seed)
        return 0

    env = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "kernel": ruminalg.kernel_name(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    print("env: " + json.dumps(env))
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        cls = workloads.WORKLOADS[name]
        if args.trace:
            ok, totals, result = run_traced(cls, args.seed)
        else:
            ok, totals, result = run_timed(cls, args.seed, args.seconds)
        for metric, entry in result.items():
            value = entry["value"]
            shown = value if isinstance(value, int) else f"{value:.6g}"
            print(f"  {metric:42s} {shown} {entry['unit']}")
        print(f"  attempted {totals.attempted}, failed {totals.failed} "
              f"(known faults {totals.known}), correct {ok}")
        correct &= ok
        attempted += totals.attempted
        failed += totals.failed
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + metric: entry for metric, entry in result.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
