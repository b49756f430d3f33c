#!/usr/bin/env python3
"""pointgap benchmark: three workloads, end-to-end and per-layer metrics.

Run one workload in this process:

    python3 perfbench/run.py --workload chain-winding --seed 1 --seconds 30 --trace 0

Run every workload, each in its own process, untraced and then traced; print
every end-to-end metric with its unit and write the full record, environment
included, to ``.bench_results/BENCH_<workload>.json``:

    python3 perfbench/run.py [--seed N] [--seconds S]

The load is a closed loop: one client runs the workload's tasks one after
another, pass after pass, and checks every output. It starts another pass
only while half of it, taken to be as long as the last one, still fits in
``--seconds`` (at least one pass), so an untraced run overshoots by at
most half a pass plus the set-up probes. BLAS runs at its default thread count.

``--trace 0`` reports the end-to-end metrics: wall and CPU time of a pass,
peak RSS of the process, and set-up time (fresh processes that import
pointgap, generate the inputs and build the first task's sector model,
spread over the run). A pass's wall (CPU) time is the sum over its tasks of
each task's fastest run in this process, and set-up time is the fastest
set-up process. On a shared host the speed of the same code swings by up to
1.75x, with every layer slowed alike, in spells that last from seconds to
most of a minute; the fastest sample of each task follows the program's own
cost, where a median follows how busy the neighbours were. The host slows
each vCPU on its own, so before each task the process moves to the CPU that
runs a short probe loop fastest at that moment; its affinity mask stays as it
was. Every sample, the median pass and the slowest pass are printed
alongside.

``--trace 1`` alternates untraced and traced passes and reports per-layer
self times and counts per pass, the tracing overhead, and a last traced pass
with every OpenBLAS pinned to one thread (the single-threaded baseline).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. It must run from the
root of a pointgap checkout: it imports ``src/pointgap`` and exits with code
2 when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import tracing
from platform_info import BlasThreads, environment
from workloads import (EXPECTED_FILE, WORKLOADS, WorkDir, build_model, check,
                       expected_record, load_expected, make_tasks, pass_order,
                       run_task)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")

SETUP_PROBES = 5       # fresh processes timed for setup_s
PROBE_TIMEOUT_S = 170
CHILD_TIMEOUT_S = 900  # one workload run in suite mode


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_probe():
    """Seconds for a fixed pure-Python loop of about a millisecond."""
    t0 = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i
    return time.perf_counter() - t0


def _move_to_fastest_cpu(cpus):
    """Move this thread onto whichever of ``cpus`` runs a short probe loop
    fastest just now, and leave its CPU affinity as it was.

    The host slows each vCPU in spells of its own, seconds long, so the CPU
    that is fast at the start of a task is likely to stay fast through it.
    The restored mask leaves the threads and processes the program starts
    free to use every CPU.
    """
    allowed = os.sched_getaffinity(0)
    speeds = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speeds.append((min(_cpu_probe() for _ in range(5)), cpu))
    os.sched_setaffinity(0, {min(speeds)[1]})
    os.sched_setaffinity(0, allowed)


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _seconds(values):
    return " ".join(f"{v:.4g}" for v in values)


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------

class Loop:
    """Closed-loop pass runner that counts attempted and failed tasks."""

    def __init__(self, tasks, seed, workdir):
        self.tasks = tasks
        self.order_rng = np.random.default_rng([seed, 1])
        self.workdir = workdir
        self.expected = load_expected()
        self.attempted = 0
        self.failed = 0
        self.samples = {task.label: [] for task in tasks}  # (wall, cpu) per run
        self.cpus = sorted(os.sched_getaffinity(0))

    def next_order(self):
        return pass_order(self.tasks, self.order_rng)

    def run_pass(self, order=None):
        """(wall seconds, CPU seconds) of one pass; checks run untimed."""
        wall = cpu = 0.0
        for task in order or self.next_order():
            _move_to_fastest_cpu(self.cpus)
            t0, c0 = time.perf_counter(), _cpu_s()
            try:
                result = run_task(task, self.workdir)
                problems = None
            except Exception as exc:  # a failed task counts; the loop goes on
                problems = [f"{type(exc).__name__}: {exc}"]
            dt, dc = time.perf_counter() - t0, _cpu_s() - c0
            wall += dt
            cpu += dc
            self.samples[task.label].append((dt, dc))
            if problems is None:
                problems = check(task, result, self.expected)
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"FAILED {task.label}: {'; '.join(problems)}", file=sys.stderr)
        return wall, cpu


def _setup(workload, seed):
    """Inputs from the seed plus the first task's sector model."""
    import pointgap.cli  # noqa: F401  (every layer, as a CLI run imports)

    tasks = make_tasks(workload, seed)
    build_model(tasks[0])  # the workload's first task, whatever the pass order
    return tasks


def _setup_probe(name, seed):
    """Seconds from starting a fresh process until it has imported pointgap,
    generated the inputs and built the first sector model.

    The probe prints the system-wide monotonic clock when it is done, so the
    time excludes its exit and the parent's polling for it.
    """
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe",
                           "--workload", name, "--seed", str(seed)],
                          cwd=ROOT, check=True, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    return float(proc.stdout.split()[-1]) - t0


def _another(start, seconds, last, excluded=0.0):
    """Whether half of a pass as long as the ``last`` one still fits in
    ``seconds``: a workload whose pass is half a run long gets two samples
    of each task, and no run overshoots by more than half a pass."""
    return time.perf_counter() - start - excluded + last / 2 <= seconds


def run_untraced(loop, seconds, name, seed):
    """Passes for ``seconds``, with the set-up probes spread over the same
    interval (between passes) so one burst of contention cannot catch them all."""
    walls, setups = [], []
    probing = 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start - probing
        if len(setups) < SETUP_PROBES and elapsed >= len(setups) * seconds / SETUP_PROBES:
            t0 = time.perf_counter()
            setups.append(_setup_probe(name, seed))
            probing += time.perf_counter() - t0
        t0 = time.perf_counter()
        walls.append(loop.run_pass()[0])
        if not _another(start, seconds, time.perf_counter() - t0, probing):
            break
    while len(setups) < SETUP_PROBES:
        setups.append(_setup_probe(name, seed))
    print(f"pass wall times (s): median {statistics.median(walls):.6g}, slowest "
          f"{max(walls):.6g}, all {_seconds(walls)}")
    for label, runs in loop.samples.items():
        print(f"task {label} wall times (s): {_seconds(w for w, _ in runs)}")
        print(f"task {label} cpu times (s): {_seconds(c for _, c in runs)}")
    print(f"set-up times (s): {_seconds(setups)}")
    return {
        "wall_s": _metric(sum(min(w for w, _ in runs) for runs in loop.samples.values()), "s"),
        "cpu_s": _metric(sum(min(c for _, c in runs) for runs in loop.samples.values()), "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        "setup_s": _metric(min(setups), "s"),
    }, len(walls)


def _traced_pass(loop, tracer, order=None):
    tracer.install(tracing.targets())
    try:
        return loop.run_pass(order)[0]
    finally:
        tracer.uninstall()


def run_traced(loop, seconds):
    """Per-layer metrics per pass (means over the traced passes, so the self
    times plus the remainder add up to ``trace.wall_s``)."""
    tracer = tracing.Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        order = loop.next_order()
        untraced.append(loop.run_pass(order)[0])
        traced.append(_traced_pass(loop, tracer, order))
        if not _another(start, seconds, time.perf_counter() - t0):
            break
    n = len(traced)
    traced_wall = sum(traced) / n
    metrics = tracing.layer_report(tracer, n)
    metrics["trace.wall_s"] = _metric(traced_wall, "s")
    metrics["trace.remainder_s"] = _metric(
        traced_wall - tracing.self_total(tracer) / n, "s")
    metrics["trace.overhead_s"] = _metric(traced_wall - sum(untraced) / len(untraced), "s")
    metrics["trace.spans"] = _metric(tracer.spans / n, "count")

    single = tracing.Tracer()
    with BlasThreads(1):
        wall_1t = _traced_pass(loop, single)
    if "spectral.lu" in single.present:
        metrics["spectral.lu_1t_s"] = _metric(single.self_s["spectral.lu"], "s")
    metrics["trace.wall_1t_s"] = _metric(wall_1t, "s")

    absent = sorted(set(tracing.LAYER_METRICS) - set(metrics))
    if absent:
        print(f"absent (wrapped names missing from the program): {', '.join(absent)}")
    return metrics, n


def run_workload(args):
    workload = WORKLOADS[args.workload]
    tasks = _setup(workload, args.seed)
    print("env: " + json.dumps(environment(), sort_keys=True))
    with WorkDir(ROOT, workload.name) as workdir:
        loop = Loop(tasks, args.seed, workdir)
        if args.trace:
            metrics, passes = run_traced(loop, args.seconds)
        else:
            metrics, passes = run_untraced(loop, args.seconds, workload.name, args.seed)

    print(f"workload {workload.name}: {passes} pass(es), seed {args.seed}")
    for name, m in metrics.items():
        print(f"  {name}: {m['value']:.6g} {m['unit']}")
    print(f"  fail_ratio: {loop.failed / loop.attempted:.6g} "
          f"({loop.failed} of {loop.attempted} tasks)")
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# every workload, each in its own process
# ---------------------------------------------------------------------------

def _child(name, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} --trace {trace} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[5:]) for line in lines if line.startswith("env: ")), None)
    return json.loads(lines[-1]), env


def run_suite(args):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    ok = True
    for name in WORKLOADS:
        e2e, env = _child(name, args.seed, args.seconds, 0)
        layers, _ = _child(name, args.seed, args.seconds, 1)
        attempted = e2e["attempted"] + layers["attempted"]
        failed = e2e["failed"] + layers["failed"]
        end_to_end = dict(e2e["metrics"])
        end_to_end["fail_ratio"] = _metric(failed / attempted, "ratio")
        record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                  "correct": failed == 0, "attempted": attempted, "failed": failed,
                  "environment": env, "end_to_end": end_to_end,
                  "per_layer": layers["metrics"]}
        path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        ok &= failed == 0
        print(f"{name}:")
        for metric, m in end_to_end.items():
            print(f"  {metric:<12s} {m['value']:>12.6g} {m['unit']}")
        print(f"  trace overhead {layers['metrics']['trace.overhead_s']['value']:.6g} s; "
              f"per-layer metrics in {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


def record_expected():
    """Rewrite expected.json from this checkout's outputs (seed 0, one pass)."""
    expected = {}
    for workload in WORKLOADS.values():
        with WorkDir(ROOT, workload.name) as workdir:
            for task in make_tasks(workload, 0):
                expected[task.label] = expected_record(task, run_task(task, workdir))
    with open(EXPECTED_FILE, "w") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {EXPECTED_FILE}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure passes for about this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite expected.json from this checkout's outputs")
    args = parser.parse_args(argv)
    if args.setup_probe and args.workload is None:
        parser.error("--setup-probe needs --workload")

    if not os.path.isfile(os.path.join(SRC, "pointgap", "__init__.py")):
        print(f"error: no pointgap sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.record_expected:
        return record_expected()
    if args.setup_probe:
        _setup(WORKLOADS[args.workload], args.seed)
        print(repr(time.monotonic()))
        return 0
    if args.workload is None:
        return run_suite(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
