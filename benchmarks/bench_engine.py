#!/usr/bin/env python
"""Simulation-kernel benchmark: event throughput and repetition scaling.

Two tiers, mirroring how the engine is actually exercised:

* **micro** — synthetic event storms hammering the kernel's hot paths:

  - ``timeout_ring``: many processes sleeping on positive-delay
    timeouts spread over distinct deadlines (the timed heap);
  - ``zero_delay``: producer/consumer pairs over a :class:`Store`
    whose puts/gets succeed immediately (the zero-delay fast lane:
    ``succeed()``/``Initialize`` traffic that never touches the
    timed lane);
  - ``mixed``: a 50/50 interleaving of timeouts and immediate events,
    closest to what a real workflow run generates.

  Throughput is *scheduled events per second* (the engine's ``_seq``
  counter over wall time), the best of the repetitions, with the
  garbage collector paused in the timed region.

* **run_many** — end-to-end repetition fan-out across the paper
  workflows: serial vs. thread vs. process executors (asserting
  byte-identical event streams per ``run_index``), plus a process-pool
  speedup curve over worker counts.  ``meta.cpus`` records the
  machine's core count — process-pool speedup is bounded by it.

Run::

    PYTHONPATH=src python benchmarks/bench_engine.py
    PYTHONPATH=src python benchmarks/bench_engine.py --smoke
    PYTHONPATH=src python benchmarks/bench_engine.py --json BENCH_engine.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "src"))

from repro.sim import Environment, Store  # noqa: E402

OUT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "out", "engine.txt")

#: Wall-time budget for ``--smoke`` (seconds): every micro cell plus
#: the tiny run_many pass must finish inside it, or the run exits 1.
SMOKE_BUDGET_SECONDS = 90.0

#: Processes (or producer/consumer pairs) per micro storm.
MICRO_PROCS = 50


# ---------------------------------------------------------------------------
# micro workloads
# ---------------------------------------------------------------------------

def _timeout_ring(n_procs: int, n_steps: int) -> Environment:
    """Timed storm over distinct deadlines (one period per process)."""
    env = Environment()

    def sleeper(delay):
        for _ in range(n_steps):
            yield env.timeout(delay)

    for i in range(n_procs):
        env.process(sleeper(0.5 + 0.01 * i))
    return env


def _zero_delay(n_pairs: int, n_items: int) -> Environment:
    """Fast-lane storm: immediate Store put/get succeed() traffic."""
    env = Environment()

    def producer(store):
        for i in range(n_items):
            yield store.put(i)

    def consumer(store):
        for _ in range(n_items):
            yield store.get()

    for _ in range(n_pairs):
        store = Store(env)
        env.process(producer(store))
        env.process(consumer(store))
    return env


def _mixed(n_procs: int, n_steps: int) -> Environment:
    """Alternating timeout / immediate-event traffic."""
    env = Environment()

    def worker(delay):
        for i in range(n_steps):
            yield env.timeout(delay)
            done = env.event()
            done.succeed(i)
            yield done

    for i in range(n_procs):
        env.process(worker(0.25 + 0.01 * i))
    return env


MICRO_WORKLOADS = {
    "timeout_ring": _timeout_ring,
    "zero_delay": _zero_delay,
    "mixed": _mixed,
}


def _timed_run(env: Environment) -> float:
    """Drain ``env`` with the collector paused; return elapsed seconds."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        env.run()
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_micro(repeats: int, scale: int) -> dict:
    """Best-of-``repeats`` events/s per cell, ``scale`` steps each.

    Each pass runs every cell once, so slow host drift (a shared host's
    CPU speed can drift by ~40% over tens of seconds, and noise only
    ever slows a pass down) spreads over all cells instead of biasing
    one.
    """
    rates: dict[str, list[float]] = {name: [] for name in MICRO_WORKLOADS}
    events: dict[str, int] = {}
    for _ in range(repeats):
        for name, build in MICRO_WORKLOADS.items():
            env = build(MICRO_PROCS, scale)
            elapsed = _timed_run(env)
            events[name] = env._seq
            rates[name].append(env._seq / elapsed)
    return {name: {"events": events[name],
                   "events_per_s": round(max(rates[name]))}
            for name in MICRO_WORKLOADS}


def git_revision() -> str:
    """Commit measured, suffixed ``-dirty`` for uncommitted edits."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


# ---------------------------------------------------------------------------
# end-to-end run_many scaling
# ---------------------------------------------------------------------------

def run_scaling(scale: float, n_runs: int, workers: int,
                workflows: list[str],
                worker_curve: list[int] | None = None) -> dict:
    from functools import partial

    from repro.workflows import (
        ImageProcessingWorkflow,
        ResNet152Workflow,
        XGBoostWorkflow,
        run_many,
    )

    factories = {
        "ImageProcessing": ImageProcessingWorkflow,
        "ResNet152": ResNet152Workflow,
        "XGBOOST": XGBoostWorkflow,
    }

    results: dict[str, dict] = {}
    for name in workflows:
        factory = partial(factories[name], scale=scale)
        timings: dict[str, float] = {}
        streams: dict[str, list] = {}
        for executor in ("serial", "thread", "process"):
            gc.collect()
            start = time.perf_counter()
            runs = run_many(factory, n_runs=n_runs, seed=1,
                            workers=workers, executor=executor)
            timings[executor] = time.perf_counter() - start
            streams[executor] = [r.data.events for r in runs]
        if not (streams["serial"] == streams["thread"]
                == streams["process"]):
            raise AssertionError(
                f"{name}: event streams differ across executors")
        row = {
            "n_runs": n_runs,
            "workers": workers,
            "serial_s": round(timings["serial"], 3),
            "thread_s": round(timings["thread"], 3),
            "process_s": round(timings["process"], 3),
            "speedup_thread": round(
                timings["serial"] / timings["thread"], 2),
            "speedup_process": round(
                timings["serial"] / timings["process"], 2),
        }
        if worker_curve:
            curve = []
            for n_workers in worker_curve:
                gc.collect()
                start = time.perf_counter()
                run_many(factory, n_runs=n_runs, seed=1,
                         workers=n_workers, executor="process")
                process_s = time.perf_counter() - start
                curve.append({
                    "workers": n_workers,
                    "process_s": round(process_s, 3),
                    "speedup": round(timings["serial"] / process_s, 2),
                })
            row["worker_curve"] = curve
        results[name] = row
    return results


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def render(document: dict) -> str:
    lines = [f"engine benchmark (python {document['meta']['python']}, "
             f"{document['meta']['cpus']} cpu(s))"]
    lines.append("\nmicro (events/second, best of "
                 f"{document['meta']['repeats']} reps, gc off):")
    lines.append(f"  {'workload':<16} {'events':>9}  {'events/s':>12}")
    for name, row in document["micro"].items():
        lines.append(f"  {name:<16} {row['events']:>9}  "
                     f"{row['events_per_s']:>12,}")
    for name, row in document.get("run_many", {}).items():
        lines.append(
            f"\nrun_many {name}: n_runs={row['n_runs']} "
            f"workers={row['workers']}\n"
            f"  serial  {row['serial_s']:>7.3f} s\n"
            f"  thread  {row['thread_s']:>7.3f} s "
            f"({row['speedup_thread']:.2f}x)\n"
            f"  process {row['process_s']:>7.3f} s "
            f"({row['speedup_process']:.2f}x)\n"
            f"  event streams identical across executors: yes")
        for point in row.get("worker_curve", []):
            lines.append(f"  process workers={point['workers']}: "
                         f"{point['process_s']:.3f} s "
                         f"({point['speedup']:.2f}x)")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9,
                        help="passes per micro cell (default 9)")
    parser.add_argument("--micro-scale", type=int, default=2000,
                        help="steps per process in micro workloads")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="workflow scale for the run_many tier")
    parser.add_argument("--runs", type=int, default=8,
                        help="repetitions in the run_many tier (default 8)")
    parser.add_argument("--workers", type=int, default=4,
                        help="pool width in the run_many tier (default 4)")
    parser.add_argument("--worker-curve", default="1,2,4",
                        help="comma-separated process-pool widths for "
                             "the speedup curve (default 1,2,4; '' to "
                             "skip)")
    parser.add_argument("--workflows", default="ImageProcessing",
                        help="comma-separated subset of "
                             "ImageProcessing,ResNet152,XGBOOST "
                             "(default: ImageProcessing; 'all' for all)")
    parser.add_argument("--micro-only", action="store_true",
                        help="skip the end-to-end run_many tier")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for CI under a wall-time "
                             "budget: correctness + plumbing, no "
                             "artifact write")
    parser.add_argument("--json", default=None,
                        help="also write the result document to this path")
    args = parser.parse_args(argv)

    smoke_start = time.perf_counter()
    repeats = 1 if args.smoke else args.repeats
    micro_scale = 20 if args.smoke else args.micro_scale

    document = {
        "meta": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "git_revision": git_revision(),
            "estimator": "micro: max events/s over `repeats` passes "
                         "that each run every cell once, gc off; "
                         "run_many: one wall-clock pass per executor "
                         "and pool width",
            "repeats": repeats,
        },
        "micro": run_micro(repeats, micro_scale),
    }
    if not args.micro_only:
        names = (["ImageProcessing", "ResNet152", "XGBOOST"]
                 if args.workflows == "all"
                 else [w.strip() for w in args.workflows.split(",")])
        n_runs = 2 if args.smoke else args.runs
        workers = 2 if args.smoke else args.workers
        scale = min(args.scale, 0.03) if args.smoke else args.scale
        curve = [] if args.smoke else [
            int(w) for w in args.worker_curve.split(",") if w.strip()]
        document["run_many"] = run_scaling(scale, n_runs, workers, names,
                                           worker_curve=curve)

    text = render(document)
    print(text)

    if args.smoke:
        # Budget guard: the whole pass must land inside the wall-time
        # budget — a silent 10x kernel regression busts the budget
        # instead of shipping unnoticed.
        elapsed = time.perf_counter() - smoke_start
        if elapsed > SMOKE_BUDGET_SECONDS:
            print(f"smoke pass took {elapsed:.1f} s, over the "
                  f"{SMOKE_BUDGET_SECONDS:.1f} s budget",
                  file=sys.stderr)
            return 1
        print(f"smoke OK: {elapsed:.1f} s, within budget "
              f"({SMOKE_BUDGET_SECONDS:.0f} s)")
    else:
        os.makedirs(os.path.dirname(OUT_PATH), exist_ok=True)
        with open(OUT_PATH, "a", encoding="utf-8") as fh:
            fh.write(text + "\n\n")
        print(f"(appended to {OUT_PATH})")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")
        print(f"(wrote {args.json})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
