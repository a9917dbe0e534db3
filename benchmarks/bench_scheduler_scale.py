#!/usr/bin/env python
"""Scheduler scale-out benchmark: transition throughput vs cluster size.

The paper characterizes workflows on 8 workers; the ROADMAP's north
star is 10k workers / 1M tasks, where the scheduler itself becomes the
bottleneck (the knee in Böhm & Beránek's *Runtime vs Scheduler*
analysis, arXiv 2010.11105).  This benchmark measures that knee for the
simulated WMS and proves the O(1)-per-transition refactor
(``dasklike.scheduler_state.OccupancyIndex``, reverse indexes, batched
slab dispatch) actually moved it:

* **Sweep** — chain-heavy graphs over a workers x tasks grid, timing
  the drive loop only (graph build and cluster deployment excluded).
  Reported per cell: wall seconds, tasks/s, recorded transitions/s.
* **Legacy comparison** — the same cell driven with the pre-refactor
  algorithms (whole-pool ``decide_worker`` sweep, sort-based stealing
  ``balance``, per-task slab dispatch), restored verbatim via instance
  monkeypatching.  The refactor must win by ``MIN_SPEEDUP`` at the
  1k-worker gate cell.
* **Ablations** — stealing aggressiveness (interval/off), locality
  weight, and linear-chain fusion depth, at a fixed mid-size cell.

The harness never calls ``DaskCluster.start()``: per-worker heartbeat/
GC/tick processes would add 10k perpetual event sources that have
nothing to do with placement cost.  Graphs are submitted straight to
the scheduler (leaves are pinned as wanted keys) and the run waits on
the leaves' wanted events; stealing, when enabled, is driven by its
normal interval loop.

Run::

    PYTHONPATH=src python benchmarks/bench_scheduler_scale.py
    PYTHONPATH=src python benchmarks/bench_scheduler_scale.py --smoke
    PYTHONPATH=src python benchmarks/bench_scheduler_scale.py --full
    PYTHONPATH=src python benchmarks/bench_scheduler_scale.py --json out.json

``--smoke`` runs one tiny cell plus a reduced legacy comparison under a
wall-time budget (exit 1 when busted) — tier-1 pytest wires it in via
``tests/test_bench_scheduler_scale_smoke.py``.  ``--full`` extends the
sweep to the 10k-worker / 1M-task north-star cell (several minutes).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import sys
import time
import types

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "src"))

from repro.dasklike import DaskCluster, DaskConfig, TaskGraph, TaskSpec  # noqa: E402
from repro.dasklike.taskgraph import fuse_linear_chains  # noqa: E402
from repro.dasklike.states import key_str  # noqa: E402
from repro.instrument.plugins import BasePlugin  # noqa: E402
from repro.jobs import BatchSystem, JobSpec  # noqa: E402
from repro.platform import Cluster, ClusterSpec  # noqa: E402
from repro.sim import Environment, RandomStreams  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_REPORT = os.path.join(HERE, "out", "scheduler_scale.json")

#: Required advantage of the refactored scheduler over the legacy
#: algorithms at the gate cell, in task throughput.
MIN_SPEEDUP = 10.0

#: Wall-time budget for ``--smoke``, seconds.  The smoke pass drives
#: ~2.5k tasks total; a clean run takes a few seconds.
SMOKE_BUDGET_SECONDS = 60.0

#: (workers, roots, chain depth) — tasks = roots * depth.  Roots are
#: >= 2x workers so every cell exercises the root co-assignment slab
#: path; depth keeps ~all remaining tasks on the dependency path of
#: ``decide_worker`` (the hot one).
SWEEP_CELLS = [
    (100, 250, 40),      # 10k tasks
    (300, 750, 40),      # 30k tasks
    (1000, 2500, 40),    # 100k tasks — the gate cell
]
FULL_CELLS = [
    (10000, 25000, 40),  # 1M tasks — the ROADMAP north star
]

#: The legacy algorithms pay O(workers) per transition, so the
#: comparison runs shorter chains at the same worker count (throughput
#: is per transition) to keep the benchmark's own wall time sane.
LEGACY_DEPTH = 12


# ----------------------------------------------------------------------
# pre-refactor algorithms, restored verbatim for the baseline
# ----------------------------------------------------------------------
def legacy_decide_worker(self, ts):
    """Whole-pool sweep ``decide_worker`` as of the pre-refactor tree."""
    candidates = {}
    if ts.spec.deps:
        for dep in ts.spec.deps:
            for address, holder in self.tasks[key_str(dep)].who_has.items():
                if address in self.workers:
                    candidates[address] = holder
        if candidates:
            mean_occ = (self._occupancy_total
                        / max(1, len(self.occupancy)))
            threshold = self.config.idle_fraction * mean_occ
            for address, worker in self.workers.items():
                if self.occupancy[address] < threshold \
                        or self.occupancy[address] == 0.0:
                    candidates[address] = worker
    if not candidates:
        candidates = dict(self.workers)

    best = None
    best_score = float("inf")
    for address, worker in candidates.items():
        transfer_bytes = 0
        for dep in ts.spec.deps:
            dep_ts = self.tasks[key_str(dep)]
            if address not in dep_ts.who_has:
                transfer_bytes += dep_ts.nbytes
        comm_cost = (
            self.config.locality_weight
            * transfer_bytes / self.config.bandwidth_estimate
        )
        score = self.occupancy[address] + comm_cost
        if score < best_score:
            best_score = score
            best = worker
    assert best is not None
    return best


def legacy_assign_slab(self, slab, worker, stimulus):
    """Per-task dispatch: one control-plane event per root task."""
    for ts in slab:
        self._assign(ts, stimulus=stimulus, worker=worker)


def legacy_balance(self):
    """Sort-the-pool stealing round as of the pre-refactor tree."""
    sched = self.scheduler
    workers = [w for w in sched.workers.values() if not w.failed]
    if len(workers) < 2:
        return 0
    by_occ = sorted(workers, key=lambda w: sched.occupancy[w.address])
    thief = by_occ[0]
    moved = 0
    for victim in reversed(by_occ[1:]):
        if not victim.ready:
            continue
        victim_occ = sched.occupancy[victim.address]
        thief_occ = sched.occupancy[thief.address]
        if victim_occ <= sched.config.steal_ratio * max(thief_occ, 0.05):
            break
        name = next(reversed(victim.ready))
        if self._steal(name, victim, thief):
            moved += 1
        break
    return moved


def apply_legacy(dask):
    sched = dask.scheduler
    sched.decide_worker = types.MethodType(legacy_decide_worker, sched)
    sched._assign_slab = types.MethodType(legacy_assign_slab, sched)
    dask.stealing.balance = types.MethodType(legacy_balance, dask.stealing)


@contextlib.contextmanager
def uncached_keys():
    """Restore the pre-refactor cost of key rendering.

    Before this PR, ``TaskSpec.name``/``group``/``prefix`` were plain
    properties and dependency names were re-rendered with ``key_str``
    at every use — a constant-factor tax the scheduler paid on every
    transition.  The legacy baseline must pay it too, or the comparison
    understates the pre-PR per-transition cost.
    """
    from repro.dasklike import taskgraph as tg
    attrs = ("name", "group", "prefix", "dep_names")
    saved = {attr: getattr(tg.TaskSpec, attr) for attr in attrs}
    tg.TaskSpec.name = property(lambda self: tg.key_str(self.key))
    tg.TaskSpec.group = property(lambda self: tg.key_group(self.key))
    tg.TaskSpec.prefix = property(lambda self: tg.key_split(self.key))
    tg.TaskSpec.dep_names = property(
        lambda self: tuple(tg.key_str(dep) for dep in self.deps))
    try:
        yield
    finally:
        for attr, value in saved.items():
            setattr(tg.TaskSpec, attr, value)


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
#: Scheduler entry points whose wall time counts as scheduler overhead.
#: They cover graph intake, every transition-driving callback, and the
#: stealing round — the work a real scheduler burns CPU on — while the
#: worker-side simulation (compute, transfers, queueing) is the
#: *simulated workload* and identical across scheduler variants.
SCHED_ENTRY_POINTS = ("update_graph", "task_finished", "task_erred",
                      "task_timed_out", "add_replica",
                      "handle_worker_failure")


class TransitionCounter(BasePlugin):
    """Counts the transitions the scheduler hands its plugins."""

    def __init__(self):
        self.count = 0

    def transition(self, record):
        self.count += 1


def instrument_scheduler(dask):
    """Wrap scheduler entry points with a wall-clock accumulator."""
    clock = {"seconds": 0.0}

    def wrap(obj, attr):
        inner = getattr(obj, attr)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                clock["seconds"] += time.perf_counter() - start

        setattr(obj, attr, timed)

    for attr in SCHED_ENTRY_POINTS:
        wrap(dask.scheduler, attr)
    wrap(dask.stealing, "balance")
    return clock


def build_rig(n_workers, config, seed=7):
    """Scheduler + n_workers registered workers, background loops off."""
    for per_node in (8, 5, 4, 2, 1):
        if n_workers % per_node == 0:
            break
    worker_nodes = n_workers // per_node
    env = Environment()
    streams = RandomStreams(seed)
    cluster = Cluster(
        env,
        ClusterSpec(num_nodes=worker_nodes + 2, nodes_per_switch=16),
        streams,
    )
    batch = BatchSystem(env, cluster, streams)
    spec = JobSpec(worker_nodes=worker_nodes, workers_per_node=per_node,
                   threads_per_worker=2)
    job = env.run(until=env.process(batch.submit(spec)))
    dask = DaskCluster(env, cluster, job, config=config, streams=streams)
    return env, dask


def chain_graph(token, n_roots, depth):
    """n_roots independent chains of the given depth (tiny payloads)."""
    specs = []
    for root in range(n_roots):
        prev = None
        for level in range(depth):
            key = (f"chain-{token}", root * depth + level)
            specs.append(TaskSpec(
                key=key,
                deps=() if prev is None else (prev,),
                compute_time=0.001,
                output_nbytes=1024,
            ))
            prev = key
    return TaskGraph(specs)


def run_cell(n_workers, n_roots, depth, config=None, legacy=False,
             fused=False, seed=7):
    """Drive one workers x tasks cell; returns the measurement record."""
    config = config or DaskConfig(gc_base_rate=0.0, gc_pressure_rate=0.0)
    if legacy:
        with uncached_keys():
            return _run_cell_inner(n_workers, n_roots, depth, config,
                                   True, fused, seed)
    return _run_cell_inner(n_workers, n_roots, depth, config,
                           False, fused, seed)


def _run_cell_inner(n_workers, n_roots, depth, config, legacy, fused, seed):
    env, dask = build_rig(n_workers, config, seed=seed)
    if legacy:
        apply_legacy(dask)
    clock = instrument_scheduler(dask)
    counter = TransitionCounter()
    dask.scheduler.plugins.append(counter)
    if config.work_stealing:
        dask.stealing.start()
    graph = chain_graph(f"{n_workers:05d}{depth:03d}", n_roots, depth)
    n_submitted = len(graph)
    if fused:
        graph = fuse_linear_chains(graph)
    sched = dask.scheduler

    def waiter():
        index = sched.update_graph(graph)
        for name in graph.leaves():
            yield sched.wanted_event(name)
        return index

    # Collector pauses over the growing task table (one
    # SchedulerTaskState and its containers per task) would land inside
    # the instrumented entry points and swamp the per-transition signal;
    # nothing in the drive loop creates cycles that need collecting
    # mid-run.
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        env.run(until=env.process(waiter()))
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    dask.stealing.stop()

    n_tasks = len(graph)
    transitions = counter.count
    sched_seconds = max(clock["seconds"], 1e-9)
    return {
        "workers": n_workers,
        "tasks": n_tasks,
        "tasks_submitted": n_submitted,
        "depth": depth,
        "legacy": legacy,
        "fused": fused,
        "wall_seconds": round(elapsed, 4),
        "sched_seconds": round(sched_seconds, 4),
        "sim_seconds": round(env.now, 3),
        "transitions": transitions,
        "tasks_per_second": round(n_tasks / elapsed, 1),
        "transitions_per_second": round(transitions / elapsed, 1),
        # The knee metric: transitions retired per second of scheduler
        # work (graph intake, placement, completion handling, stealing
        # rounds) — worker-side simulation excluded.
        "sched_transitions_per_second": round(
            transitions / sched_seconds, 1),
        "sched_us_per_transition": round(
            1e6 * sched_seconds / max(transitions, 1), 2),
    }


# ----------------------------------------------------------------------
# benchmark sections
# ----------------------------------------------------------------------
def run_sweep(cells, log=print):
    rows = []
    for n_workers, n_roots, depth in cells:
        row = run_cell(n_workers, n_roots, depth)
        log(f"  sweep  {row['workers']:>6} workers  {row['tasks']:>8} tasks"
            f"  {row['wall_seconds']:>8.2f} s wall"
            f"  {row['sched_us_per_transition']:>7.1f} us/transition"
            f"  {row['sched_transitions_per_second']:>9.0f} trans/sched-s")
        rows.append(row)
    return rows


def run_gate(n_workers, n_roots, depth, legacy_depth=None, log=print):
    """Refactored vs legacy transition throughput at one cell.

    Throughput is transitions per second of *scheduler* time: the
    worker-side simulation dominates wall clock equally in both
    variants, and the refactor's target is the scheduler's own
    per-transition cost (the quantity Böhm & Beránek's knee is made
    of).  The legacy variant runs shallower chains — its O(workers)
    per-transition cost makes full-depth runs pointless — which is fair
    because the metric is per transition.
    """
    current = run_cell(n_workers, n_roots, depth)
    baseline = run_cell(n_workers, n_roots,
                        legacy_depth or LEGACY_DEPTH, legacy=True)
    speedup = (current["sched_transitions_per_second"]
               / max(baseline["sched_transitions_per_second"], 1e-9))
    log(f"  gate   {n_workers} workers: "
        f"{current['sched_us_per_transition']:.1f} us/transition "
        f"refactored vs {baseline['sched_us_per_transition']:.1f} legacy "
        f"-> {speedup:.1f}x (wall: {current['tasks_per_second']:.0f} vs "
        f"{baseline['tasks_per_second']:.0f} tasks/s)")
    return {"current": current, "baseline": baseline,
            "speedup": round(speedup, 2)}


def run_ablations(log=print):
    """Stealing aggressiveness, locality weight, fusion depth."""
    n_workers, n_roots, depth = 100, 250, 40
    out = {"stealing": [], "locality": [], "fusion": []}

    for label, kwargs in (
        ("off", {"work_stealing": False}),
        ("gentle-0.5s", {"work_stealing_interval": 0.5}),
        ("default-0.1s", {}),
        ("aggressive-0.02s", {"work_stealing_interval": 0.02}),
    ):
        config = DaskConfig(gc_base_rate=0.0, gc_pressure_rate=0.0,
                            **kwargs)
        row = run_cell(n_workers, n_roots, depth, config=config)
        row["variant"] = label
        out["stealing"].append(row)
        log(f"  steal  {label:<18} {row['tasks_per_second']:>10.0f} tasks/s"
            f"  ({row['sim_seconds']:.1f} sim-s)")

    for weight in (0.0, 1.0, 4.0):
        config = DaskConfig(gc_base_rate=0.0, gc_pressure_rate=0.0,
                            locality_weight=weight)
        row = run_cell(n_workers, n_roots, depth, config=config)
        row["variant"] = f"locality_weight={weight}"
        out["locality"].append(row)
        log(f"  local  weight={weight:<4} {row['tasks_per_second']:>10.0f}"
            f" tasks/s  ({row['sim_seconds']:.1f} sim-s)")

    for fused in (False, True):
        row = run_cell(n_workers, n_roots, depth, fused=fused)
        row["variant"] = "fused-chains" if fused else "unfused"
        # Per *submitted* task: fusion collapses each chain, so the
        # scheduler sees fewer (longer) tasks for the same workload.
        row["submitted_per_second"] = round(
            row["tasks_submitted"] / row["wall_seconds"], 1)
        out["fusion"].append(row)
        log(f"  fuse   {row['variant']:<13} {row['tasks']:>7} sched tasks"
            f"  {row['submitted_per_second']:>10.0f} submitted tasks/s")
    return out


def run_smoke(budget=SMOKE_BUDGET_SECONDS, log=print):
    """One tiny cell + reduced legacy comparison under a budget.

    At 64 workers the legacy O(workers) term is noise-level, so the
    speedup here is informational only; the ``MIN_SPEEDUP`` gate runs
    at 1k workers in the default mode.  Smoke asserts structure (both
    scheduler variants drive the cell to completion) and wall time.
    """
    log("scheduler scale benchmark (smoke)")
    start = time.perf_counter()
    row = run_cell(64, 160, 10)
    gate = run_gate(64, 160, 4, legacy_depth=4, log=log)
    elapsed = time.perf_counter() - start
    correct = (row["tasks"] == 1600 and row["transitions"] > 0
               and gate["current"]["tasks"] == 640
               and gate["baseline"]["tasks"] == 640
               and gate["baseline"]["transitions"] > 0)
    if not correct:
        print(f"smoke FAILED: cell={row['tasks_per_second']:.0f} tasks/s, "
              f"mini-gate={gate['speedup']:.2f}x", file=sys.stderr)
        return False
    if elapsed > budget:
        print(f"smoke pass took {elapsed:.1f} s, over the {budget:.1f} s "
              f"budget", file=sys.stderr)
        return False
    log(f"  smoke  {elapsed:.1f} s, within budget ({budget:.0f} s)"
        f"  cell={row['tasks_per_second']:.0f} tasks/s"
        f"  mini-gate={gate['speedup']:.1f}x")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="budget-guarded quick pass (CI)")
    parser.add_argument("--full", action="store_true",
                        help="extend the sweep to 10k workers / 1M tasks")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the report to PATH")
    parser.add_argument("--budget", type=float,
                        default=SMOKE_BUDGET_SECONDS,
                        help="smoke wall-time budget, seconds")
    args = parser.parse_args(argv)

    if args.smoke:
        return 0 if run_smoke(budget=args.budget) else 1

    document = {
        "meta": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "min_speedup_gate": MIN_SPEEDUP,
            "legacy_depth": LEGACY_DEPTH,
        },
    }
    cells = SWEEP_CELLS + (FULL_CELLS if args.full else [])
    print("sweep (refactored scheduler):")
    document["sweep"] = run_sweep(cells)
    print("legacy gate:")
    document["gate"] = run_gate(*SWEEP_CELLS[-1])
    print("ablations (100 workers, 10k tasks):")
    document["ablations"] = run_ablations()

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(OUT_REPORT, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"report -> {OUT_REPORT}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"report -> {args.json}")

    speedup = document["gate"]["speedup"]
    if speedup < MIN_SPEEDUP:
        print(f"FAIL: gate speedup {speedup:.1f}x < {MIN_SPEEDUP:.0f}x")
        return 1
    print(f"gate speedup {speedup:.1f}x >= {MIN_SPEEDUP:.0f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
