"""End-to-end and per-layer benchmark of the paper workflows.

Run from the repository root::

    python3 perfbench/run.py --workload resnet152-live --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures the per-layer metrics in a traced run (see
``tracer.py``) next to untraced repetitions of the same journey, whose
ratio is ``trace.overhead``.  The human-readable report goes first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs the package path above)
from calibration import calibrated  # noqa: E402
from repro.core import VIEW_NAMES, RunData, variability_report  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, perf  # noqa: E402

REFERENCES = os.path.join(HERE, "references.json")
#: Set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: Timed repetitions a run makes even when ``--seconds`` is shorter.
MIN_REPETITIONS = 3


def declared(key: str):
    """What ``BENCHMARK.json`` declares under ``key``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[key]


def metric_units(kind: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    return {metric["name"]: metric["unit"] for metric in declared(kind)}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_seconds(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter: imports, workflow
    construction and platform assembly, calibrated inside the probe
    (``setup_probe.py``)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
         str(seed)],
        check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def load_reference(workload, seed: int):
    """Recorded fingerprints for ``(workload, seed)``, or ``None``."""
    try:
        with open(REFERENCES) as fh:
            entry = json.load(fh).get(workload.name)
    except FileNotFoundError:
        return None
    if entry is None:
        return None
    if (entry["scale"], entry["n_runs"]) != (workload.scale,
                                             workload.n_runs):
        raise SystemExit(f"{REFERENCES} was recorded for another scale of "
                         f"{workload.name}; re-run record_references.py")
    return entry["seeds"].get(str(seed))


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def meta(workload, args, reference_source: str) -> dict:
    return {
        "cpus": workloads.nproc(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "seed": args.seed,
        "workload": workload.name,
        "scale": workload.scale,
        "n_runs": workload.n_runs,
        "workers": workloads.nproc() if workload.mode == "batch" else 1,
        "estimator": "median of calibrated repetitions; set-up: median "
                     f"of {SETUP_PROBES} calibrated fresh-interpreter "
                     "probes; peak RSS: process high-water mark",
        "reference": reference_source,
    }


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------

class Tally:
    """Attempted/failed repetitions against the reference fingerprints."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def run(self, fn, *args):
        """Run one repetition; its outcome, or ``None`` if it failed."""
        self.attempted += 1
        try:
            outcome = fn(*args)
        except Exception:  # a repetition that raises counts as failed
            traceback.print_exc()
            self.failed += 1
            return None
        problems = list(outcome.problems)
        if self.reference is None:
            self.reference = outcome.fingerprints
        problems += workloads.compare(outcome.fingerprints, self.reference)
        if problems:
            print("incorrect repetition:\n  " + "\n  ".join(problems),
                  file=sys.stderr)
            self.failed += 1
            return None
        return outcome


def peak_rss_mb() -> float:
    """High-water resident set of this process and its waited-for
    children (the ``run_many`` pool), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(workload, args, tally: Tally, workdir: str):
    """Normalised samples of every end-to-end metric, and the raw wall
    times of the repetitions."""
    setups = [setup_seconds(workload.name, args.seed)
              for _ in range(SETUP_PROBES)]
    tally.run(workloads.journey, workload, args.seed, workdir)  # warm-up
    e2e, analysis, wall = [], [], []
    deadline = perf() + args.seconds
    while perf() < deadline or len(e2e) < MIN_REPETITIONS:
        gc.collect()
        outcome, factor = calibrated(tally.run, workloads.journey, workload,
                                     args.seed, workdir)
        if outcome is None:
            if tally.failed > tally.attempted // 2:
                break
            continue
        e2e.append(outcome.e2e_s * factor)
        analysis.append(outcome.analysis_s * factor)
        wall.append(outcome.e2e_s)
    if not e2e:  # every repetition failed; ``correct`` is false
        e2e = analysis = wall = [0.0]
    return {"setup_s": setups, "e2e_s": e2e, "analysis_s": analysis,
            "peak_rss_mb": [peak_rss_mb()]}, wall


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def probe_workload(workload):
    """The single-repetition journey the traced run times layer by
    layer: the workload itself, or for a batch workload one offline
    repetition of its workflow at the batch's scale."""
    if workload.mode != "batch":
        return workload
    return dataclasses.replace(workload, mode="offline", n_runs=1)


def traced_single(workload, seed: int, workdir: str):
    """One traced repetition, its layer values in ``extra``."""
    tracer = Tracer().install(workload.workflow)
    try:
        result, outcome = workloads.single(workload, seed, workdir,
                                            monitor=tracer.observer())
        outcome.e2e_s -= tracer.excluded_s
        # Complete the layers the journey itself does not reach, so
        # every workload reports every layer: persist and reload the
        # live run; run the variability report over the one run.
        run = tracer.runs[-1]
        run_dir = result.run_dir
        if run_dir is None:
            run_dir = run.persist(workdir, workflow=workload.workflow(
                workload.scale).describe())
        persist_bytes = workloads.directory_bytes(run_dir)
        loaded = RunData.load(run_dir)
        start = perf()
        variability_report([result])
        variability_s = perf() - start
    finally:
        tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    data = result.data
    events = data.events
    transitions = sum(1 for e in events if e["type"] == "transition"
                      and e["source"] == "scheduler")
    fp = outcome.fingerprints[0]
    counts = fp["events"]
    s, calls, wakeups = tracer.self_s, tracer.calls, tracer.wakeups
    flushes = sum(p.n_flushes for p in run.producers)
    views = {name: s[f"views.{name}"] for name in VIEW_NAMES}
    values = {
        "sim.events": sum(tracer.engine_events.values()),
        **{f"sim.events.{kind}": tracer.engine_events[kind]
           for kind in ("timeout", "initialize", "process", "condition",
                        "plain")},
        "sim.processes": tracer.processes,
        "sim.self_s": s["sim"],
        "sim.makespan_s": fp["makespan_s"],
        "scheduler.transitions": transitions,
        "scheduler.self_s": s["scheduler"],
        "scheduler.us_per_transition":
            s["scheduler"] / max(transitions, 1) * 1e6,
        "scheduler.steals": counts.get("steal", 0),
        "scheduler.process_self_s": s["scheduler.process"],
        "worker.tasks": fp["tasks"],
        "worker.compute_self_s": s["worker.compute"],
        "worker.gather_self_s": s["worker.gather"],
        "worker.fetches": counts.get("communication", 0),
        "worker.fetch_bytes": sum(e["nbytes"] for e in events
                                  if e["type"] == "communication"),
        "worker.loop_wakeups": wakeups["worker.loop"],
        "worker.gc_wakeups": wakeups["worker.gc"],
        "worker.heartbeat_wakeups": wakeups["worker.heartbeat"],
        "worker.background_self_s": sum(
            s[f"worker.{b}"] for b in ("loop", "gc", "heartbeat", "spill")),
        "worker.warnings": counts.get("warning", 0),
        "worker.spills": counts.get("spill", 0),
        "network.self_s": s["network"],
        "plugins.events": sum(n for name, n in calls.items()
                              if name.startswith("plugins.")),
        **{f"plugins.events.{kind}": calls[f"plugins.{kind}"]
           for kind in ("transition", "task_run", "communication",
                        "warning")},
        "plugins.self_s": s["plugins"],
        "producer.pushes": calls["producer.push"],
        "producer.flushes": flushes,
        "producer.flusher_wakeups": wakeups["producer.flusher"],
        "producer.useful_wakeup_ratio":
            flushes / max(wakeups["producer.flusher"], 1),
        "producer.self_s": (s["producer.push"] + s["producer.flusher"]
                            + s["producer.flush"]),
        "mofka.produce_rpcs": run.mofka.n_produce_rpcs,
        "mofka.bytes_ingested": run.mofka.bytes_ingested,
        "mofka.produce_self_s": s["mofka.produce"],
        "mofka.append_self_s": s["mofka.append"],
        "mofka.read_self_s": s["mofka.read"],
        "mofka.dump_s": tracer.incl_s["mofka.dump"],
        "darshan.io_calls": calls["darshan.io"],
        "darshan.dxt_segments": sum(len(r.finalize().dxt_segments)
                                    for r in run.darshan_runtimes),
        "darshan.io_self_s": s["darshan.io"],
        "darshan.finalize_s": tracer.incl_s["darshan.finalize"],
        "darshan.write_s": tracer.incl_s["darshan.write"],
        "pfs.ops": calls["pfs"],
        "pfs.self_s": s["pfs"],
        "setup.platform_s": s["setup"],
        "persist.s": tracer.incl_s["persist"],
        "persist.logs_s": s["persist"],
        "persist.bytes": persist_bytes,
        "provenance.self_s": s["provenance"],
        "ingest.s": tracer.incl_s["ingest"],
        "ingest.events": len(loaded.events),
        "ingest.darshan_load_s": tracer.incl_s["ingest.darshan_load"],
        "views.s": sum(views.values()),
        **{f"views.{name}_s": value for name, value in views.items()},
        "analysis.phases_s": tracer.incl_s["analysis.phases"],
        "analysis.critical_path_s": tracer.incl_s["analysis.critical_path"],
        "other.self_s": s["other"],
        "runner.elapsed_s": tracer.phase_s,
        "runner.result_bytes": tracer.result_bytes,
        "runner.parallel_efficiency": 1.0,
        "variability.s": variability_s,
        "trace.sim_phase_s": tracer.phase_s,
        "trace.unattributed_s": tracer.phase_s - tracer.attributed_s,
        "trace.attributed_share": tracer.attributed_s / tracer.phase_s,
    }
    outcome.extra["layers"] = values
    return outcome


def traced_batch(workload, seed: int):
    """The batch with a stopwatch on each repetition: runner fan-out,
    result transport and the cross-run report."""
    from repro.workflows import runner

    original = runner.__dict__["run_workflow"]

    def run_workflow(*args, **kwargs):
        start = perf()
        result = original(*args, **kwargs)
        result.bench_wall_s = perf() - start
        return result

    runner.run_workflow = run_workflow
    try:
        start = perf()
        results = workloads.batch_run(workload, seed)
        elapsed = perf() - start
    finally:
        runner.run_workflow = original
    nbytes = len(pickle.dumps(results))
    start = perf()
    _, problems = workloads.batch_analyse(workload, results)
    variability_s = perf() - start
    layers = {
        "runner.elapsed_s": elapsed,
        "runner.result_bytes": nbytes,
        "runner.parallel_efficiency":
            sum(r.bench_wall_s for r in results)
            / (workloads.nproc() * elapsed),
        "variability.s": variability_s,
    }
    return workloads.Outcome(
        elapsed + variability_s, variability_s,
        [workloads.fingerprint(r.data) for r in results], problems,
        {"layers": layers})


def measure_traced(workload, args, tally: Tally, workdir: str):
    """Alternate untraced and traced repetitions of the probe journey
    (and, for a batch workload, a stopwatched batch) until
    ``--seconds`` have passed."""
    probe = probe_workload(workload)
    probe_tally = tally
    if probe is not workload:
        # The probe is the batch's first repetition on its own.
        probe_tally = Tally(tally.reference[:1] if tally.reference
                            else None)
    probe_tally.run(workloads.journey, probe, args.seed, workdir)  # warm-up
    untraced, traced, layers = [], [], []
    deadline = perf() + args.seconds
    while perf() < deadline or len(traced) < 2:
        gc.collect()
        plain, plain_factor = calibrated(probe_tally.run, workloads.journey,
                                         probe, args.seed, workdir)
        gc.collect()
        both, both_factor = calibrated(probe_tally.run, traced_single,
                                       probe, args.seed, workdir)
        batch = None
        if probe is not workload:
            gc.collect()
            batch = tally.run(traced_batch, workload, args.seed)
        if plain is None or both is None or (
                probe is not workload and batch is None):
            if tally.failed + probe_tally.failed > len(traced) + 2:
                break
            continue
        values = both.extra["layers"]
        if batch is not None:
            values.update(batch.extra["layers"])
        untraced.append(plain.e2e_s * plain_factor)
        traced.append(both.e2e_s * both_factor)
        layers.append(values)
    if probe_tally is not tally:
        tally.attempted += probe_tally.attempted
        tally.failed += probe_tally.failed
    return untraced, traced, layers


def summarise_layers(untraced, traced, layers,
                     per_layer: dict) -> tuple[dict, list]:
    """Median of each time across traced repetitions; counts must
    repeat exactly."""
    if not layers:
        return {name: 0.0 for name in per_layer}, \
            ["no traced repetition succeeded"]
    problems = []
    result = {}
    for name, unit in per_layer.items():
        if name == "trace.overhead":
            continue
        values = [layer[name] for layer in layers]
        if unit in ("count", "B"):
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced "
                                f"repetitions: {sorted(set(values))}")
            result[name] = values[0]
        else:
            result[name] = statistics.median(values)
    result["trace.overhead"] = statistics.median(traced) / \
        statistics.median(untraced)
    return result, problems


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def print_samples(samples: dict, wall: list, end_to_end: dict) -> None:
    print(f"{'metric':<16} {'unit':<6} {'median':>12} {'max':>12} "
          f"{'n':>4}")
    for name, unit in end_to_end.items():
        values = samples[name]
        print(f"{name:<16} {unit:<6} {statistics.median(values):>12.6g} "
              f"{max(values):>12.6g} {len(values):>4}")
    print(f"{'e2e wall (raw)':<16} {'s':<6} {statistics.median(wall):>12.6g} "
          f"{max(wall):>12.6g} {len(wall):>4}")


def print_layers(values: dict, per_layer: dict) -> None:
    print(f"{'layer metric':<32} {'unit':<6} {'value':>14}")
    for name, unit in per_layer.items():
        print(f"{name:<32} {unit:<6} {values[name]:>14.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared("workloads")])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    reference = load_reference(workload, args.seed)
    tally = Tally(reference)
    workdir = os.path.join(os.getcwd(), ".perfbench_work",
                           f"{workload.name}-{os.getpid()}")
    try:
        if args.trace:
            untraced, traced, layers = measure_traced(
                workload, args, tally, workdir)
            per_layer = metric_units("per_layer")
            values, problems = summarise_layers(untraced, traced, layers,
                                                per_layer)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                tally.failed += 1
            print_layers(values, per_layer)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in per_layer.items()}
        else:
            end_to_end = metric_units("end_to_end")
            samples, wall = measure(workload, args, tally, workdir)
            print_samples(samples, wall, end_to_end)
            metrics = {name: {"value": statistics.median(samples[name]),
                              "unit": unit}
                       for name, unit in end_to_end.items()}
    finally:
        shutil.rmtree(os.path.dirname(workdir), ignore_errors=True)
    source = "recorded" if reference is not None else "warm-up repetition"
    print(json.dumps({"meta": meta(workload, args, source)}))
    print(f"error_rate {tally.failed / max(tally.attempted, 1):.3f} "
          f"({tally.failed}/{tally.attempted})")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
