"""The benchmark's workloads: one user journey each, plus its checks.

A *journey* is what one user of the stack waits for: build the
workflow, run it instrumented, get its data into PERFRECUP, and build
the standard views.  Every repetition of a workload re-runs the same
``(seed, run_index)`` pairs, so the simulated work is identical from
one repetition to the next and only host noise moves the wall time.
"""

from __future__ import annotations

import functools
import hashlib
import os
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.core import AnalysisSession, RunData, variability_report
from repro.workflows import (ImageProcessingWorkflow, ResNet152Workflow,
                             XGBoostWorkflow, runner)

perf = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    workflow: type
    scale: float
    #: ``live`` analyses the in-memory run, ``offline`` persists the run
    #: directory and loads it back, ``batch`` fans ``n_runs``
    #: repetitions out with ``run_many``.
    mode: str
    n_runs: int = 1


#: The workloads ``BENCHMARK.json`` declares, with why each was chosen.
WORKLOADS = {w.name: w for w in (
    Workload("imageprocessing-offline", ImageProcessingWorkflow, 0.1,
             "offline"),
    Workload("resnet152-live", ResNet152Workflow, 0.1, "live"),
    Workload("xgboost-live", XGBoostWorkflow, 0.1, "live"),
    Workload("imageprocessing-x10", ImageProcessingWorkflow, 0.03, "batch",
             n_runs=10),
)}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def fingerprint(data: RunData) -> dict:
    """Outputs of one run that must not depend on the host or on
    ``PYTHONHASHSEED``: simulated makespan, completed tasks, events per
    provenance type, Mofka bytes ingested and a digest of the *sorted*
    transition set (stream order is not yet hash-seed stable)."""
    counts = Counter(event["type"] for event in data.events)
    rows = sorted(
        "\x1f".join((str(e["key"]), e["start_state"], e["finish_state"],
                     repr(e["timestamp"]), str(e["stimulus"]),
                     str(e["worker"]), str(e["source"])))
        for e in data.events if e["type"] == "transition")
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]
    mofka = data.provenance["layers"]["application"]["profilers"]["mofka"]
    return {
        "makespan_s": data.job["end_time"] - data.job["start_time"],
        "tasks": counts["task_run"],
        "events": dict(sorted(counts.items())),
        "bytes_ingested": mofka["stats"]["bytes_ingested"],
        "transition_digest": digest,
    }


def check_analysis(session: AnalysisSession, fp: dict) -> list[str]:
    """Cross-checks of the views against the raw stream."""
    problems = []
    views = session.all_views()
    if len(views["task"]) != fp["tasks"]:
        problems.append(f"task view has {len(views['task'])} rows, "
                        f"stream has {fp['tasks']} task_run events")
    if len(views["transition"]) != fp["events"].get("transition", 0):
        problems.append("transition view row count differs from stream")
    if len(views["io"]) == 0:
        problems.append("io view is empty")
    if not session.critical_path_summary():
        problems.append("critical path summary is empty")
    return problems


def compare(got: list[dict], want: list[dict]) -> list[str]:
    problems = []
    if len(got) != len(want):
        return [f"{len(got)} runs, reference has {len(want)}"]
    for index, (g, w) in enumerate(zip(got, want)):
        for key in w:
            if g.get(key) != w[key]:
                problems.append(f"run {index} {key}: {g.get(key)!r} != "
                                f"reference {w[key]!r}")
    return problems


# ---------------------------------------------------------------------------
# journeys
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """One journey: wall times, fingerprints and analysis problems."""
    e2e_s: float
    analysis_s: float
    fingerprints: list
    problems: list
    #: Layer values only the traced journeys record.
    extra: dict = field(default_factory=dict)


class LoadClock:
    """Stopwatch on ``RunData.load``: the live ingest happens inside
    ``run_workflow``, so this is the only way to split it out.  Two
    clock reads per call, installed for every journey."""

    def __init__(self):
        self.seconds = 0.0
        self._original = RunData.__dict__["load"]

    def __enter__(self):
        load = self._original.__func__
        clock = self

        def timed(cls, source, client=None):
            start = perf()
            try:
                return load(cls, source, client=client)
            finally:
                clock.seconds += perf() - start
        RunData.load = classmethod(timed)
        return self

    def __exit__(self, *exc):
        RunData.load = self._original


def single(workload: Workload, seed: int, workdir: str, monitor=None):
    """Run, ingest and analyse one repetition (``run_index`` 0)."""
    persist_dir = workdir if workload.mode == "offline" else None
    with LoadClock() as clock:
        start = perf()
        result = runner.run_workflow(workload.workflow(workload.scale),
                                     seed=seed, run_index=0,
                                     persist_dir=persist_dir,
                                     monitor=monitor)
        ran = perf()
        live_ingest = clock.seconds
        data = RunData.load(result.run_dir) if persist_dir else result.data
        session = AnalysisSession.of(data)
        session.all_views()
        session.phase_breakdown()
        session.critical_path_summary()
        end = perf()
    analysis = end - ran if persist_dir else end - ran + live_ingest
    fp = fingerprint(data)
    return result, Outcome(end - start, analysis, [fp],
                           check_analysis(session, fp))


def batch_run(workload: Workload, seed: int) -> list:
    """``run_many`` of the workload's ``n_runs`` repetitions."""
    factory = functools.partial(workload.workflow, workload.scale)
    return runner.run_many(factory, workload.n_runs, seed=seed,
                           workers=nproc())


def batch_analyse(workload: Workload, results: list):
    """The variability report over a batch and the standard views of
    every run in it, and their problems."""
    report = variability_report(results)
    for session in report["sessions"]:
        session.all_views()
        session.critical_path_summary()
    problems = []
    if len(report["sessions"]) != workload.n_runs:
        problems.append("variability report lost runs")
    if not report["phases"]:
        problems.append("variability report has no phases")
    return report, problems


def _batch(workload: Workload, seed: int) -> Outcome:
    start = perf()
    results = batch_run(workload, seed)
    ran = perf()
    _, problems = batch_analyse(workload, results)
    end = perf()
    return Outcome(end - start, end - ran,
                   [fingerprint(result.data) for result in results],
                   problems)


def journey(workload: Workload, seed: int, workdir: str) -> Outcome:
    """One untraced repetition of the workload's user journey."""
    try:
        if workload.mode == "batch":
            return _batch(workload, seed)
        return single(workload, seed, workdir)[1]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def directory_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, names in os.walk(path) for name in names)
