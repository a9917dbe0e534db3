"""End-to-end scheduler invariants over randomized workloads.

These are property-style integration tests: random DAGs run through the
full client/scheduler/worker stack, and structural invariants that must
hold for *any* workload are checked — exactly-once execution, legal
transition sequences, conservation of transferred bytes, and complete
release of unpinned memory.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dasklike import DaskConfig, TaskGraph, TaskSpec
from repro.dasklike.states import SCHEDULER_TRANSITIONS

from tests.helpers import ClusterRecorder, make_wms, run_graphs


@st.composite
def workload(draw):
    n = draw(st.integers(3, 30))
    tasks = []
    for i in range(n):
        if i == 0:
            deps = ()
        else:
            n_deps = draw(st.integers(0, min(i, 3)))
            deps = tuple(
                ("t-cafe0000", j) for j in sorted(
                    draw(st.lists(st.integers(0, i - 1),
                                  min_size=n_deps, max_size=n_deps,
                                  unique=True)))
            )
        tasks.append(TaskSpec(
            key=("t-cafe0000", i),
            deps=deps,
            compute_time=draw(st.floats(0.0, 0.3)),
            output_nbytes=draw(st.integers(0, 4 * 2**20)),
        ))
    return TaskGraph(tasks)


def run_workload(graph, seed=0, stealing=True):
    """Run ``graph`` on a fresh cluster; returns (dask, its recorder)."""
    config = DaskConfig(work_stealing=stealing,
                        gc_base_rate=0.0, gc_pressure_rate=0.0)
    env, cluster, dask, client, job = make_wms(seed=seed, config=config)
    recorder = ClusterRecorder(dask)
    run_graphs(env, client, graph, optimize=False)
    return dask, recorder


@given(workload(), st.integers(0, 3))
@settings(max_examples=15, deadline=None)
def test_every_task_completes_exactly_once(graph, seed):
    dask, recorder = run_workload(graph, seed=seed)
    runs = [r.key for r in recorder.task_runs]
    assert sorted(runs) == sorted(graph.keys())


@given(workload(), st.integers(0, 3))
@settings(max_examples=10, deadline=None)
def test_scheduler_transitions_always_legal(graph, seed):
    dask, recorder = run_workload(graph, seed=seed)
    per_key: dict = {}
    for t in recorder.scheduler.transitions:
        assert (t.start_state, t.finish_state) in SCHEDULER_TRANSITIONS
        per_key.setdefault(t.key, []).append(t)
    for key, transitions in per_key.items():
        # Consecutive transitions chain states.
        for a, b in zip(transitions, transitions[1:]):
            assert a.finish_state == b.start_state, \
                f"{key}: {a.finish_state} then {b.start_state}"
        # Timestamps never go backwards.
        times = [t.timestamp for t in transitions]
        assert times == sorted(times)


@given(workload())
@settings(max_examples=10, deadline=None)
def test_transferred_bytes_match_dependency_sizes(graph):
    dask, recorder = run_workload(graph)
    sizes = {name: spec.output_nbytes
             for name, spec in graph.tasks.items()}
    for comm in recorder.comms:
        assert comm.nbytes == sizes[comm.key]
        assert comm.duration >= 0


@given(workload())
@settings(max_examples=10, deadline=None)
def test_all_memory_released_after_gather(graph):
    dask, _ = run_workload(graph)
    # Client gathered and released everything: workers hold nothing.
    for worker in dask.workers:
        assert worker.data == {}, worker.data
        assert worker.managed_bytes == 0
        assert worker.spilled == {}


@given(workload(), st.booleans())
@settings(max_examples=10, deadline=None)
def test_stealing_never_changes_results(graph, stealing):
    dask, recorder = run_workload(graph, stealing=stealing)
    runs = [r.key for r in recorder.task_runs]
    assert sorted(runs) == sorted(graph.keys())
    # Memory transitions: exactly one per key.
    memory = [t for t in recorder.scheduler.transitions
              if t.finish_state == "memory"]
    assert len(memory) == len(graph)


def test_occupancy_total_tracks_increments_and_resyncs_exactly():
    """The incremental ``_occupancy_total`` must stay within float
    tolerance of the recomputed sum under randomized adjustments, and
    snap back to *exact* equality at every membership resync point
    (worker add/remove), so rounding drift can never accumulate across
    the life of a long-running scheduler."""
    env, cluster, dask, client, job = make_wms(
        config=DaskConfig(work_stealing=False,
                          gc_base_rate=0.0, gc_pressure_rate=0.0))
    sched = dask.scheduler
    rng = np.random.RandomState(42)
    addresses = list(sched.workers)
    for _ in range(5000):
        address = addresses[rng.randint(len(addresses))]
        delta = float(rng.uniform(-0.5, 2.0))
        # Occupancy is a non-negative estimate; mirror real adjustments.
        delta = max(delta, -sched.occupancy[address])
        sched._adjust_occupancy(address, delta)
        assert sched._occupancy_total == pytest.approx(
            sum(sched.occupancy.values()), abs=1e-6)

    # Membership changes recompute the total from scratch: exact.
    victim = next(iter(sched.workers.values()))
    sched.remove_worker(victim)
    assert sched._occupancy_total == sum(sched.occupancy.values())
    sched.add_worker(victim)
    assert sched._occupancy_total == sum(sched.occupancy.values())
    # And the index agrees on who is least loaded after the churn.
    best = sched.occupancy_index.least_occupied()
    assert sched.occupancy[best.address] == min(sched.occupancy.values())
