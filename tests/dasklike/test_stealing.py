"""Tests for the work-stealing balancer."""

from repro.dasklike import DaskConfig, TaskGraph, TaskSpec

from tests.helpers import ClusterRecorder, make_wms, run_graphs


def skewed_graph(width=24, token="feed1234"):
    """A root task followed by a wide fan-out of slow tasks.

    All fan-out tasks become ready at the same instant and are assigned
    by occupancy estimates that start equal, so the initial placement
    piles estimation error onto some workers — prime stealing territory.
    """
    tasks = [TaskSpec(key=f"seed-{token}", compute_time=0.01,
                      output_nbytes=1024)]
    tasks += [
        TaskSpec(key=(f"slow-{token}", i), deps=(f"seed-{token}",),
                 compute_time=1.0, output_nbytes=8)
        for i in range(width)
    ]
    return TaskGraph(tasks)


def run_with_config(config, run_index=0):
    """Run the skewed graph; returns (dask, its recorder)."""
    env, cluster, dask, client, job = make_wms(
        config=config, run_index=run_index,
        worker_nodes=2, workers_per_node=2, threads=2,
    )
    recorder = ClusterRecorder(dask)
    run_graphs(env, client, skewed_graph(), optimize=False)
    return dask, recorder


def test_stealing_moves_tasks():
    config = DaskConfig(work_stealing=True, work_stealing_interval=0.05,
                        steal_ratio=1.2)
    dask, recorder = run_with_config(config)
    assert recorder.scheduler.steals, "balancer never moved a task"
    for event in recorder.scheduler.steals:
        assert event.victim != event.thief


def test_stolen_tasks_still_complete_exactly_once():
    config = DaskConfig(work_stealing=True, work_stealing_interval=0.05,
                        steal_ratio=1.2)
    dask, recorder = run_with_config(config)
    runs = recorder.task_runs
    keys = [r.key for r in runs]
    assert len(keys) == len(set(keys)) == 25  # seed + 24 fan-out


def test_stealing_disabled_produces_no_events():
    config = DaskConfig(work_stealing=False)
    dask, recorder = run_with_config(config)
    assert recorder.scheduler.steals == []


def test_victim_records_steal_transition():
    config = DaskConfig(work_stealing=True, work_stealing_interval=0.05,
                        steal_ratio=1.2)
    dask, recorder = run_with_config(config)
    steal_transitions = [
        t for w in dask.workers for t in recorder.of(w).transitions
        if t.stimulus == "steal"
    ]
    assert len(steal_transitions) == len(recorder.scheduler.steals)
    for t in steal_transitions:
        assert (t.start_state, t.finish_state) == ("ready", "released")


def test_occupancy_balanced_after_run():
    config = DaskConfig(work_stealing=True, work_stealing_interval=0.05,
                        steal_ratio=1.2)
    dask, _ = run_with_config(config)
    for occ in dask.scheduler.occupancy.values():
        assert occ < 0.01
