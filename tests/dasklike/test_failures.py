"""Failure-injection tests: the erred path of the task state machine."""

import pytest

from repro.dasklike import IOOp, TaskGraph, TaskSpec

from tests.helpers import ClusterRecorder, make_wms


def failing_graph(token="bad00001"):
    """A task reading a nonexistent file, with dependents behind it."""
    return TaskGraph([
        TaskSpec(key=f"good-{token}", compute_time=0.05, output_nbytes=10),
        TaskSpec(key=f"broken-{token}",
                 reads=(IOOp("/lus/does-not-exist.bin", "read", 0, 1024),),
                 compute_time=0.01, output_nbytes=10),
        TaskSpec(key=f"dependent-{token}",
                 deps=(f"broken-{token}", f"good-{token}"),
                 compute_time=0.01, output_nbytes=1),
    ])


def run_failing(env, client, graph):
    errors = []

    def driver():
        yield env.process(client.connect())
        try:
            yield env.process(client.compute(graph, optimize=False))
        except FileNotFoundError as exc:
            errors.append(exc)
        # The client fails fast; healthy in-flight tasks keep running.
        # Linger so the cluster can settle before assertions.
        yield env.timeout(5.0)

    env.run(until=env.process(driver()))
    return errors


def test_client_sees_the_original_exception():
    env, cluster, dask, client, job = make_wms()
    errors = run_failing(env, client, failing_graph())
    assert len(errors) == 1
    assert "does-not-exist" in str(errors[0])


def test_failing_task_transitions_to_erred():
    env, cluster, dask, client, job = make_wms()
    recorder = ClusterRecorder(dask)
    run_failing(env, client, failing_graph())
    ts = dask.scheduler.tasks["broken-bad00001"]
    assert ts.state == "erred"
    erred = [t for t in recorder.scheduler.transitions
             if t.key == "broken-bad00001" and t.finish_state == "erred"]
    assert len(erred) == 1
    assert erred[0].stimulus == "task-erred"


def test_dependents_poisoned_transitively():
    env, cluster, dask, client, job = make_wms()
    recorder = ClusterRecorder(dask)
    run_failing(env, client, failing_graph())
    dep = dask.scheduler.tasks["dependent-bad00001"]
    assert dep.state == "erred"
    upstream = [t for t in recorder.scheduler.transitions
                if t.key == "dependent-bad00001"
                and t.stimulus == "upstream-erred"]
    assert upstream


def test_independent_tasks_still_complete():
    env, cluster, dask, client, job = make_wms()
    recorder = ClusterRecorder(dask)
    run_failing(env, client, failing_graph())
    good = dask.scheduler.tasks["good-bad00001"]
    assert good.state in ("memory", "released", "forgotten")
    runs = {r.key for r in recorder.task_runs}
    assert "good-bad00001" in runs
    assert "dependent-bad00001" not in runs


def test_worker_logs_the_failure():
    env, cluster, dask, client, job = make_wms()
    run_failing(env, client, failing_graph())
    errors = [e for e in dask.all_logs() if e.level == "ERROR"]
    assert any("Compute Failed" in e.message for e in errors)
    assert any("marked as failed" in e.message
               for e in dask.scheduler.logs)


def test_occupancy_recovers_after_failure():
    env, cluster, dask, client, job = make_wms()
    run_failing(env, client, failing_graph())
    for occ in dask.scheduler.occupancy.values():
        assert occ < 0.01


def test_thread_pool_not_leaked_by_failures():
    """Repeated failures must return their threads to the pool."""
    env, cluster, dask, client, job = make_wms(threads=2)
    graphs = [failing_graph(token=f"bad{k:05d}") for k in range(4)]
    errors = []

    def driver():
        yield env.process(client.connect())
        for graph in graphs:
            try:
                yield env.process(client.compute(graph, optimize=False))
            except FileNotFoundError as exc:
                errors.append(exc)

    env.run(until=env.process(driver()))
    assert len(errors) == 4
    for worker in dask.workers:
        assert len(worker.threads.items) == worker.nthreads
        assert worker.executing == set()


def test_memory_reservation_rolled_back_on_failure():
    env, cluster, dask, client, job = make_wms()
    run_failing(env, client, failing_graph())
    for worker in dask.workers:
        # good task's output may remain (released after gather); the
        # broken/dependent outputs must not be charged.
        assert worker.managed_bytes <= 20
