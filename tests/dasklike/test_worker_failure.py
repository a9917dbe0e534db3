"""Worker-failure injection: detection, recovery, recomputation."""

import pytest

from repro.dasklike import DaskConfig, TaskGraph, TaskSpec

from tests.helpers import ClusterRecorder, make_wms


def pipeline_graph(width=8, token="f00dfeed"):
    tasks = [
        TaskSpec(key=(f"stage1-{token}", i), compute_time=0.3,
                 output_nbytes=2**20)
        for i in range(width)
    ] + [
        TaskSpec(key=(f"stage2-{token}", i),
                 deps=((f"stage1-{token}", i),),
                 compute_time=0.3, output_nbytes=2**19)
        for i in range(width)
    ] + [
        TaskSpec(key=f"final-{token}",
                 deps=tuple((f"stage2-{token}", i) for i in range(width)),
                 compute_time=0.1, output_nbytes=16),
    ]
    return TaskGraph(tasks)


def run_with_mid_run_failure(kill_at=0.5, monitor=False, **wms_kwargs):
    """Kill the first worker mid-run; returns (env, dask, victim,
    results, recorder)."""
    env, cluster, dask, client, job = make_wms(**wms_kwargs)
    recorder = ClusterRecorder(dask)
    if monitor:
        dask.scheduler.start_liveness_monitor(misses=3)
    victim = dask.workers[0]
    results = []

    def killer():
        yield env.timeout(kill_at)
        if monitor:
            victim.fail()  # silent crash; heartbeats stop
        else:
            dask.scheduler.handle_worker_failure(victim)

    def driver():
        yield env.process(client.connect())
        result = yield env.process(
            client.compute(pipeline_graph(), optimize=False))
        results.append(result)
        dask.scheduler.stop_liveness_monitor()

    env.process(killer())
    env.run(until=env.process(driver()))
    return env, dask, victim, results, recorder


def test_workflow_completes_despite_failure():
    env, dask, victim, results, _ = run_with_mid_run_failure()
    (index, values), = results
    assert "final-f00dfeed" in values


def test_failed_worker_removed_from_membership():
    env, dask, victim, results, _ = run_with_mid_run_failure()
    assert victim.address not in dask.scheduler.workers
    assert victim.failed
    assert victim.data == {}


def test_no_surviving_replicas_on_dead_worker():
    env, dask, victim, results, _ = run_with_mid_run_failure()
    for ts in dask.scheduler.tasks.values():
        assert victim.address not in ts.who_has


def test_recovery_transitions_recorded():
    env, dask, victim, results, recorder = run_with_mid_run_failure()
    stimuli = {t.stimulus for t in recorder.scheduler.transitions}
    assert "worker-failed" in stimuli or "recompute" in stimuli


def test_tasks_not_duplicated_in_results():
    """Every task reaches memory exactly once per needed computation
    (recomputed tasks may run twice, but the final answer is single)."""
    env, dask, victim, results, recorder = run_with_mid_run_failure()
    final_memory = [
        t for t in recorder.scheduler.transitions
        if t.key == "final-f00dfeed" and t.finish_state == "memory"
    ]
    assert len(final_memory) == 1


def test_heartbeat_based_detection():
    """A silent crash is detected via missed heartbeats."""
    env, dask, victim, results, _ = run_with_mid_run_failure(
        monitor=True, kill_at=0.3)
    (index, values), = results
    assert "final-f00dfeed" in values
    assert victim.address not in dask.scheduler.workers
    warnings = [e for e in dask.scheduler.logs
                if "failed heartbeat check" in e.message]
    assert len(warnings) == 1


def assert_converged(scheduler):
    """No task may be left behind by failure recovery."""
    for ts in scheduler.tasks.values():
        assert not (ts.state == "waiting" and not ts.waiting_on), \
            f"{ts.name} stuck in waiting with empty waiting_on"
        assert ts.state in ("memory", "forgotten", "released"), \
            f"{ts.name} stuck in {ts.state} (waiting_on={ts.waiting_on})"


def run_with_cascading_failure(kill_at=0.5, monitor=False):
    """First failure is handled, then the worker that received one of
    the reassigned in-flight tasks dies silently — before any liveness
    tick could notice.  Returns (env, dask, victims, results, recorder)."""
    env, cluster, dask, client, job = make_wms()
    recorder = ClusterRecorder(dask)
    scheduler = dask.scheduler
    if monitor:
        scheduler.start_liveness_monitor(misses=3)
    results = []
    victims = []

    def killer():
        yield env.timeout(kill_at)
        victim1 = dask.workers[0]
        victims.append(victim1)
        inflight = [ts.name for ts in scheduler.tasks.values()
                    if ts.processing_on is victim1]
        if monitor:
            victim1.fail()
            # Wait for heartbeat-based detection of the first death.
            while victim1.address in scheduler.workers:
                yield env.timeout(0.05)
        else:
            scheduler.handle_worker_failure(victim1)
        reassigned = [ts for ts in scheduler.tasks.values()
                      if ts.name in inflight and ts.state == "processing"
                      and ts.processing_on is not None]
        if not reassigned:
            return
        victim2 = reassigned[0].processing_on
        victims.append(victim2)
        victim2.fail()  # silent: nobody tells the scheduler

    def driver():
        yield env.process(client.connect())
        result = yield env.process(
            client.compute(pipeline_graph(token="cascade1"), optimize=False))
        results.append(result)
        scheduler.stop_liveness_monitor()

    env.process(killer())
    env.run(until=env.process(driver()))
    return env, dask, victims, results, recorder


class TestCascadingFailure:
    def test_cascade_without_monitor_completes(self):
        """The dispatch return path must recover a task whose *second*
        worker died silently, with no liveness monitor running.
        (Before the fix this deadlocked: the task sat in "processing"
        on the dead worker forever.)"""
        env, dask, victims, results, _ = run_with_cascading_failure()
        assert len(victims) == 2, "cascade did not trigger"
        (index, values), = results
        assert "final-cascade1" in values
        assert_converged(dask.scheduler)

    def test_cascade_with_monitor_completes(self):
        """Heartbeat detection of the second death also converges."""
        env, dask, victims, results, _ = run_with_cascading_failure(
            monitor=True, kill_at=0.3)
        (index, values), = results
        assert "final-cascade1" in values
        assert_converged(dask.scheduler)

    def test_cascade_removes_both_workers(self):
        env, dask, victims, results, _ = run_with_cascading_failure()
        for victim in victims:
            assert victim.address not in dask.scheduler.workers
            assert victim.data == {}

    def test_cascade_final_reaches_memory_once(self):
        env, dask, victims, results, recorder = \
            run_with_cascading_failure()
        final_memory = [
            t for t in recorder.scheduler.transitions
            if t.key == "final-cascade1" and t.finish_state == "memory"
        ]
        assert len(final_memory) == 1

    def test_dead_worker_refuses_dispatch(self):
        """A task dispatched to an already-dead worker bails out without
        recording zombie lifecycle transitions on that worker."""
        env, cluster, dask, client, job = make_wms()
        recorder = ClusterRecorder(dask)
        victim = dask.workers[0]
        before = len(recorder.of(victim).transitions)
        victim.fail()
        done = []

        def probe():
            from repro.dasklike import TaskSpec
            spec = TaskSpec(key="probe-task", compute_time=0.1,
                            output_nbytes=16)
            ok = yield env.process(
                victim.compute_task(spec, {}, {}, graph_index=0))
            done.append(ok)

        env.run(until=env.process(probe()))
        assert done == [False]
        assert len(recorder.of(victim).transitions) == before


def test_healthy_run_has_no_failure_logs():
    env, cluster, dask, client, job = make_wms()
    dask.scheduler.start_liveness_monitor()
    results = []

    def driver():
        yield env.process(client.connect())
        result = yield env.process(
            client.compute(pipeline_graph(token="ok11ok11"),
                           optimize=False))
        results.append(result)
        dask.scheduler.stop_liveness_monitor()

    env.run(until=env.process(driver()))
    assert results
    assert not any("heartbeat check" in e.message
                   for e in dask.scheduler.logs)
    assert len(dask.scheduler.workers) == 4
