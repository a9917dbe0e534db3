"""Retries, timeouts, and graceful degradation in the scheduler.

The acceptance bar for the retry path: a task that fails transiently
(its input file appears only after the first attempt) must fail the
whole run without ``retries=`` and succeed with it.
"""

import pytest

from repro.dasklike import DaskConfig, IOOp, TaskGraph, TaskSpec
from repro.dasklike.stealing import WorkStealing

from tests.helpers import ClusterRecorder, make_wms


def late_file_graph(token, retries=None, path=None):
    """A task reading a file that does not exist yet."""
    return TaskGraph([
        TaskSpec(key=f"flaky-{token}",
                 reads=(IOOp(path or f"/lus/late-{token}.bin",
                             "read", 0, 1024),),
                 compute_time=0.01, output_nbytes=16, retries=retries),
        TaskSpec(key=f"after-{token}", deps=(f"flaky-{token}",),
                 compute_time=0.01, output_nbytes=8),
    ])


def run_to_result(env, client, graph, linger=0.0):
    """Drive one graph; returns (results, errors)."""
    results, errors = [], []

    def driver():
        yield env.process(client.connect())
        try:
            result = yield env.process(client.compute(graph,
                                                      optimize=False))
            results.append(result)
        except Exception as exc:  # noqa: BLE001 - we assert on the type
            errors.append(exc)
        if linger:
            yield env.timeout(linger)

    env.run(until=env.process(driver()))
    return results, errors


def create_later(env, cluster, path, at, size=1 << 20):
    """Simulated operator: the missing input lands at ``at`` seconds."""
    def creator():
        yield env.timeout(at)
        cluster.pfs.create_file(path, size)
    env.process(creator())


class TestRetriesRecoverTransientError:
    def test_fails_without_retries(self):
        """Baseline (pre-retry behavior): one transient miss kills the
        run even though the input shows up moments later."""
        env, cluster, dask, client, job = make_wms()
        create_later(env, cluster, "/lus/late-aa01.bin", at=0.5)
        results, errors = run_to_result(
            env, client, late_file_graph("aa01"))
        assert not results
        assert len(errors) == 1
        assert isinstance(errors[0], FileNotFoundError)

    def test_spec_retries_recover(self):
        env, cluster, dask, client, job = make_wms()
        create_later(env, cluster, "/lus/late-aa02.bin", at=0.5)
        results, errors = run_to_result(
            env, client, late_file_graph("aa02", retries=3))
        assert not errors
        (index, values), = results
        assert "after-aa02" in values
        ts = dask.scheduler.tasks["flaky-aa02"]
        assert ts.state in ("memory", "released", "forgotten")
        assert ts.retry_count >= 1
        retry_logs = [e for e in dask.scheduler.logs
                      if "retrying in" in e.message]
        assert retry_logs

    def test_config_wide_retries_recover(self):
        config = DaskConfig(task_retries=3)
        env, cluster, dask, client, job = make_wms(config=config)
        create_later(env, cluster, "/lus/late-aa03.bin", at=0.5)
        results, errors = run_to_result(
            env, client, late_file_graph("aa03"))
        assert not errors and results

    def test_retry_transitions_recorded(self):
        env, cluster, dask, client, job = make_wms()
        recorder = ClusterRecorder(dask)
        create_later(env, cluster, "/lus/late-aa04.bin", at=0.5)
        run_to_result(env, client, late_file_graph("aa04", retries=3))
        retry = [t for t in recorder.scheduler.transitions
                 if t.key == "flaky-aa04" and t.stimulus == "retry"]
        # released (budget consumed) then waiting (timer fired), per
        # attempt.
        assert any(t.finish_state == "released" for t in retry)
        assert any(t.finish_state == "waiting" for t in retry)


class TestBackoff:
    def test_delays_grow_exponentially(self):
        config = DaskConfig(retry_backoff_base=0.5, retry_backoff_factor=2.0)
        env, cluster, dask, client, job = make_wms(config=config)
        # The file never appears: both retries burn, then erred.
        results, errors = run_to_result(
            env, client, late_file_graph("ab01", retries=2), linger=1.0)
        assert len(errors) == 1 and isinstance(errors[0], FileNotFoundError)
        delays = []
        for entry in dask.scheduler.logs:
            if "retrying in" in entry.message:
                delays.append(float(
                    entry.message.split("retrying in ")[1].split("s")[0]))
        assert delays == [0.5, 1.0]

    def test_budget_exhaustion_erres_task(self):
        env, cluster, dask, client, job = make_wms()
        results, errors = run_to_result(
            env, client, late_file_graph("ab02", retries=1), linger=1.0)
        assert len(errors) == 1
        ts = dask.scheduler.tasks["flaky-ab02"]
        assert ts.state == "erred"
        assert ts.retry_count == 1
        assert ts.retries_left == 0


class TestTaskTimeout:
    def slow_graph(self, token, timeout=None, retries=0):
        return TaskGraph([
            TaskSpec(key=f"slow-{token}", compute_time=5.0,
                     output_nbytes=8, timeout=timeout, retries=retries),
        ])

    def test_spec_timeout_erres_task(self):
        env, cluster, dask, client, job = make_wms()
        recorder = ClusterRecorder(dask)
        results, errors = run_to_result(
            env, client, self.slow_graph("ac01", timeout=0.5), linger=1.0)
        assert len(errors) == 1
        assert isinstance(errors[0], TimeoutError)
        assert "0.5s timeout" in str(errors[0])
        timed_out = [t for t in recorder.scheduler.transitions
                     if t.key == "slow-ac01"
                     and t.stimulus == "task-timeout"]
        assert timed_out
        # The interrupted attempt released its worker-side claim.
        assert env.now < 5.0

    def test_config_timeout_applies(self):
        config = DaskConfig(task_timeout=0.5)
        env, cluster, dask, client, job = make_wms(config=config)
        results, errors = run_to_result(
            env, client, self.slow_graph("ac02"), linger=1.0)
        assert len(errors) == 1 and isinstance(errors[0], TimeoutError)

    def test_timeout_consumes_retry_budget(self):
        env, cluster, dask, client, job = make_wms()
        recorder = ClusterRecorder(dask)
        results, errors = run_to_result(
            env, client, self.slow_graph("ac03", timeout=0.5, retries=1),
            linger=1.0)
        assert len(errors) == 1 and isinstance(errors[0], TimeoutError)
        ts = dask.scheduler.tasks["slow-ac03"]
        assert ts.retry_count == 1
        retry = [t for t in recorder.scheduler.transitions
                 if t.key == "slow-ac03" and t.stimulus == "retry"]
        assert retry

    def test_no_timeout_by_default(self):
        env, cluster, dask, client, job = make_wms()
        recorder = ClusterRecorder(dask)
        results, errors = run_to_result(
            env, client, self.slow_graph("ac04"))
        assert not errors and results
        assert not any(t.stimulus == "task-timeout"
                       for t in recorder.scheduler.transitions)


class TestGracefulDegradation:
    def test_all_workers_lost_fails_futures(self):
        """Losing the last worker must fail pending futures with a clear
        diagnosis instead of parking the client forever."""
        env, cluster, dask, client, job = make_wms()
        graph = TaskGraph([
            TaskSpec(key=(f"doomed-ad01", i), compute_time=2.0,
                     output_nbytes=8)
            for i in range(8)
        ])

        def killer():
            yield env.timeout(0.3)
            for worker in list(dask.workers):
                dask.scheduler.handle_worker_failure(worker)

        env.process(killer())
        results, errors = run_to_result(env, client, graph, linger=1.0)
        assert not results
        assert len(errors) == 1
        assert "all workers are gone" in str(errors[0])
        assert not dask.scheduler.workers
        for ts in dask.scheduler.tasks.values():
            assert ts.state in ("erred", "memory", "released", "forgotten")

    def test_degradation_transitions_use_no_workers_stimulus(self):
        env, cluster, dask, client, job = make_wms()
        recorder = ClusterRecorder(dask)
        graph = TaskGraph([TaskSpec(key="doomed-ad02", compute_time=2.0,
                                    output_nbytes=8)])

        def killer():
            yield env.timeout(0.3)
            for worker in list(dask.workers):
                dask.scheduler.handle_worker_failure(worker)

        env.process(killer())
        run_to_result(env, client, graph, linger=1.0)
        stimuli = {t.stimulus for t in recorder.scheduler.transitions
                   if t.key == "doomed-ad02"}
        assert "no-workers" in stimuli


class TestLivenessMonitorStop:
    def test_stop_mid_interval_suppresses_pending_sweep(self):
        """stop_liveness_monitor() between ticks: the already-scheduled
        tick must not execute one more sweep (it used to fail workers
        the caller had stopped watching)."""
        env, cluster, dask, client, job = make_wms()
        sched = dask.scheduler
        sched.start_liveness_monitor()  # misses=4, interval=heartbeat
        victim = dask.workers[0]
        victim.fail()                   # silent: heartbeats just stop
        env.run(until=env.timeout(1.0))  # not yet stale: no sweep
        assert victim.address in sched.workers
        # Make the victim maximally stale, then stop while the next
        # tick is already scheduled.
        sched._last_heartbeat[victim.address] = env.now - 10.0
        sched.stop_liveness_monitor()
        env.run(until=env.timeout(2.0))  # let the pending tick fire
        assert victim.address in sched.workers
        assert not any("failed heartbeat check" in e.message
                       for e in sched.logs)


class TestResubmitDedup:
    def diamond(self, token):
        return TaskGraph([
            TaskSpec(key=f"root-{token}", compute_time=0.02,
                     output_nbytes=64),
            TaskSpec(key=f"mid1-{token}", deps=(f"root-{token}",),
                     compute_time=0.02, output_nbytes=64),
            TaskSpec(key=f"mid2-{token}", deps=(f"root-{token}",),
                     compute_time=0.02, output_nbytes=64),
            TaskSpec(key=f"sink-{token}",
                     deps=(f"mid1-{token}", f"mid2-{token}"),
                     compute_time=0.02, output_nbytes=8),
        ])

    def test_one_pass_never_resubmits_twice(self):
        """Diamond recovery: reaching the same key along two dependency
        edges of one pass must count each dependency claim exactly once
        (a second full visit used to double-increment
        ``remaining_dependents``, leaking the dependency forever)."""
        env, cluster, dask, client, job = make_wms()
        sched = dask.scheduler
        results, errors = run_to_result(env, client, self.diamond("ae01"))
        assert results and not errors

        sink = sched.tasks["sink-ae01"]
        mid1 = sched.tasks["mid1-ae01"]
        mid2 = sched.tasks["mid2-ae01"]
        root = sched.tasks["root-ae01"]
        assert (mid1.remaining_dependents, mid2.remaining_dependents,
                root.remaining_dependents) == (0, 0, 0)

        seen = set()
        sched._resubmit(sink, seen)
        assert mid1.remaining_dependents == 1
        assert mid2.remaining_dependents == 1
        # root consumed once per mid — reached along two edges, walked
        # (and therefore resubmitted) once.
        assert root.remaining_dependents == 2

        # Second arrival at the sink in the *same* pass (the other
        # diamond edge): even if interleaved recovery work put the key
        # back into a resubmittable state, the pass must not walk its
        # dependencies again.
        saved_state = sink.state
        sink.state = "memory"
        sched._resubmit(sink, seen)
        sink.state = saved_state
        assert mid1.remaining_dependents == 1
        assert mid2.remaining_dependents == 1
        assert root.remaining_dependents == 2

        # The recomputation converges and drains every claim.
        env.run(until=env.timeout(5.0))
        assert (mid1.remaining_dependents, mid2.remaining_dependents,
                root.remaining_dependents) == (0, 0, 0)


class TestStealingFailedWorkerGuards:
    def skewed_graph(self, token, width=16):
        tasks = [TaskSpec(key=f"seed-{token}", compute_time=0.01,
                          output_nbytes=1024)]
        tasks += [
            TaskSpec(key=(f"slow-{token}", i), deps=(f"seed-{token}",),
                     compute_time=1.0, output_nbytes=8)
            for i in range(width)
        ]
        return TaskGraph(tasks)

    def test_balance_never_picks_a_silently_dead_worker(self):
        """A worker that crashed silently (not yet noticed by the
        liveness monitor) is still registered.  ``balance()`` used to
        pick it — its 0.0 occupancy makes it the ideal thief — stealing
        queued work *onto* a corpse."""
        config = DaskConfig(work_stealing=False)
        env, cluster, dask, client, job = make_wms(
            config=config, worker_nodes=2, workers_per_node=2, threads=1)
        recorder = ClusterRecorder(dask)
        sched = dask.scheduler
        balancer = WorkStealing(sched)
        done = []

        def driver():
            yield env.process(client.connect())
            result = yield env.process(
                client.compute(self.skewed_graph("af01"), optimize=False))
            done.append(result)

        proc = env.process(driver())
        # Step until queues have built up on the workers.
        while not any(w.ready for w in dask.workers) and env.now < 5.0:
            env.run(until=env.timeout(0.01))
        assert any(w.ready for w in dask.workers)

        dead = min(dask.workers,
                   key=lambda w: sched.occupancy[w.address])
        dead.fail()  # silent: stays in sched.workers
        assert dead.address in sched.workers

        balancer.balance()
        for event in recorder.scheduler.steals:
            assert dead.address not in (event.victim, event.thief)

        # Direct guard: a steal with a dead endpoint must refuse.
        victim = max((w for w in dask.workers if w is not dead),
                     key=lambda w: sched.occupancy[w.address])
        if victim.ready:
            name = next(reversed(victim.ready))
            assert balancer._steal(name, victim, dead) is False
            assert balancer._steal(name, dead, victim) is False

        # Let recovery reclaim the dead worker's queue and finish.
        sched.handle_worker_failure(dead)
        env.run(until=proc)
        assert done
