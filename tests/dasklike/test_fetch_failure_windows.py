"""Regression tests: the fetch path's failure windows.

Three bugs lived between a fetch's dispatch-time ``who_has`` snapshot
and the moment the bytes landed:

* the stale-snapshot refresh in ``Worker._fetch_one`` took the
  scheduler's *current* ``who_has`` unfiltered, so a retry could
  re-select a worker that had failed since the snapshot was taken;
* a shared in-flight fetch was a failing process, so when the
  initiating task was released mid-gather every *other* waiter joined
  a failed event and saw a phantom dependency-lost error for data a
  later attempt still delivered;
* a worker that crashed mid-transfer still ran the fetch epilogue,
  resurrecting ``managed_bytes``, a comm record, and a scheduler
  replica on a corpse whose accounting :meth:`Worker.fail` had just
  zeroed.

Each test here failed before the corresponding fix.
"""

from repro.dasklike import DaskConfig, TaskSpec
from repro.dasklike.scheduler import SchedulerTaskState
from repro.dasklike.worker import DataLostError
from repro.faults import FaultSchedule, FaultSpec
from repro.sim import Interrupt
from repro.workflows import ResNet152Workflow

from tests.helpers import ClusterRecorder, make_wms

MB = 2**20


def make_cluster(**config_kwargs):
    config = DaskConfig(work_stealing=False, gc_base_rate=0.0,
                        gc_pressure_rate=0.0, **config_kwargs)
    env, cluster, dask, client, job = make_wms(config=config)
    return env, dask


def register_dep(sched, key, holders, nbytes):
    """A completed dependency the scheduler knows about."""
    ts = SchedulerTaskState(
        spec=TaskSpec(key=key, output_nbytes=nbytes),
        state="memory", nbytes=nbytes)
    for holder in holders:
        ts.who_has[holder.address] = holder
        holder.data[key] = nbytes
        holder.managed_bytes += nbytes
    sched.tasks[key] = ts
    return ts


def remote_workers(dask, fetcher, n):
    """``n`` live workers on nodes other than the fetcher's (so every
    fetch is a real cross-node transfer that takes simulated time)."""
    out = [w for w in dask.workers if w.node.name != fetcher.node.name]
    assert len(out) >= n
    return out[:n]


class TestStaleWhoHasRefresh:
    def test_refresh_filters_failed_holders(self):
        """Every snapshot source is dead; the refresh must pick the
        scheduler's *live* replica, never the dead one it also lists."""
        env, dask = make_cluster()
        recorder = ClusterRecorder(dask)
        fetcher = dask.workers[0]
        dead, live = remote_workers(dask, fetcher, 2)
        register_dep(dask.scheduler, "dep-stale", [dead, live], 8 * MB)
        dead.fail()  # silent: still listed in who_has

        proc = env.process(fetcher._fetch_one("dep-stale", [dead], 8 * MB))
        done = env.run(until=proc)
        assert done is True
        assert fetcher.data["dep-stale"] == 8 * MB
        (record,) = recorder.of(fetcher).comms
        assert record.src_worker == live.address

    def test_all_holders_dead_returns_false_not_forever(self):
        env, dask = make_cluster()
        recorder = ClusterRecorder(dask)
        fetcher = dask.workers[0]
        dead, also_dead = remote_workers(dask, fetcher, 2)
        register_dep(dask.scheduler, "dep-gone", [dead, also_dead], MB)
        dead.fail()
        also_dead.fail()

        proc = env.process(fetcher._fetch_one("dep-gone", [dead], MB))
        done = env.run(until=proc)
        assert done is False
        assert "dep-gone" not in fetcher.data
        assert recorder.of(fetcher).comms == []

    def test_source_death_mid_transfer_retries_cleanly(self):
        """The source dies while bytes are in flight: the attempt is
        dropped (no comm record, no accounting) and the fetch retries
        against the surviving holder."""
        env, dask = make_cluster()
        recorder = ClusterRecorder(dask)
        fetcher = dask.workers[0]
        doomed, survivor = remote_workers(dask, fetcher, 2)
        register_dep(dask.scheduler, "dep-cut", [doomed, survivor],
                     64 * MB)

        proc = env.process(
            fetcher._fetch_one("dep-cut", [doomed, survivor], 64 * MB))
        env.run(until=env.timeout(1e-3))  # transfer is in flight
        assert not proc.triggered
        doomed.fail()
        done = env.run(until=proc)
        assert done is True
        # Exactly one comm record — from the survivor, none from the
        # corpse — and the bytes are accounted exactly once.
        (record,) = recorder.of(fetcher).comms
        assert record.src_worker == survivor.address
        assert fetcher.managed_bytes == 64 * MB


class TestSharedInflightWaiters:
    def _gather_driver(self, env, worker, spec, who_has, sizes, box):
        """Mirrors compute_task's gather stanza: the waiter (not the
        shared fetch) is what a release/steal interrupts."""
        try:
            yield env.process(worker._gather(spec, who_has, sizes))
            box[spec.name] = "ok"
        except Interrupt:
            box[spec.name] = "released"
        except DataLostError:
            box[spec.name] = "data-lost"

    def test_release_mid_gather_leaves_other_waiters_whole(self):
        """Two tasks share one in-flight fetch; the initiating gather is
        interrupted (task released/stolen).  The surviving waiter must
        get the data, not a phantom dependency-lost error."""
        env, dask = make_cluster()
        fetcher = dask.workers[0]
        (holder,) = remote_workers(dask, fetcher, 1)
        register_dep(dask.scheduler, "dep-shared", [holder], 64 * MB)
        who_has = {"dep-shared": [holder]}
        sizes = {"dep-shared": 64 * MB}
        spec_a = TaskSpec(key="task-a", deps=("dep-shared",))
        spec_b = TaskSpec(key="task-b", deps=("dep-shared",))

        outcome = {}
        driver_a = env.process(self._gather_driver(
            env, fetcher, spec_a, who_has, sizes, outcome))
        driver_b = env.process(self._gather_driver(
            env, fetcher, spec_b, who_has, sizes, outcome))
        env.run(until=env.timeout(1e-3))  # both joined the same fetch
        assert "dep-shared" in fetcher._inflight_fetch
        driver_a.interrupt("release")
        env.run(until=driver_b)
        assert outcome == {"task-a": "released", "task-b": "ok"}
        assert fetcher.data["dep-shared"] == 64 * MB

    def test_true_loss_surfaces_per_waiter_without_crashing(self):
        """When the data really is gone, each waiter raises its own
        reschedulable DataLostError — the shared fetch process itself
        never fails (an unhandled process failure would kill the
        engine)."""
        env, dask = make_cluster()
        fetcher = dask.workers[0]
        (holder,) = remote_workers(dask, fetcher, 1)
        register_dep(dask.scheduler, "dep-doomed", [holder], 64 * MB)
        who_has = {"dep-doomed": [holder]}
        sizes = {"dep-doomed": 64 * MB}

        outcome = {}
        drivers = [
            env.process(self._gather_driver(
                env, fetcher, TaskSpec(key=key, deps=("dep-doomed",)),
                who_has, sizes, outcome))
            for key in ("task-c", "task-d")
        ]
        env.run(until=env.timeout(1e-3))
        holder.fail()
        dask.scheduler.tasks["dep-doomed"].who_has.clear()
        for driver in drivers:
            env.run(until=driver)
        assert outcome == {"task-c": "data-lost", "task-d": "data-lost"}
        assert "dep-doomed" not in fetcher.data


class TestDestinationCrashMidTransfer:
    def test_no_accounting_resurrected_on_a_corpse(self):
        """The *fetching* worker dies mid-transfer.  fail() zeroed its
        accounting; the landing bytes must not bring any of it back."""
        env, dask = make_cluster()
        recorder = ClusterRecorder(dask)
        fetcher = dask.workers[0]
        (holder,) = remote_workers(dask, fetcher, 1)
        dep_ts = register_dep(dask.scheduler, "dep-late", [holder],
                              64 * MB)

        proc = env.process(
            fetcher._fetch_one("dep-late", [holder], 64 * MB))
        env.run(until=env.timeout(1e-3))
        assert not proc.triggered
        fetcher.fail()
        done = env.run(until=proc)
        assert done is False
        assert fetcher.managed_bytes == 0
        assert fetcher.data == {}
        assert recorder.of(fetcher).comms == []
        # No corpse replica registered with the scheduler either.
        assert fetcher.address not in dep_ts.who_has

    def test_crash_mid_unspill_keeps_accounting_zero(self):
        env, dask = make_cluster()
        recorder = ClusterRecorder(dask)
        worker = dask.workers[0]
        worker.spilled["dep-scratch"] = 64 * MB

        proc = env.process(worker.unspill("dep-scratch"))
        env.run(until=env.timeout(1e-3))
        worker.fail()
        env.run(until=proc)
        assert worker.managed_bytes == 0
        assert "dep-scratch" not in worker.data
        assert recorder.of(worker).spills == []

    def test_crash_mid_execute_never_goes_negative(self):
        """compute_task reserves output bytes at execution start and
        rolls the reservation back on a non-materialised exit — unless
        the worker died, in which case fail() already zeroed the books
        and a second subtraction would leak a negative balance."""
        env, dask = make_cluster()
        worker = dask.workers[0]
        spec = TaskSpec(key="task-heavy", compute_time=1.0,
                        output_nbytes=32 * MB)

        proc = env.process(worker.compute_task(spec, {}, {}, 0))
        env.run(until=env.timeout(0.5))  # mid-execution
        assert worker.managed_bytes == 32 * MB  # reservation in place
        worker.fail()
        done = env.run(until=proc)
        assert done is False
        assert worker.managed_bytes == 0

    def test_injected_crash_leaves_no_corpse_accounting(self):
        """End-to-end via the fault injector: a worker_crash fired while
        ResNet152's model broadcast is in flight must leave the corpse
        with zeroed books, no post-mortem comm records, and no replica
        registrations — and the run must still converge."""
        from repro.faults import FaultInjector
        from tests.helpers import make_instrumented

        env, cluster, run = make_instrumented(
            seed=11, worker_nodes=2, workers_per_node=4, threads=8)
        recorder = ClusterRecorder(run.dask)
        injector = FaultInjector(
            FaultSchedule([FaultSpec("worker_crash", 0.7)]),
            cluster.streams)
        injector.attach(run)
        workflow = ResNet152Workflow(scale=0.03)
        workflow.prepare(cluster, cluster.streams)
        client = run.client()

        def main():
            yield env.process(client.connect())
            yield env.process(workflow.driver(env, client, cluster))
            yield env.process(run.drain())

        env.run(until=env.process(main()))
        (record,) = injector.records
        assert record["fired"] is True
        dead = next(w for w in run.dask.workers
                    if w.address == record["worker"])
        assert dead.failed
        assert dead.managed_bytes == 0
        assert dead.data == {} and dead.spilled == {}
        # No transfer completed *into* the corpse after the crash, and
        # the scheduler holds no replica claims on it.
        assert all(c.stop <= record["time"]
                   for c in recorder.of(dead).comms)
        for ts in run.dask.scheduler.tasks.values():
            assert dead.address not in ts.who_has
