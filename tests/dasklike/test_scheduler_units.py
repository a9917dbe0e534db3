"""Unit tests for scheduler internals: placement, estimates, slabs."""

import pytest

from repro.dasklike import DaskConfig, TaskGraph, TaskSpec

from tests.helpers import ClusterRecorder, make_wms, run_graphs


def make_sched(**config_kwargs):
    config = DaskConfig(work_stealing=False, gc_base_rate=0.0,
                        gc_pressure_rate=0.0, **config_kwargs)
    env, cluster, dask, client, job = make_wms(config=config)
    return env, dask, client


class TestDurationEstimates:
    def test_default_guess(self):
        env, dask, client = make_sched()
        spec = TaskSpec(key="never-seen-ab12cd34")
        assert dask.scheduler.estimate_duration(spec) == 0.5

    def test_first_observation_replaces_guess(self):
        env, dask, client = make_sched()
        spec = TaskSpec(key="op-ab12cd34")
        dask.scheduler.observe_duration(spec, 2.0)
        assert dask.scheduler.estimate_duration(spec) == 2.0

    def test_ema_blends(self):
        env, dask, client = make_sched()
        spec = TaskSpec(key="op-ab12cd34")
        dask.scheduler.observe_duration(spec, 2.0)
        dask.scheduler.observe_duration(spec, 4.0)
        assert dask.scheduler.estimate_duration(spec) == pytest.approx(3.0)

    def test_estimates_shared_per_prefix(self):
        env, dask, client = make_sched()
        dask.scheduler.observe_duration(
            TaskSpec(key=("op-ab12cd34", 0)), 6.0)
        assert dask.scheduler.estimate_duration(
            TaskSpec(key=("op-99999999", 5))) == 6.0


class TestDecideWorker:
    def test_root_task_picks_least_occupied(self):
        env, dask, client = make_sched()
        sched = dask.scheduler
        addresses = list(sched.workers)
        for a in addresses:
            sched.occupancy[a] = 5.0
        sched.occupancy[addresses[2]] = 0.5
        graph = TaskGraph([TaskSpec(key="root-0a0b0c0d")])
        sched.update_graph(graph)
        ts = sched.tasks["root-0a0b0c0d"]
        assert ts.processing_on.address == addresses[2]

    def test_dependent_sticks_with_big_data(self):
        """A task whose dependency is huge stays on the holder even when
        another worker is idle."""
        env, dask, client = make_sched(idle_fraction=10.0)  # all idle
        run_graphs(env, client, TaskGraph([
            TaskSpec(key="big-0c0c0c0c", compute_time=0.01,
                     output_nbytes=10 * 2**30)]), optimize=False)
        # keep the key pinned by a dependent graph
        sched = dask.scheduler
        holder = None
        for w in dask.workers:
            if "big-0c0c0c0c" in w.data:
                holder = w.address
        # big result was gathered+released; recreate state manually:
        # (use persist to keep it in memory instead)
        env2, dask2, client2 = make_sched(idle_fraction=10.0)
        recorder = ClusterRecorder(dask2)
        out = []

        def driver():
            result = yield env2.process(client2.persist(TaskGraph([
                TaskSpec(key="big-0d0d0d0d", compute_time=0.01,
                         output_nbytes=10 * 2**30)]), optimize=False))
            out.append(result)
            result2 = yield env2.process(client2.compute(TaskGraph([
                TaskSpec(key="child-0e0e0e0e", deps=("big-0d0d0d0d",),
                         compute_time=0.01, output_nbytes=1)]),
                optimize=False))
            out.append(result2)

        env2.run(until=env2.process(driver()))
        sched2 = dask2.scheduler
        parent = sched2.tasks["big-0d0d0d0d"]
        child_runs = [r for r in recorder.task_runs
                      if r.key == "child-0e0e0e0e"]
        parent_runs = [r for r in recorder.task_runs
                       if r.key == "big-0d0d0d0d"]
        assert child_runs[0].worker == parent_runs[0].worker
        # And no transfer happened.
        assert recorder.comms == []


class TestRootCoassignment:
    def test_slabs_are_contiguous(self):
        env, dask, client = make_sched()
        n = 32
        graph = TaskGraph([
            TaskSpec(key=("root-0f0f0f0f", i), compute_time=0.01,
                     output_nbytes=1)
            for i in range(n)
        ])
        dask.scheduler.update_graph(graph)
        # Consecutive root indices mostly share a worker (slab layout).
        placement = {}
        for name, ts in dask.scheduler.tasks.items():
            index = int(name.split(", ")[1].rstrip(")"))
            placement[index] = ts.processing_on.address
        same_as_next = sum(
            1 for i in range(n - 1) if placement[i] == placement[i + 1]
        )
        # 4 workers -> at most 3 slab boundaries in a perfect layout.
        assert same_as_next >= n - 1 - 4

    def test_coassignment_can_be_disabled(self):
        env, dask, client = make_sched(root_coassignment=False)
        n = 32
        graph = TaskGraph([
            TaskSpec(key=("root-1a1a1a1a", i), compute_time=0.01,
                     output_nbytes=1)
            for i in range(n)
        ])
        dask.scheduler.update_graph(graph)
        placement = {}
        for name, ts in dask.scheduler.tasks.items():
            index = int(name.split(", ")[1].rstrip(")"))
            placement[index] = ts.processing_on.address
        same_as_next = sum(
            1 for i in range(n - 1) if placement[i] == placement[i + 1]
        )
        # Round-robin assignment: neighbours rarely share a worker.
        assert same_as_next < n / 2


class TestOccupancyAccounting:
    def test_assign_adds_estimate(self):
        env, dask, client = make_sched()
        sched = dask.scheduler
        graph = TaskGraph([TaskSpec(key="solo-2b2b2b2b")])
        sched.update_graph(graph)
        ts = sched.tasks["solo-2b2b2b2b"]
        assert ts.occupancy_contrib == 0.5
        assert sched.occupancy[ts.processing_on.address] == 0.5


class TestTransitionRecordFastPath:
    """``make_transition_record`` must be indistinguishable from the
    dataclass constructor — the hot path builds records by filling
    ``__dict__`` directly."""

    def test_fast_constructor_equivalent(self):
        from dataclasses import asdict

        from repro.dasklike.states import (
            TransitionRecord,
            make_transition_record,
        )

        slow = TransitionRecord(
            key="('x', 3)", group="x", prefix="x",
            start_state="waiting", finish_state="processing",
            timestamp=1.25, stimulus="dep-ready",
            worker="w-0-0", source="scheduler",
        )
        fast = make_transition_record(
            "('x', 3)", "x", "x", "waiting", "processing",
            1.25, "dep-ready", "w-0-0", "scheduler",
        )
        assert fast == slow
        assert asdict(fast) == asdict(slow)
        assert isinstance(fast, TransitionRecord)
        with pytest.raises(Exception):
            fast.key = "mutated"  # still frozen
