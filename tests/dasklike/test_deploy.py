"""Tests for the DaskCluster deployment helper."""

import pytest

from repro.dasklike import DaskCluster, DaskConfig, PassthroughIO
from repro.jobs import BatchSystem, JobSpec
from repro.platform import Cluster, ClusterSpec
from repro.sim import Environment, RandomStreams
from repro.sim.engine import Initialize

from tests.helpers import ClusterRecorder, make_wms, run_graphs
from tests.dasklike.test_integration import map_reduce_graph


def build(worker_nodes=2, workers_per_node=3, threads=5):
    env = Environment()
    streams = RandomStreams(7)
    cluster = Cluster(env, ClusterSpec(num_nodes=8), streams)
    batch = BatchSystem(env, cluster, streams)
    job = env.run(until=env.process(batch.submit(JobSpec(
        worker_nodes=worker_nodes, workers_per_node=workers_per_node,
        threads_per_worker=threads))))
    dask = DaskCluster(env, cluster, job, streams=streams)
    return env, cluster, dask


class TestLayout:
    def test_worker_placement_matches_job(self):
        env, cluster, dask = build()
        assert len(dask.workers) == 6
        hosts = {}
        for worker in dask.workers:
            hosts.setdefault(worker.node.name, []).append(worker)
        assert len(hosts) == 2
        assert all(len(ws) == 3 for ws in hosts.values())
        assert all(w.nthreads == 5 for w in dask.workers)

    def test_scheduler_on_first_node(self):
        env, cluster, dask = build()
        assert dask.scheduler.node is dask.job.nodes[0]
        worker_nodes = {w.node.name for w in dask.workers}
        assert dask.scheduler.node.name not in worker_nodes

    def test_default_io_layer_is_passthrough(self):
        env, cluster, dask = build()
        assert all(isinstance(w.io_layer, PassthroughIO)
                   for w in dask.workers)

    def test_unique_worker_addresses_and_threads(self):
        env, cluster, dask = build()
        addresses = [w.address for w in dask.workers]
        assert len(set(addresses)) == len(addresses)
        all_tids = [tid for w in dask.workers for tid in w.thread_ids]
        assert len(set(all_tids)) == len(all_tids)

    def test_start_is_idempotent(self):
        env, cluster, dask = build()
        dask.start()
        dask.start()  # second call must be a no-op
        assert dask._started


class TestAggregationHelpers:
    def test_all_logs_sorted_and_transitions_reported_in_time_order(self):
        env, cluster, dask, client, job = make_wms()
        recorder = ClusterRecorder(dask)
        run_graphs(env, client, map_reduce_graph(width=8,
                                                 token="de9de9de"))
        logs = dask.all_logs()
        assert [e.time for e in logs] == sorted(e.time for e in logs)
        # The scheduler and the workers both report transitions, each
        # in time order.
        reporters = [recorder.scheduler, *recorder.workers.values()]
        for reporter in reporters:
            times = [t.timestamp for t in reporter.transitions]
            assert times == sorted(times)
        sources = {t.source for reporter in reporters
                   for t in reporter.transitions}
        assert "scheduler" in sources and len(sources) > 1

    def test_all_logs_with_client_is_one_stable_merge(self):
        """Passing the client merges its entries in the same sort: ties
        keep scheduler, then workers, then client, which is the order
        of sorting the cluster's logs first and the client's after."""
        env, cluster, dask, client, job = make_wms()
        run_graphs(env, client, map_reduce_graph(width=8,
                                                 token="de9de9de"))
        merged = dask.all_logs(client)
        two_sorts = sorted(dask.all_logs() + client.logs,
                           key=lambda entry: entry.time)
        assert len(merged) == len(two_sorts) > len(client.logs) > 0
        assert all(a is b for a, b in zip(merged, two_sorts))
        times = [entry.time for entry in merged]
        assert len(set(times)) < len(times)  # ties are exercised


class StartedProcesses:
    """Engine monitor keeping every process it sees start."""

    def __init__(self):
        self.processes = []

    def on_schedule(self, event, when, priority, seq, now):
        pass

    def before_callback(self, event, callback):
        pass

    def on_step(self, event, when, priority, seq):
        if type(event) is Initialize:
            self.processes.extend(cb.__self__ for cb in event.callbacks)


class TestClose:
    def test_close_leaves_none_of_the_cluster_processes_waiting(self):
        """After ``close`` the worker tick loops are ended at once, and
        the GC models, heartbeats, balancer and liveness monitor return
        at their next wake-up; only the platform's PFS load walk goes
        on.  The logs and the provenance the cluster reports stay."""
        env, cluster, dask, client, job = make_wms()
        started = env.add_monitor(StartedProcesses())
        dask.scheduler.start_liveness_monitor()
        run_graphs(env, client, map_reduce_graph(width=8,
                                                 token="c105ec105e"))
        logs = dask.all_logs()
        described = dask.scheduler.describe()
        dask.close()
        assert all(worker.scheduler is None for worker in dask.workers)
        env.run(until=env.now + 10.0)
        waiting = sorted(proc.name for proc in started.processes
                         if proc.is_alive)
        assert waiting == ["pfs-interference"]
        names = {proc.name for proc in started.processes}
        assert {"worker-0-loop", "worker-0-gc", "worker-0-heartbeat",
                "work-stealing", "scheduler-liveness"} <= names
        assert dask.all_logs() == logs
        assert dask.scheduler.describe() == described
