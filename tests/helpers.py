"""Shared helpers to stand up a small simulated cluster for tests."""

from collections import Counter

from repro.dasklike import DaskCluster, DaskConfig
from repro.instrument import InstrumentedRun
from repro.instrument.plugins import BasePlugin
from repro.jobs import BatchSystem, JobSpec
from repro.platform import Cluster, ClusterSpec
from repro.sim import Environment, Process, RandomStreams, Timeout
from repro.sim.engine import Condition, Initialize


def make_wms(seed=0, run_index=0, worker_nodes=2, workers_per_node=2,
             threads=4, config=None, num_nodes=16, io_layer_factory=None):
    """Build (env, cluster, dask, client, job) ready to run a workflow."""
    env = Environment()
    streams = RandomStreams(seed, run_index=run_index)
    cluster = Cluster(env, ClusterSpec(num_nodes=num_nodes), streams)
    batch = BatchSystem(env, cluster, streams)
    spec = JobSpec(worker_nodes=worker_nodes,
                   workers_per_node=workers_per_node,
                   threads_per_worker=threads)
    job = env.run(until=env.process(batch.submit(spec)))
    dask = DaskCluster(env, cluster, job, config=config or DaskConfig(),
                       streams=streams, io_layer_factory=io_layer_factory)
    dask.start()
    client = dask.client()
    return env, cluster, dask, client, job


def make_instrumented(seed=0, run_index=0, worker_nodes=2,
                      workers_per_node=2, threads=4, config=None,
                      num_nodes=16, **run_kwargs):
    """Build (env, cluster, InstrumentedRun) with the full paper stack."""
    env = Environment()
    streams = RandomStreams(seed, run_index=run_index)
    cluster = Cluster(env, ClusterSpec(num_nodes=num_nodes), streams)
    batch = BatchSystem(env, cluster, streams)
    spec = JobSpec(worker_nodes=worker_nodes,
                   workers_per_node=workers_per_node,
                   threads_per_worker=threads)
    job = env.run(until=env.process(batch.submit(spec)))
    run = InstrumentedRun(env, cluster, job, config=config, streams=streams,
                          run_index=run_index, seed=seed, **run_kwargs)
    run.start()
    return env, cluster, run


def drive_instrumented(env, run, *graphs, optimize=True):
    """Run graphs through an InstrumentedRun's client; drains producers."""
    client = run.client()
    results = []

    def driver():
        yield env.process(client.connect())
        for graph in graphs:
            result = yield env.process(
                client.compute(graph, optimize=optimize))
            results.append(result)
        yield env.process(run.drain())

    env.run(until=env.process(driver()))
    return client, results


def run_graphs(env, client, *graphs, optimize=True):
    """Drive the client through one or more graphs; returns results list."""
    out = []

    def driver():
        yield env.process(client.connect())
        for graph in graphs:
            result = yield env.process(client.compute(graph,
                                                      optimize=optimize))
            out.append(result)

    env.run(until=env.process(driver()))
    return out


class RecordingPlugin(BasePlugin):
    """Keeps every record its scheduler or worker hands it, by kind.

    The WMS keeps no record itself: each one goes to the plugins and
    dies when the last hook returns, so a test that reads records
    attaches one of these before the run.
    """

    def __init__(self):
        self.transitions = []
        self.task_runs = []
        self.comms = []
        self.warnings = []
        self.spills = []
        self.steals = []

    def transition(self, record):
        self.transitions.append(record)

    def task_finished(self, record):
        self.task_runs.append(record)

    def communication(self, record):
        self.comms.append(record)

    def warning(self, record):
        self.warnings.append(record)

    def spill_moved(self, record):
        self.spills.append(record)

    def steal(self, record):
        self.steals.append(record)


class ClusterRecorder:
    """One :class:`RecordingPlugin` on the scheduler and one per worker."""

    def __init__(self, dask):
        self.scheduler = RecordingPlugin()
        dask.scheduler.plugins.append(self.scheduler)
        self.workers = {}
        for worker in dask.workers:
            recorder = RecordingPlugin()
            worker.plugins.append(recorder)
            self.workers[worker.address] = recorder

    def of(self, worker):
        """The recorder attached to ``worker``."""
        return self.workers[worker.address]

    def _across_workers(self, kind):
        return [record for recorder in self.workers.values()
                for record in getattr(recorder, kind)]

    @property
    def task_runs(self):
        """Every worker's task runs, worker by worker."""
        return self._across_workers("task_runs")

    @property
    def comms(self):
        """Every worker's incoming transfers, worker by worker."""
        return self._across_workers("comms")

    @property
    def warnings(self):
        """Every worker's health warnings, worker by worker."""
        return self._across_workers("warnings")


class EventCounter:
    """Engine monitor counting popped events by kind, and the processes
    started.

    The kinds are those of the benchmark's ``sim.events.*`` metrics:
    ``timeout``, ``initialize``, ``process``, ``condition`` and
    ``plain`` (every other event).  ``processes`` counts the resume
    callbacks of the popped :class:`Initialize` events, one per started
    process.  Attach with ``run_workflow(monitor=EventCounter())``.
    """

    def __init__(self):
        self.counts = Counter()

    def attach(self, env):
        env.add_monitor(self)

    def on_schedule(self, event, when, priority, seq, now):
        pass

    def before_callback(self, event, callback):
        pass

    def on_step(self, event, when, priority, seq):
        kind = type(event)
        if kind is Timeout:
            self.counts["timeout"] += 1
        elif kind is Initialize:
            self.counts["initialize"] += 1
            self.counts["processes"] += len(event.callbacks)
        elif kind is Process:
            self.counts["process"] += 1
        elif isinstance(event, Condition):
            self.counts["condition"] += 1
        else:
            self.counts["plain"] += 1
