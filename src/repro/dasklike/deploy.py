"""Deployment helper: stand up a Dask-like cluster on a job allocation.

Mirrors the paper's launch flow (§III-E): "after acquiring the
requested resources, the client and workers connect to the scheduler".
Given a :class:`~repro.jobs.Job`, this builds the scheduler on the
first allocated node and ``workers_per_node`` workers on each remaining
node, wires the work-stealing balancer, and returns a ready
:class:`DaskCluster`.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..jobs import Job
from ..platform import Cluster
from ..sim import Environment, RandomStreams
from .client import Client
from .config import DaskConfig
from .records import LogEntry
from .scheduler import Scheduler
from .stealing import WorkStealing
from .worker import PassthroughIO, Worker

__all__ = ["DaskCluster"]


class DaskCluster:
    """A scheduler plus its workers, deployed on a job's nodes."""

    def __init__(self, env: Environment, cluster: Cluster, job: Job,
                 config: Optional[DaskConfig] = None,
                 streams: Optional[RandomStreams] = None,
                 io_layer_factory: Optional[Callable] = None):
        self.env = env
        self.cluster = cluster
        self.job = job
        self.config = config or DaskConfig()
        self.streams = streams or cluster.streams
        #: Builds the (possibly Darshan-instrumented) I/O layer for one
        #: worker; receives the worker index and must return an object
        #: with the ``io(path, op, offset, length, thread_id)`` contract.
        factory = io_layer_factory or (
            lambda index: PassthroughIO(cluster.pfs)
        )

        self.scheduler = Scheduler(
            env, job.scheduler_node, self.config, self.streams
        )
        self.workers: list[Worker] = []
        index = 0
        for node in job.worker_nodes:
            for _ in range(job.spec.workers_per_node):
                worker = Worker(
                    env=env, index=index, node=node, config=self.config,
                    streams=self.streams, network=cluster.network,
                    io_layer=factory(index),
                    nthreads=job.spec.threads_per_worker,
                )
                self.scheduler.add_worker(worker)
                self.workers.append(worker)
                index += 1
        self.stealing = WorkStealing(self.scheduler)
        self._started = False

    def start(self, monitor_liveness: bool = False) -> None:
        """Launch worker background processes and the balancer.

        ``monitor_liveness=True`` also starts the scheduler's
        heartbeat-based failure detector (off by default: the evaluation
        workflows run on healthy allocations, and the detector is a
        perpetual process callers must stop).
        """
        if self._started:
            return
        self._started = True
        for worker in self.workers:
            worker.start()
        self.stealing.start()
        if monitor_liveness:
            self.scheduler.start_liveness_monitor()
        self.cluster.pfs.start_interference()

    def close(self) -> None:
        """Shut the cluster down once its work is done.

        Stops the workers, the balancer and the liveness monitor: the
        worker tick loops are ended where they wait, and every other
        background process returns at its next wake-up.  Detaches the
        workers from the scheduler: ``Worker.scheduler`` is the one
        reference back from a worker, so afterwards the scheduler, the
        workers and the task table hold no reference cycle.  The
        scheduler keeps its worker table, so :meth:`all_logs` and the
        provenance capture read the same after a close.
        """
        for worker in self.workers:
            worker.close()
            worker.scheduler = None
        self.stealing.stop()
        self.scheduler.stop_liveness_monitor()

    def client(self, name: str = "client") -> Client:
        return Client(self.env, self.scheduler, self.config, name=name)

    def all_logs(self, client: Optional[Client] = None) -> list[LogEntry]:
        """Scheduler, worker and (when given) client log entries by time.

        One stable sort: entries with equal times keep the order
        scheduler, workers in deployment order, client.
        """
        logs = list(self.scheduler.logs)
        for worker in self.workers:
            logs.extend(worker.logs)
        if client is not None:
            logs.extend(client.logs)
        return sorted(logs, key=lambda entry: entry.time)
