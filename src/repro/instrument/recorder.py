"""Assembly and persistence of one fully instrumented run.

This module wires the three observation layers around a simulated Dask
cluster exactly as the paper deploys them:

* a Mofka service is bootstrapped next to the scheduler (Bedrock);
* the scheduler gets a :class:`MofkaSchedulerPlugin`, each worker a
  :class:`MofkaWorkerPlugin`, each with its own batching producer;
* each worker process's I/O layer is a
  :class:`~repro.darshan.DarshanRuntime` wrapping the PFS.

At the end of a run, :meth:`InstrumentedRun.persist` writes the run
directory PERFRECUP consumes::

    <run_dir>/
        provenance.json          # Fig.-1 layered metadata
        job.json                 # batch-layer record
        logs.jsonl               # client/scheduler/worker text logs
        mofka/                   # persisted event streams
        darshan/worker-*.darshan.json.gz

Dask data and Darshan data are collected separately and only fused at
analysis time (§III-E3) — nothing here cross-references the two except
the shared identifiers (hostname, pthread ID, timestamps) embedded in
the records themselves.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from ..darshan import DEFAULT_BUFFER_LIMIT, DarshanRuntime, write_log
from ..dasklike import DaskCluster, DaskConfig
from ..dasklike.records import record_dict
from ..jobs import Job
from ..mofka import BedrockConfig, Producer, bootstrap
from ..platform import Cluster
from ..sim import Environment, RandomStreams
from .metadata import capture_provenance, write_provenance
from .plugins import MofkaSchedulerPlugin, MofkaWorkerPlugin

__all__ = ["InstrumentedRun", "PROVENANCE_TOPIC"]

PROVENANCE_TOPIC = "dask-provenance"


class InstrumentedRun:
    """A Dask-like cluster with the paper's full instrumentation stack."""

    def __init__(self, env: Environment, cluster: Cluster, job: Job,
                 config: Optional[DaskConfig] = None,
                 streams: Optional[RandomStreams] = None,
                 dxt_buffer_limit: int = DEFAULT_BUFFER_LIMIT,
                 producer_batch_size: int = 64,
                 producer_linger: float = 0.05,
                 mofka_partitions: int = 4,
                 online_darshan: bool = False,
                 adaptive_dxt: bool = False,
                 telemetry=None,
                 run_index: int = 0, seed: int = 0):
        self.env = env
        self.cluster = cluster
        self.job = job
        self.run_index = run_index
        self.seed = seed
        #: Optional :class:`~repro.telemetry.Telemetry` bundle.  When
        #: absent nothing attaches — no engine monitor, no plugins —
        #: so the disabled path is exactly the pre-telemetry run.
        self.telemetry = telemetry

        self.mofka = bootstrap(env, BedrockConfig(
            topics=((PROVENANCE_TOPIC, mofka_partitions),),
            start_monitor=False,
        ))

        # Optional online extensions (paper future work, §VI).
        self.online_bridge = None
        if online_darshan:
            from .online import OnlineDarshanBridge
            self.online_bridge = OnlineDarshanBridge(env, self.mofka)

        # Darshan: one runtime per worker process.
        self.darshan_runtimes: list[DarshanRuntime] = []
        workers_per_node = job.spec.workers_per_node

        def io_layer_factory(index: int) -> DarshanRuntime:
            node = job.worker_nodes[index // workers_per_node]
            dxt_module = None
            if adaptive_dxt:
                from ..darshan.adaptive import AdaptiveDXTModule
                dxt_module = AdaptiveDXTModule(dxt_buffer_limit)
            runtime = DarshanRuntime(
                pfs=cluster.pfs, jobid=job.job_id, rank=index,
                hostname=node.name, exe="dask-worker",
                dxt_buffer_limit=dxt_buffer_limit,
                dxt_module=dxt_module,
                segment_callback=self.online_bridge.segment_callback
                if self.online_bridge is not None else None,
            )
            self.darshan_runtimes.append(runtime)
            return runtime

        self.dask = DaskCluster(
            env, cluster, job, config=config, streams=streams,
            io_layer_factory=io_layer_factory,
        )

        # Mofka plugins: one producer per instrumented process.
        self.producers: list[Producer] = []
        scheduler_producer = Producer(
            env, self.mofka, PROVENANCE_TOPIC,
            batch_size=producer_batch_size, linger=producer_linger,
            name="producer-scheduler",
        )
        self.producers.append(scheduler_producer)
        self.scheduler_plugin = MofkaSchedulerPlugin(scheduler_producer)
        self.scheduler_plugin.attach(self.dask.scheduler)

        self.worker_plugins: list[MofkaWorkerPlugin] = []
        for worker in self.dask.workers:
            producer = Producer(
                env, self.mofka, PROVENANCE_TOPIC,
                batch_size=producer_batch_size, linger=producer_linger,
                name=f"producer-{worker.address}",
            )
            self.producers.append(producer)
            plugin = MofkaWorkerPlugin(producer, worker.address)
            plugin.attach(worker)
            self.worker_plugins.append(plugin)

        # Pass-by-reference data plane (opt-in via DaskConfig): the
        # store shares the provenance topic through its own producer,
        # so proxy_put/resolve/evict events land in the same stream the
        # analysis views join on.  Disabled, nothing is constructed and
        # the event stream stays byte-identical.
        self.proxy_store = None
        if config is not None and config.proxy_enabled:
            from ..proxystore import Store, make_backend
            proxy_producer = Producer(
                env, self.mofka, PROVENANCE_TOPIC,
                batch_size=producer_batch_size, linger=producer_linger,
                name="producer-proxystore",
            )
            self.producers.append(proxy_producer)
            backend = make_backend(
                config.proxy_backend, env=env,
                network=cluster.network, pfs=cluster.pfs,
                mofka=self.mofka,
            )
            self.proxy_store = Store(
                env, backend,
                threshold=config.proxy_threshold,
                producer=proxy_producer,
                baseline_bandwidth=config.bandwidth_estimate,
                max_retries=config.proxy_max_retries,
                retry_backoff=config.proxy_retry_backoff,
            )
            self.proxy_store.attach(self.dask)

        if telemetry is not None:
            telemetry.instrument_run(self)

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.dask.start()

    def client(self, name: str = "client"):
        return self.dask.client(name=name)

    def drain(self):
        """Simulation process: flush every producer's buffered events."""
        for producer in self.producers:
            yield self.env.process(producer.close())
        if self.online_bridge is not None:
            yield self.env.process(self.online_bridge.drain())

    # ------------------------------------------------------------------
    def persist(self, run_dir: str, client=None,
                workflow: Optional[dict] = None) -> str:
        """Write the complete run directory; returns its path."""
        os.makedirs(run_dir, exist_ok=True)

        # Layered provenance metadata (Fig. 1).
        write_provenance(
            capture_provenance(
                self.cluster, self.job, self.dask, client=client,
                mofka_service=self.mofka, workflow=workflow,
                run_index=self.run_index, seed=self.seed,
            ),
            os.path.join(run_dir, "provenance.json"),
        )

        # Batch-layer record.
        with open(os.path.join(run_dir, "job.json"), "w") as fh:
            json.dump(self.job.describe(), fh, indent=2)

        # Free-text logs from every component.
        logs = self.dask.all_logs()
        if client is not None:
            logs = sorted(logs + client.logs, key=lambda e: e.time)
        with open(os.path.join(run_dir, "logs.jsonl"), "w") as fh:
            for entry in logs:
                fh.write(json.dumps(record_dict(entry)) + "\n")

        # Mofka streams.
        self.mofka.dump(os.path.join(run_dir, "mofka"))

        # Darshan logs, one per worker process.
        darshan_dir = os.path.join(run_dir, "darshan")
        for runtime in self.darshan_runtimes:
            log = runtime.finalize()
            write_log(log, os.path.join(
                darshan_dir, f"worker-{log.rank:03d}.darshan.json.gz",
            ))

        # Telemetry artifacts (only when a bundle was attached).
        if self.telemetry is not None:
            self.telemetry.persist(run_dir)
        return run_dir
