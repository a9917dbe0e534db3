"""Multisource ingestion: one run's artifacts → typed record sets.

PERFRECUP "reads performance data and logs generated by many layers
from different tools such as Darshan, Dask, and job schedulers and
provides uniform data structures" (§III-D).  :class:`RunData` is that
ingestion point.  :meth:`RunData.load` is the single entry: give it a
run-directory path (the postprocessing path) or a live
``InstrumentedRun`` (the in-situ path) — the same duality Mofka's
persistent streams give the paper's framework.  The historical
``from_directory`` / ``from_live`` classmethods remain as thin shims
over ``load``.

A loaded run is treated as **immutable**: the columnar
:class:`~repro.core.eventstore.EventStore` exposed by :attr:`RunData.store`
partitions the event stream once, and the
:class:`~repro.core.session.AnalysisSession` caches every view built on
top of it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

from ..darshan import DarshanReport
from ..dasklike.records import record_dict
from ..instrument.metadata import read_provenance
from ..instrument.recorder import PROVENANCE_TOPIC
from ..mofka import MofkaService
from .eventstore import EventStore

__all__ = ["RunData"]


@dataclass
class RunData:
    """All observations of one workflow run, source by source."""

    #: Mofka event metadata dicts, time-ordered (the Dask-side stream).
    #: A live load returns the very dicts that were pushed to the
    #: producers and that the broker keeps, so treat every event as
    #: read-only.  Live and reloaded events are equal in value and
    #: order; only the key order inside a dict differs (push order
    #: live, sorted keys after a round trip through the persisted
    #: stream).
    events: list = field(default_factory=list)
    #: Aggregated Darshan logs (the I/O side).
    darshan: Optional[DarshanReport] = None
    #: Free-text log entries as dicts (client/scheduler/workers).
    logs: list = field(default_factory=list)
    #: The Fig.-1 layered provenance document.
    provenance: dict = field(default_factory=dict)
    #: Job-layer record.
    job: dict = field(default_factory=dict)
    #: Sampled telemetry rows (time/metric/kind/labels/value), empty
    #: when the run was executed without a telemetry bundle.
    metrics: list = field(default_factory=list)
    run_index: int = 0

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, source, client=None) -> "RunData":
        """Load run observations from any supported source.

        Dispatch: a path (``str`` / ``os.PathLike``) loads a persisted
        run directory; a ``lake://<catalog-root>/<run_id>`` URI
        resolves through the run catalog (:mod:`repro.lake`); a live
        ``InstrumentedRun`` reads the in-memory artifacts (``client``
        optionally contributes its logs); an existing :class:`RunData`
        passes through unchanged.  ``repro.open_run`` documents the
        full source matrix.
        """
        if isinstance(source, RunData):
            return source
        if isinstance(source, str) and source.startswith("lake://"):
            from ..lake import resolve_uri
            return resolve_uri(source)
        if isinstance(source, (str, os.PathLike)):
            return cls._load_directory(os.fspath(source))
        if hasattr(source, "mofka") and hasattr(source, "env"):
            return cls._load_live(source, client=client)
        raise TypeError(
            f"cannot load run data from {type(source).__name__!r}; "
            f"expected a run-directory path, an InstrumentedRun, or a "
            f"RunData")

    @classmethod
    def from_directory(cls, run_dir: str) -> "RunData":
        """Postprocessing path (shim over :meth:`load`)."""
        return cls.load(run_dir)

    @classmethod
    def from_live(cls, run, client=None) -> "RunData":
        """In-situ path (shim over :meth:`load`)."""
        return cls.load(run, client=client)

    # ------------------------------------------------------------------
    @classmethod
    def _load_directory(cls, run_dir: str) -> "RunData":
        topics = MofkaService.load_topics(os.path.join(run_dir, "mofka"))
        events = [e.metadata for e in topics[PROVENANCE_TOPIC].events()]
        darshan = DarshanReport.from_directory(
            os.path.join(run_dir, "darshan"))
        logs = []
        with open(os.path.join(run_dir, "logs.jsonl")) as fh:
            for line in fh:
                logs.append(json.loads(line))
        provenance = read_provenance(os.path.join(run_dir, "provenance.json"))
        with open(os.path.join(run_dir, "job.json")) as fh:
            job = json.load(fh)
        metrics = []
        metrics_path = os.path.join(run_dir, "telemetry", "metrics.json")
        if os.path.exists(metrics_path):
            with open(metrics_path) as fh:
                metrics = json.load(fh)
        return cls(events=events, darshan=darshan, logs=logs,
                   provenance=provenance, job=job, metrics=metrics,
                   run_index=provenance.get("run_index", 0))

    @classmethod
    def _load_live(cls, run, client=None) -> "RunData":
        from ..mofka import Consumer
        consumer = Consumer(run.env, run.mofka, PROVENANCE_TOPIC)
        events = [e.metadata for e in consumer.fetch_all()]
        darshan = DarshanReport([r.finalize() for r in run.darshan_runtimes])
        logs = [record_dict(entry) for entry in run.dask.all_logs()]
        if client is not None:
            logs += [record_dict(entry) for entry in client.logs]
        logs.sort(key=lambda e: e["time"])
        from ..instrument.metadata import capture_provenance
        provenance = capture_provenance(
            run.cluster, run.job, run.dask, client=client,
            mofka_service=run.mofka, run_index=run.run_index, seed=run.seed,
        )
        telemetry = getattr(run, "telemetry", None)
        metrics = telemetry.metrics_records() if telemetry is not None \
            else []
        return cls(events=events, darshan=darshan, logs=logs,
                   provenance=provenance, job=run.job.describe(),
                   metrics=metrics, run_index=run.run_index)

    # ------------------------------------------------------------------
    def __getstate__(self):
        # Keep pickles lean for the process-pool transport in
        # ``run_many``: the columnar store and the analysis session are
        # derived caches rebuilt lazily on first access, so never ship
        # them between processes (the session also holds a lock, which
        # cannot be pickled).
        state = dict(self.__dict__)
        state.pop("_store", None)
        state.pop("_analysis_session", None)
        return state

    # ------------------------------------------------------------------
    @property
    def store(self) -> EventStore:
        """Columnar index over :attr:`events` (built once, lazily).

        The store assumes the event list does not change afterwards;
        replace the whole :class:`RunData` rather than mutating one
        that has been analyzed.
        """
        store = getattr(self, "_store", None)
        if store is None or store._events is not self.events:
            store = EventStore(self.events)
            self._store = store
        return store

    def events_of_type(self, event_type: str) -> list[dict]:
        """Records of one type, in stream order (a fresh list)."""
        return list(self.store.records(event_type))

    @property
    def wall_time(self) -> float:
        """End-to-end span of the run (first to last observation)."""
        cached = getattr(self, "_wall_time", None)
        if cached is None:
            cached = self._compute_wall_time()
            self._wall_time = cached
        return cached

    def _compute_wall_time(self) -> float:
        times: list[float] = []
        for e in self.events:
            for key in ("timestamp", "time", "stop"):
                if key in e and e[key] is not None:
                    times.append(float(e[key]))
        times.extend(float(entry["time"]) for entry in self.logs)
        if self.darshan is not None:
            for log in self.darshan.logs:
                times.append(log.end_time)
        if not times:
            return 0.0
        return max(times) - min(times)
