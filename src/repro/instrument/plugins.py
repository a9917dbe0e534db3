"""Dask–Mofka plugins (§III-E2): the paper's first contribution.

"We have developed two components serving as plugins for the Dask
scheduler and worker classes ... Their primary function is to intercept
specific calls within the classes and extract pertinent data from the
ongoing events."  The plugins below attach to the simulated scheduler
and workers, convert every intercepted observation into a Mofka event
(JSON metadata, empty payload), and push it through a non-blocking
batching :class:`~repro.mofka.Producer` — so instrumentation never
stalls the workflow, the property the paper's design argues for.

Event ``metadata["type"]`` values:

``transition``
    Task key/group/prefix, start and finish states, timestamp, stimulus,
    worker — from both scheduler and worker state machines.
``task_run``
    Completion record with worker address, hostname, *pthread ID*,
    start/end timestamps, output size, graph index, and the in-task
    compute/I-O split.
``communication``
    Incoming transfer: data key, endpoints (worker + host), size,
    start/stop, same-node and same-switch flags.
``warning``
    ``gc_collect`` / ``unresponsive_event_loop`` health events.
``steal``
    Work-stealing decisions (scheduler side).
"""

from __future__ import annotations

from ..dasklike.records import (
    CommRecord,
    SpillRecord,
    StealEvent,
    TaskRun,
    WarningRecord,
)
from ..dasklike.states import TransitionRecord
from ..mofka import Producer

__all__ = ["BasePlugin", "MofkaSchedulerPlugin", "MofkaWorkerPlugin"]


class BasePlugin:
    """No-op plugin: the hook surface the WMS calls into."""

    def transition(self, record: TransitionRecord) -> None:  # noqa: D102
        pass

    def task_finished(self, record: TaskRun) -> None:  # noqa: D102
        pass

    def communication(self, record: CommRecord) -> None:  # noqa: D102
        pass

    def warning(self, record: WarningRecord) -> None:  # noqa: D102
        pass

    def spill_moved(self, record: SpillRecord) -> None:  # noqa: D102
        pass

    def steal(self, record: StealEvent) -> None:  # noqa: D102
        pass

    def task_added(self, *, key: str, group: str, prefix: str,
                   deps: list, graph_index: int,
                   timestamp: float) -> None:  # noqa: D102
        pass


class _MofkaPluginBase(BasePlugin):
    """Shared event-shaping logic for both plugins.

    Each event is one dict, built by :meth:`_push` and kept by the
    broker as it is.  Record hooks pass ``vars(record)`` uncopied: a
    frozen record's ``__dict__`` holds exactly its fields in
    declaration order (the generated ``__init__`` and
    :func:`~repro.dasklike.states.make_transition_record` both set
    them in that order), so the event equals
    ``{"type", "plugin_source", **asdict(record)}`` in values and key
    order.
    """

    def __init__(self, producer: Producer, source: str):
        self.producer = producer
        self.source = source
        self.n_events = 0

    def _push(self, event_type: str, payload: dict) -> None:
        metadata = {"type": event_type, "plugin_source": self.source,
                    **payload}
        # Generic funnel: schema conformance is checked at the typed
        # _push() call sites, not here.
        self.producer.push(metadata)  # repro: allow[prov-untyped-emission, flow-unresolved-emission]
        self.n_events += 1


class MofkaSchedulerPlugin(_MofkaPluginBase):
    """Intercepts scheduler-side transitions and stealing decisions."""

    def __init__(self, producer: Producer):
        super().__init__(producer, source="scheduler")

    def attach(self, scheduler) -> None:
        scheduler.plugins.append(self)

    def transition(self, record: TransitionRecord) -> None:
        self._push("transition", vars(record))

    def steal(self, record: StealEvent) -> None:
        self._push("steal", vars(record))

    def task_added(self, *, key: str, group: str, prefix: str,
                   deps: list, graph_index: int, timestamp: float) -> None:
        self._push("task_added", {
            "key": key, "group": group, "prefix": prefix, "deps": deps,
            "graph_index": graph_index, "timestamp": timestamp,
        })


class MofkaWorkerPlugin(_MofkaPluginBase):
    """Intercepts worker-side transitions, completions, comms, warnings."""

    def __init__(self, producer: Producer, worker_address: str):
        super().__init__(producer, source=worker_address)

    def attach(self, worker) -> None:
        worker.plugins.append(self)

    def transition(self, record: TransitionRecord) -> None:
        self._push("transition", vars(record))

    def task_finished(self, record: TaskRun) -> None:
        self._push("task_run", vars(record))

    def communication(self, record: CommRecord) -> None:
        self._push("communication", vars(record))

    def warning(self, record: WarningRecord) -> None:
        self._push("warning", vars(record))

    def spill_moved(self, record: SpillRecord) -> None:
        self._push("spill", vars(record))
