"""Observable records produced by the simulated WMS runtime.

These are the raw observations the paper's instrumentation captures:
task executions with thread attribution, inter-worker communications,
runtime warnings (garbage collection, unresponsive event loops), and
free-text log lines from the client/scheduler/workers.  They carry the
shared identifiers the paper's FAIR discussion calls out (§V): worker
addresses and hostnames, POSIX thread IDs, and timestamps — the fields
that make records from different sources joinable.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["TaskRun", "CommRecord", "WarningRecord", "LogEntry",
           "SpillRecord", "StealEvent", "record_dict"]

#: Field-name tuples per record class, resolved once.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def record_dict(record) -> dict:
    """A flat record dataclass as a fresh dict of its fields.

    Equal to ``dataclasses.asdict(record)`` in values and key order
    (declaration order) for records whose fields are scalars, as every
    record here and :class:`~repro.dasklike.states.TransitionRecord`
    are.  ``asdict`` recurses and deep-copies every value; this is one
    shallow ``getattr`` walk over a field tuple cached per class.  The
    provenance plugins, live ingest and ``logs.jsonl`` rendering call
    it once per record.
    """
    cls = type(record)
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(f.name for f in fields(cls))
    return {name: getattr(record, name) for name in names}


@dataclass(frozen=True)
class TaskRun:
    """One completed task execution on a worker thread."""

    key: str
    group: str
    prefix: str
    worker: str          # "ip:port" address
    hostname: str        # node name, joins with Darshan records
    thread_id: int       # pthread ID, joins with Darshan DXT records
    start: float         # executing began
    stop: float          # executing finished
    output_nbytes: int
    graph_index: int     # which submitted task graph this task came from
    compute_time: float  # pure compute portion (excludes in-task I/O)
    io_time: float       # in-task I/O portion
    n_reads: int = 0
    n_writes: int = 0

    @property
    def duration(self) -> float:
        return self.stop - self.start


@dataclass(frozen=True)
class CommRecord:
    """One incoming dependency transfer, from the receiver's viewpoint."""

    key: str             # the data key that moved
    src_worker: str
    dst_worker: str
    src_host: str
    dst_host: str
    nbytes: int
    start: float
    stop: float
    same_node: bool
    same_switch: bool

    @property
    def duration(self) -> float:
        return self.stop - self.start


@dataclass(frozen=True)
class WarningRecord:
    """A runtime health warning from a worker (or the scheduler)."""

    source: str          # worker address or "scheduler"
    hostname: str
    kind: str            # "unresponsive_event_loop" | "gc_collect"
    time: float
    duration: float
    message: str


@dataclass(frozen=True)
class LogEntry:
    """One free-text log line with its origin."""

    source: str          # "client" | "scheduler" | worker address
    time: float
    level: str           # "INFO" | "WARNING" | "ERROR"
    message: str


@dataclass(frozen=True)
class SpillRecord:
    """One movement between worker memory and node-local scratch."""

    worker: str
    hostname: str
    key: str
    nbytes: int
    time: float
    direction: str       # "spill" | "unspill"


@dataclass(frozen=True)
class StealEvent:
    """One work-stealing decision taken by the balancer."""

    key: str
    victim: str
    thief: str
    time: float
    victim_occupancy: float
    thief_occupancy: float
