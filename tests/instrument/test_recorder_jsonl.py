"""Regression: ``vars(record)`` is ``asdict`` without the deep copy.

``persist`` used to render each log entry with ``json.dumps(asdict(...))``
and the Mofka plugins shaped every provenance event with ``asdict``,
which recursively deep-copies every row.  A frozen record dataclass's
own ``__dict__`` holds exactly its fields in declaration order, so
``vars(record)`` must equal ``asdict(record)`` with the same key order,
and neither ``logs.jsonl`` nor the event stream changes by a single
byte.
"""

import dataclasses
import json
from dataclasses import asdict

import pytest

from repro.dasklike import records
from repro.dasklike.records import (
    CommRecord,
    LogEntry,
    SpillRecord,
    StealEvent,
    TaskRun,
    WarningRecord,
)
from repro.dasklike.states import TransitionRecord, make_transition_record
from repro.instrument.plugins import MofkaSchedulerPlugin, MofkaWorkerPlugin

ENTRIES = [
    LogEntry(source="scheduler", time=0.0, level="INFO",
             message="Clear task state"),
    LogEntry(source="10.0.0.7:34567", time=12.25, level="WARNING",
             message="unresponsive event loop — 3.02s"),
    LogEntry(source="client", time=1e-9, level="ERROR",
             message='quotes " and \\ backslashes\nand newlines'),
    LogEntry(source="worker", time=float(10**20), level="INFO", message=""),
]

#: One instance of every record dataclass the run path flattens, and a
#: TransitionRecord from each of its two constructors.
SAMPLES = [
    TransitionRecord(key="('load-ab12', 3)", group="('load-ab12', 3)",
                     prefix="load", start_state="waiting",
                     finish_state="processing", timestamp=1.5,
                     stimulus="update-graph"),
    make_transition_record("('load-ab12', 3)", "('load-ab12', 3)", "load",
                           "processing", "memory", 2.75, "task-finished",
                           "10.0.0.2:40001", "10.0.0.2:40001"),
    TaskRun(key="('load-ab12', 3)", group="('load-ab12', 3)", prefix="load",
            worker="10.0.0.2:40001", hostname="nid0002", thread_id=140001,
            start=1.5, stop=2.75, output_nbytes=4096, graph_index=0,
            compute_time=1.0, io_time=0.25, n_reads=2, n_writes=1),
    CommRecord(key="('load-ab12', 3)", src_worker="10.0.0.2:40001",
               dst_worker="10.0.0.3:40001", src_host="nid0002",
               dst_host="nid0003", nbytes=4096, start=3.0, stop=3.125,
               same_node=False, same_switch=True),
    WarningRecord(source="10.0.0.2:40001", hostname="nid0002",
                  kind="gc_collect", time=3.5, duration=0.25,
                  message="gc pause"),
    ENTRIES[1],
    SpillRecord(worker="10.0.0.2:40001", hostname="nid0002",
                key="('x', 0)", nbytes=1024, time=9.0, direction="spill"),
    StealEvent(key="('x', 1)", victim="10.0.0.2:40001",
               thief="10.0.0.3:40001", time=4.0, victim_occupancy=2.5,
               thief_occupancy=0.0),
]


def test_lines_byte_identical_to_asdict_form():
    for entry in ENTRIES:
        assert json.dumps(vars(entry)) == json.dumps(asdict(entry))


def test_other_flat_record_types_supported():
    for record in SAMPLES:
        flat = vars(record)
        reference = asdict(record)
        assert flat == reference
        assert list(flat) == list(reference)


def test_samples_cover_every_record_dataclass():
    exported = {getattr(records, name) for name in records.__all__}
    expected = {obj for obj in exported if dataclasses.is_dataclass(obj)}
    assert {type(record) for record in SAMPLES} == expected | {
        TransitionRecord}


class _Producer:
    def __init__(self):
        self.pushed = []

    def push(self, metadata):
        self.pushed.append(metadata)


#: (plugin class, hook, event type it pushes, record).
HOOKS = [
    (MofkaSchedulerPlugin, "transition", "transition", SAMPLES[0]),
    (MofkaSchedulerPlugin, "steal", "steal", SAMPLES[7]),
    (MofkaWorkerPlugin, "transition", "transition", SAMPLES[1]),
    (MofkaWorkerPlugin, "task_finished", "task_run", SAMPLES[2]),
    (MofkaWorkerPlugin, "communication", "communication", SAMPLES[3]),
    (MofkaWorkerPlugin, "warning", "warning", SAMPLES[4]),
    (MofkaWorkerPlugin, "spill_moved", "spill", SAMPLES[6]),
]


@pytest.mark.parametrize("plugin_cls,hook,event_type,record", HOOKS,
                         ids=[f"{c.__name__}.{h}" for c, h, _, _ in HOOKS])
def test_plugin_hook_pushes_one_fresh_dict(plugin_cls, hook, event_type,
                                           record):
    producer = _Producer()
    if plugin_cls is MofkaWorkerPlugin:
        plugin = plugin_cls(producer, "10.0.0.2:40001")
    else:
        plugin = plugin_cls(producer)
    getattr(plugin, hook)(record)
    [metadata] = producer.pushed
    expected = {"type": event_type, "plugin_source": plugin.source,
                **asdict(record)}
    assert metadata == expected
    assert list(metadata) == list(expected)
    # The broker keeps what is pushed: never the record's own dict.
    assert metadata is not vars(record)
    assert vars(record) == asdict(record)


def test_jsonl_round_trips(tmp_path):
    path = tmp_path / "logs.jsonl"
    with open(path, "w") as fh:
        for entry in ENTRIES:
            fh.write(json.dumps(vars(entry)) + "\n")
    with open(path) as fh:
        parsed = [json.loads(line) for line in fh]
    assert parsed == [asdict(entry) for entry in ENTRIES]
