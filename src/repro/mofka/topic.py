"""Topics and partitions of the Mofka-like broker.

"A producer pushes events that are organized into topics in the
servers" (§III-B).  A topic is a set of partitions; each partition is
an ordered, persistent event log.  A live partition keeps each event's
metadata dict exactly as the producer pushed it, and its payload in a
:class:`~repro.mofka.warabi.WarabiStore`; appending builds no
:class:`~repro.mofka.event.Event`, only :meth:`Partition.read` does,
for consumers that ask for one.  The metadata is JSON-encoded
only when the partition is persisted: :meth:`Partition.dump` writes it
as a :class:`~repro.mofka.yokan.YokanStore` (keyed by zero-padded
offset, so prefix scans return events in order) whose value per key is
the event's row object, ``{"metadata", "region", "timestamp"}``, and
:meth:`Partition.load` parses it back, faithful to the Mochi
composition on disk.  Each row is encoded once, as part of its Yokan
line, and a partition is decoded with one ``json.loads``, not one per
event.
"""

from __future__ import annotations

import os
from typing import Iterator, Optional

from .event import Event
from .warabi import WarabiStore
from .yokan import YokanStore

__all__ = ["Partition", "Topic"]


class Partition:
    """One ordered event log.

    Entry ``offset`` is ``(timestamp, metadata, region)``: the stored
    metadata dict, never copied, and the payload's Warabi region.
    """

    def __init__(self, topic: str, index: int):
        self.topic = topic
        self.index = index
        self.data_store = WarabiStore(f"{topic}.{index}.data")
        self._entries: list[tuple[float, dict, int]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, metadata: dict, data: bytes, timestamp: float) -> int:
        """Store one event; returns its offset."""
        offset = len(self._entries)
        region = self.data_store.create(data)
        self._entries.append((timestamp, metadata, region))
        return offset

    def read(self, offset: int) -> Event:
        """The event at ``offset``, as a fresh :class:`Event`.

        Built by filling ``__dict__``, not through the frozen
        ``__init__`` and its one ``object.__setattr__`` per field: the
        directory reload calls this once per row.  The result equals
        ``Event(...)`` in every field and in ``nbytes``.
        """
        if not 0 <= offset < len(self._entries):
            raise KeyError(f"{self.topic}.{self.index}: no event at "
                           f"offset {offset}")
        timestamp, metadata, region = self._entries[offset]
        event = object.__new__(Event)
        object.__setattr__(event, "__dict__", {
            "topic": self.topic, "partition": self.index,
            "offset": offset, "timestamp": timestamp,
            "metadata": metadata, "data": self.data_store.read(region),
        })
        return event

    def read_range(self, start: int, stop: Optional[int] = None
                   ) -> Iterator[Event]:
        n = len(self._entries)
        stop = n if stop is None else min(stop, n)
        for offset in range(start, stop):
            yield self.read(offset)

    # -- persistence --------------------------------------------------------
    def dump(self, directory: str) -> None:
        base = os.path.join(directory, f"{self.topic}.{self.index}")
        store = YokanStore(f"{self.topic}.{self.index}.meta")
        for offset, (timestamp, metadata, region) in enumerate(
                self._entries):
            store.put(f"evt/{offset:012d}", {
                "timestamp": timestamp,
                "metadata": metadata,
                "region": region,
            })
        store.dump(base + ".meta.jsonl")
        self.data_store.dump(base + ".warabi")

    @classmethod
    def load(cls, directory: str, topic: str, index: int) -> "Partition":
        """Reload a partition :meth:`dump` wrote.

        The ``evt/`` values, one JSON object per event, come parsed
        from the Yokan file's one ``json.loads``.  A file whose values
        are strings holding the JSON of an event, the double-encoded
        format of earlier versions, is rejected with
        :class:`ValueError`; so is a ``.warabi`` holding another number
        of blobs than there are entries, since every :meth:`append`
        creates exactly one Warabi region.
        """
        base = os.path.join(directory, f"{topic}.{index}")
        part = cls(topic, index)
        store = YokanStore.load(base + ".meta.jsonl")
        try:
            part._entries = [
                (raw["timestamp"], raw["metadata"], raw["region"])
                for _, raw in store.iter_prefix("evt/")]
        except TypeError:
            raise ValueError(
                f"{base}.meta.jsonl: an evt/ value is not an event "
                f"object; values that are strings of JSON are the "
                f"double-encoded partition format, which is not read"
            ) from None
        part.data_store = WarabiStore.load(base + ".warabi")
        if len(part.data_store) != len(part._entries):
            raise ValueError(
                f"partition {topic}.{index}: {len(part.data_store)} "
                f"Warabi blobs for {len(part._entries)} events")
        return part


class Topic:
    """A named stream split into partitions."""

    def __init__(self, name: str, n_partitions: int = 1):
        if n_partitions < 1:
            raise ValueError("need at least one partition")
        self.name = name
        self.partitions = [Partition(name, i) for i in range(n_partitions)]

    def __len__(self) -> int:
        return sum(len(p) for p in self.partitions)

    def partition_for(self, partition_key: Optional[str], counter: int) -> int:
        """Hash routing when a key is given, round-robin otherwise."""
        if partition_key is None:
            return counter % len(self.partitions)
        return hash_string(partition_key) % len(self.partitions)

    def _stream(self) -> list[tuple[float, int, int, dict]]:
        """``(timestamp, partition, offset, metadata)`` of every entry,
        in :func:`~repro.mofka.event.stream_order`.

        The one cross-partition sort both readers share.  The first
        three fields are unique, so the sort never compares two dicts.
        """
        rows = [(timestamp, part.index, offset, metadata)
                for part in self.partitions
                for offset, (timestamp, metadata, _region)
                in enumerate(part._entries)]
        rows.sort()
        return rows

    def events(self) -> list[Event]:
        """All events, ordered by (timestamp, partition, offset)."""
        partitions = self.partitions
        return [partitions[index].read(offset)
                for _, index, offset, _ in self._stream()]

    def stream_metadata(self) -> list[dict]:
        """The metadata of :meth:`events`, in the same order, without
        building an :class:`Event` (or reading a payload) per row."""
        return [row[3] for row in self._stream()]

    def dump(self, directory: str) -> None:
        for part in self.partitions:
            part.dump(directory)

    @classmethod
    def load(cls, directory: str, name: str, n_partitions: int) -> "Topic":
        topic = cls(name, n_partitions)
        topic.partitions = [
            Partition.load(directory, name, i) for i in range(n_partitions)
        ]
        return topic


def hash_string(value: str) -> int:
    """Stable (non-salted) string hash for partition routing."""
    acc = 2166136261
    for ch in value.encode("utf-8"):
        acc = (acc ^ ch) * 16777619 % 2**32
    return acc
