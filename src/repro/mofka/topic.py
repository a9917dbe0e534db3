"""Topics and partitions of the Mofka-like broker.

"A producer pushes events that are organized into topics in the
servers" (§III-B).  A topic is a set of partitions; each partition is
an ordered, persistent event log.  A live partition keeps each event's
metadata dict exactly as the producer pushed it, and its payload in a
:class:`~repro.mofka.warabi.WarabiStore`.  The metadata is JSON-encoded
only when the partition is persisted: :meth:`Partition.dump` writes it
as a :class:`~repro.mofka.yokan.YokanStore` (keyed by zero-padded
offset, so prefix scans return events in order, values JSON with sorted
keys) and :meth:`Partition.load` parses it back, faithful to the Mochi
composition on disk.
"""

from __future__ import annotations

import os
from typing import Iterator, Optional

from .event import Event, stream_order
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

    def append(self, metadata: dict, data: bytes, timestamp: float) -> Event:
        offset = len(self._entries)
        region = self.data_store.create(data)
        self._entries.append((timestamp, metadata, region))
        return Event(
            topic=self.topic, partition=self.index, offset=offset,
            timestamp=timestamp, metadata=metadata, data=data,
        )

    def read(self, offset: int) -> Event:
        if not 0 <= offset < len(self._entries):
            raise KeyError(f"{self.topic}.{self.index}: no event at "
                           f"offset {offset}")
        timestamp, metadata, region = self._entries[offset]
        return Event(
            topic=self.topic, partition=self.index, offset=offset,
            timestamp=timestamp, metadata=metadata,
            data=self.data_store.read(region),
        )

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
            store.put_json(f"evt/{offset:012d}", {
                "timestamp": timestamp,
                "metadata": metadata,
                "region": region,
            })
        store.dump(base + ".meta.jsonl")
        self.data_store.dump(base + ".warabi")

    @classmethod
    def load(cls, directory: str, topic: str, index: int) -> "Partition":
        base = os.path.join(directory, f"{topic}.{index}")
        part = cls(topic, index)
        store = YokanStore.load(base + ".meta.jsonl")
        for key in store.list_keys("evt/"):
            raw = store.get_json(key)
            part._entries.append(
                (raw["timestamp"], raw["metadata"], raw["region"]))
        part.data_store = WarabiStore.load(base + ".warabi")
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

    def events(self) -> list[Event]:
        """All events, ordered by (timestamp, partition, offset)."""
        out: list[Event] = []
        for part in self.partitions:
            out.extend(part.read_range(0))
        out.sort(key=stream_order)
        return out

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
