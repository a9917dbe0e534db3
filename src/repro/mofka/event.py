"""Event structure of the Mofka-like streaming service.

"Each event has two parts.  The first is a data portion that contains
the raw data payload.  The second is metadata expressed in JSON format
to describe the data." (§III-B).  We reproduce that structure: the
metadata part is a JSON-serialisable mapping, the data part an opaque
byte string (often empty for provenance events, whose payload fits in
the metadata).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

__all__ = ["Event", "stream_order", "stream_sorted"]


@dataclass(frozen=True)
class Event:
    """One event as stored in a topic partition."""

    topic: str
    partition: int
    offset: int
    timestamp: float
    metadata: dict
    data: bytes = b""

    @cached_property
    def nbytes(self) -> int:
        """Approximate wire size: JSON metadata plus raw payload.

        Only :meth:`MofkaService.fetch` reads it, to time a consumer
        pull.  Producer batching does not: ``produce_batch`` sizes each
        pushed event once with ``len(str(metadata))``.  The two
        estimates differ (``repr`` vs JSON spelling) and both set
        simulated time, so merging them would move every golden.
        Cached on first access (``cached_property`` side-steps the
        frozen ``__setattr__`` via ``__dict__``).
        """
        return len(json.dumps(self.metadata)) + len(self.data)


def stream_order(event: Event) -> tuple[float, int, int]:
    """Canonical global ordering key of the event stream.

    Events merge across partitions by timestamp; ties break by
    ``(partition, offset)`` so the merged order is total and
    deterministic.  Every reader producing a cross-partition view
    (:meth:`Topic.events`, :meth:`Topic.stream_metadata`,
    :meth:`Consumer.pull`) must sort with this one key, or downstream
    time-ordered analyses disagree about tie order.
    """
    return (event.timestamp, event.partition, event.offset)


def stream_sorted(events: Iterable[Event]) -> list[Event]:
    """Events merged into canonical stream order (a fresh list)."""
    return sorted(events, key=stream_order)
