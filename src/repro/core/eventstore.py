"""Columnar event store: the PERFRECUP hot-path ingest layer.

The Mofka provenance stream arrives as one time-ordered list of
metadata dicts.  Every view builder needs only the records of *one*
event type, and every derived column (durations, byte totals) is plain
array math over a handful of fields — yet the original implementation
re-scanned the full list per view call and built per-row dicts.

:class:`EventStore` does the O(N) work exactly once: a single pass
partitions the stream by ``type`` (preserving stream order inside each
partition), and per-field NumPy columns are materialised lazily, one
array per ``(type, field)``, then cached.  Events are treated as
immutable once a store exists — the same contract that makes the
:class:`~repro.core.session.AnalysisSession` view cache safe.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Iterable, Optional, Sequence

import numpy as np

from .table import Table, as_column

__all__ = ["EventStore", "columns_from_records"]


def _field_values(records: Sequence[dict], field: str) -> list:
    """All values of one field, in record order.

    ``map(itemgetter(...))`` runs the extraction loop in C; the
    ``dict.get`` fallback only triggers when some record lacks the
    field, and keeps the "missing → None" contract of the original
    per-row ``record.get`` path.
    """
    try:
        return list(map(itemgetter(field), records))
    except KeyError:
        return [record.get(field) for record in records]


def _value_lists(records: Sequence[dict],
                 fields: Sequence[str]) -> dict[str, Sequence]:
    """Per-field value sequences via one pass over the records.

    A multi-field ``itemgetter`` yields one tuple per record and
    ``zip(*...)`` transposes them — both C loops, so the records are
    walked once for all fields instead of once per field.  Falls back
    to per-field extraction (missing → ``None``) when any record lacks
    a field.
    """
    if not records:
        return {field: () for field in fields}
    if len(fields) == 1:
        return {fields[0]: _field_values(records, fields[0])}
    try:
        rows = list(map(itemgetter(*fields), records))
    except KeyError:
        return {field: _field_values(records, field) for field in fields}
    return dict(zip(fields, zip(*rows)))


def columns_from_records(records: Sequence[dict],
                         fields: Iterable[str]) -> dict[str, np.ndarray]:
    """One NumPy column per field, pulled out of a record-dict list.

    Missing fields become ``None`` cells (matching ``dict.get``), so the
    result is exactly what :meth:`Table.from_records` would have built —
    minus the per-row intermediate dicts.
    """
    records = list(records)
    fields = list(fields)
    values = _value_lists(records, fields)
    return {field: as_column(values[field]) for field in fields}


class EventStore:
    """Partition-once, column-on-demand index over one event stream."""

    def __init__(self, events: Sequence[dict]):
        self._events = events
        self._partitions: Optional[dict[str, list[dict]]] = None
        self._columns: dict[tuple[str, str], np.ndarray] = {}

    # -- partitioning ------------------------------------------------------
    def _partition(self) -> dict[str, list[dict]]:
        if self._partitions is None:
            # defaultdict instead of setdefault: the latter allocates a
            # throwaway empty list per event on this O(N) hot pass.
            partitions: defaultdict[str, list[dict]] = defaultdict(list)
            for event in self._events:
                partitions[event.get("type")].append(event)
            self._partitions = dict(partitions)
        return self._partitions

    def records(self, event_type: str) -> list[dict]:
        """The raw records of one type, in stream order (cached list)."""
        return self._partition().get(event_type, [])

    def count(self, event_type: str) -> int:
        return len(self.records(event_type))

    def __len__(self) -> int:
        return len(self._events)

    # -- columns -----------------------------------------------------------
    def column(self, event_type: str, field: str) -> np.ndarray:
        """One field of one partition as a NumPy array (memoized)."""
        key = (event_type, field)
        cached = self._columns.get(key)
        if cached is None:
            cached = as_column(_field_values(self.records(event_type),
                                             field))
            self._columns[key] = cached
        return cached

    def columns(self, event_type: str,
                fields: Iterable[str]) -> dict[str, np.ndarray]:
        """Several fields of one partition, each memoized.

        Uncached fields are extracted together in a single pass over
        the partition (see :func:`_value_lists`).
        """
        fields = list(fields)
        missing = [field for field in fields
                   if (event_type, field) not in self._columns]
        if missing:
            values = _value_lists(self.records(event_type), missing)
            for field in missing:
                self._columns[(event_type, field)] = \
                    as_column(values[field])
        return {field: self._columns[(event_type, field)]
                for field in fields}

    def table(self, event_type: str, fields: Sequence[str]) -> Table:
        """A :class:`Table` of one partition's named fields."""
        return Table(self.columns(event_type, fields))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<EventStore {len(self._events)} events, "
                f"{len(self._partition())} types>")
