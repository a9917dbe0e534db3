"""Tests for the Mofka Event structure."""

import json

import pytest

from repro.mofka import Event


class TestEvent:
    def make(self):
        return Event(topic="t", partition=1, offset=7, timestamp=3.5,
                     metadata={"type": "task_run", "key": "('x', 1)"},
                     data=b"\x00payload")

    def test_nbytes_counts_metadata_and_payload(self):
        event = self.make()
        assert event.nbytes == len(json.dumps(event.metadata)) + 8

    def test_frozen(self):
        event = self.make()
        with pytest.raises(Exception):
            event.offset = 99


class TestNbytesCache:
    def test_nbytes_computed_once(self, monkeypatch):
        event = Event(topic="t", partition=0, offset=0, timestamp=1.0,
                      metadata={"k": "v"}, data=b"xy")
        expected = len(json.dumps({"k": "v"})) + 2
        assert event.nbytes == expected
        calls = []
        real_dumps = json.dumps

        def counting_dumps(*args, **kwargs):
            calls.append(args)
            return real_dumps(*args, **kwargs)

        monkeypatch.setattr("repro.mofka.event.json.dumps", counting_dumps)
        assert event.nbytes == expected  # served from the cache
        assert event.nbytes == expected
        assert calls == []

    def test_cache_does_not_leak_into_equality(self):
        a = Event(topic="t", partition=0, offset=0, timestamp=1.0,
                  metadata={"k": "v"})
        b = Event(topic="t", partition=0, offset=0, timestamp=1.0,
                  metadata={"k": "v"})
        _ = a.nbytes  # populate one side's cache only
        assert a == b


class TestStreamOrder:
    def make_events(self):
        from repro.mofka import stream_sorted  # noqa: F401
        return [
            Event("t", partition=1, offset=0, timestamp=2.0, metadata={}),
            Event("t", partition=0, offset=1, timestamp=2.0, metadata={}),
            Event("t", partition=0, offset=0, timestamp=2.0, metadata={}),
            Event("t", partition=2, offset=5, timestamp=1.0, metadata={}),
        ]

    def test_orders_by_timestamp_then_partition_then_offset(self):
        from repro.mofka import stream_sorted
        ordered = stream_sorted(self.make_events())
        assert [(e.timestamp, e.partition, e.offset) for e in ordered] == [
            (1.0, 2, 5), (2.0, 0, 0), (2.0, 0, 1), (2.0, 1, 0),
        ]

    def test_matches_topic_and_consumer_ordering(self):
        """The shared key is what Topic.events / Consumer.pull sort by."""
        from repro.mofka import stream_order, stream_sorted
        events = self.make_events()
        legacy = sorted(events,
                        key=lambda e: (e.timestamp, e.partition, e.offset))
        assert stream_sorted(events) == legacy
        assert [stream_order(e) for e in legacy] == sorted(
            stream_order(e) for e in events)

    def test_returns_fresh_list(self):
        from repro.mofka import stream_sorted
        events = self.make_events()
        ordered = stream_sorted(events)
        assert ordered is not events
        ordered.pop()
        assert len(events) == 4
