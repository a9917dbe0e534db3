"""One stream order: ``Topic.stream_metadata`` against ``Topic.events``.

The live ``RunData`` load reads the provenance topic as bare metadata
dicts; ``Topic.events`` builds an :class:`~repro.mofka.Event` per row.
Both must yield the same order, ``(timestamp, partition, offset)``,
including on timestamp ties across partitions and after the topic went
through ``dump``/``load``.
"""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mofka import Topic
from repro.mofka.event import stream_order

#: Few distinct timestamps, so ties across partitions are the rule.
ENTRIES = st.lists(st.tuples(st.integers(0, 3),
                             st.sampled_from([0.0, 0.25, 0.5, 1.0, 1e-9])),
                   max_size=40)


def build(n_partitions, entries):
    topic = Topic("t", n_partitions)
    for n, (partition, timestamp) in enumerate(entries):
        topic.partitions[partition % n_partitions].append(
            {"n": n, "type": "x"}, b"", timestamp)
    return topic


@given(st.integers(1, 4), ENTRIES)
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
def test_metadata_merge_equals_event_order(n_partitions, entries):
    topic = build(n_partitions, entries)
    events = topic.events()
    assert events == sorted(events, key=stream_order)
    assert topic.stream_metadata() == [e.metadata for e in events]
    # The live merge hands out the stored dicts themselves.
    assert all(a is e.metadata
               for a, e in zip(topic.stream_metadata(), events))

    with tempfile.TemporaryDirectory() as tmp:
        topic.dump(tmp)
        loaded = Topic.load(tmp, "t", n_partitions)
    assert loaded.stream_metadata() == \
        [e.metadata for e in loaded.events()] == \
        [e.metadata for e in events]
