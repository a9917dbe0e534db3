"""Mofka consumers: in-situ pulls and post-hoc bulk reads.

"Consumers subscribe to specific topics and pull events from servers to
process them ... the API for consuming events is identical whether
consumers process events individually in real time or in bulk at the
completion of a workflow" (§III-B).  Two entry points mirror that:

* :meth:`Consumer.pull` — a simulation process that fetches the next
  window of events while the workflow runs (in-situ analysis);
* :meth:`Consumer.fetch_all` — an immediate bulk read of the whole
  stream as :class:`~repro.mofka.event.Event` objects.

PERFRECUP's live :class:`~repro.core.ingest.RunData` load needs only
the metadata dicts, so it reads them in the same order with
:meth:`Topic.stream_metadata <repro.mofka.topic.Topic.stream_metadata>`
instead.
"""

from __future__ import annotations

from typing import Optional

from ..sim import Environment
from .event import Event, stream_order
from .server import MofkaService

__all__ = ["Consumer"]


class Consumer:
    """A subscriber on one topic with per-partition offsets."""

    def __init__(self, env: Environment, service: MofkaService, topic: str,
                 name: str = "consumer"):
        self.env = env
        self.service = service
        self.topic_name = topic
        self.name = name
        topic_obj = service.topic(topic)
        self._offsets = {p.index: 0 for p in topic_obj.partitions}

    @property
    def lag(self) -> int:
        """Events published but not yet pulled by this consumer."""
        topic = self.service.topic(self.topic_name)
        return sum(
            len(part) - self._offsets[part.index]
            for part in topic.partitions
        )

    def pull(self, max_events: int = 1024):
        """Simulation process: fetch up to ``max_events`` pending events.

        The per-partition quota is recomputed between rounds: a
        partition that fills its share keeps the right to the budget
        that *idle* partitions left unused, so a single hot partition
        can be drained at the full ``max_events`` rate instead of being
        capped at ``max_events / n_partitions`` while its lag grows.
        """
        out: list[Event] = []
        budget = max_events
        # Partitions that may still hold unread events for us.
        candidates = sorted(self._offsets)
        while budget > 0 and candidates:
            per_part = max(1, budget // len(candidates))
            drained: list[int] = []
            for index in candidates:
                if budget <= 0:
                    break
                quota = min(per_part, budget)
                events = yield self.env.process(self.service.fetch(
                    self.topic_name, index, self._offsets[index], quota,
                ))
                if events:
                    self._offsets[index] = events[-1].offset + 1
                    out.extend(events)
                    budget -= len(events)
                if len(events) < quota:
                    # Short read: nothing more pending right now.
                    drained.append(index)
            candidates = [i for i in candidates if i not in drained]
        out.sort(key=stream_order)
        return out

    def fetch_all(self) -> list[Event]:
        """Immediate bulk read of everything from the beginning.

        Does not advance this consumer's offsets.  ``RunData`` no longer
        uses it: the live load reads the metadata in the same order with
        :meth:`~repro.mofka.topic.Topic.stream_metadata`, without
        building an :class:`Event` per row.
        """
        return self.service.topic(self.topic_name).events()
