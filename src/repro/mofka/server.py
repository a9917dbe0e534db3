"""The Mofka broker service.

Runs (conceptually) on the job's scheduler node, "executed in user
space without administrative privileges ... alongside the workflow"
(§III-B).  Holds topics, serves produce/consume RPCs with a small
simulated service latency, and persists every partition so analyses
can replay streams after the run — "event streams are persistent data
structures, and the API for consuming events is identical whether
consumers process events individually in real time or in bulk at the
completion of a workflow".
"""

from __future__ import annotations

import os
from typing import Optional

from ..sim import Environment
from .ssg import SSGGroup
from .topic import Topic

__all__ = ["MofkaService"]


class MofkaService:
    """An in-simulation event broker."""

    #: Fixed per-RPC service latency (seconds).
    RPC_LATENCY = 0.3e-3
    #: Broker ingest bandwidth, bytes/second.
    INGEST_BANDWIDTH = 5e9

    def __init__(self, env: Environment, name: str = "mofka",
                 address: str = "mofka://scheduler:9000"):
        self.env = env
        self.name = name
        self.address = address
        self.topics: dict[str, Topic] = {}
        self.group = SSGGroup(env, f"{name}-group")
        self.group.join(address)
        # Service-side statistics (used by the overhead ablation).
        self.n_produce_rpcs = 0
        self.n_events = 0
        self.bytes_ingested = 0
        # Fault-injection state (see repro.faults): (topic, partition)
        # -> heal time.  RPCs addressed to a partition in outage stall
        # until it heals (the client-side retry loop a real Mofka
        # deployment would run).  Empty dict = healthy path untouched.
        self._outages: dict[tuple[str, int], float] = {}

    # -- fault injection ----------------------------------------------------
    def partition_outage(self, topic_name: str, partition: int,
                         until: float) -> None:
        """Partition ``partition`` of ``topic_name`` is down until
        ``until``; produce/fetch RPCs touching it stall meanwhile."""
        key = (topic_name, partition)
        self._outages[key] = max(self._outages.get(key, 0.0), until)

    def _outage_heal(self, topic_name: str, partitions) -> float:
        return max((self._outages.get((topic_name, p), 0.0)
                    for p in partitions), default=0.0)

    def outage_until(self, topic_name: str, partition: int) -> float:
        """Heal time of one partition (0.0 when healthy).

        Public so side channels accounted against a virtual topic (the
        proxystore blob channel) can honour the same outage schedule as
        real RPC traffic.
        """
        return self._outages.get((topic_name, partition), 0.0)

    # -- admin -------------------------------------------------------------
    def create_topic(self, name: str, n_partitions: int = 4) -> Topic:
        if name in self.topics:
            raise ValueError(f"topic {name} exists")
        topic = Topic(name, n_partitions)
        self.topics[name] = topic
        return topic

    def topic(self, name: str) -> Topic:
        try:
            return self.topics[name]
        except KeyError:
            raise KeyError(f"no such topic {name!r}") from None

    # -- data plane -----------------------------------------------------------
    def produce_batch(self, topic_name: str, batch: list[tuple[dict, bytes]],
                      partition_key: Optional[str] = None,
                      counter: int = 0):
        """Simulation process: ingest one producer batch.

        Stores each pushed metadata dict as it is and returns nothing.
        Service time models the RPC plus ingest bandwidth, so large
        batches amortise the round trip (the batching trade-off the A3
        ablation sweeps).
        """
        topic = self.topic(topic_name)
        nbytes = sum(
            len(str(metadata)) + len(data) for metadata, data in batch
        )
        indexes = [
            topic.partition_for(partition_key, counter + i)
            for i in range(len(batch))
        ]
        if self._outages:
            heal = self._outage_heal(topic_name, set(indexes))
            if heal > self.env.now:
                # A target partition is down: the produce RPC blocks
                # (client retry loop) until the partition heals.
                yield self.env.timeout(heal - self.env.now)
        yield self.env.timeout(
            self.RPC_LATENCY + nbytes / self.INGEST_BANDWIDTH
        )
        partitions = topic.partitions
        now = self.env.now
        for index, (metadata, data) in zip(indexes, batch):
            partitions[index].append(metadata, data, now)
        self.n_produce_rpcs += 1
        self.n_events += len(batch)
        self.bytes_ingested += nbytes

    def fetch(self, topic_name: str, partition: int, start: int,
              max_events: int = 1024):
        """Simulation process: serve a consumer pull."""
        topic = self.topic(topic_name)
        if self._outages:
            heal = self._outages.get((topic_name, partition), 0.0)
            if heal > self.env.now:
                yield self.env.timeout(heal - self.env.now)
        events = list(topic.partitions[partition].read_range(
            start, start + max_events
        ))
        nbytes = sum(e.nbytes for e in events)
        yield self.env.timeout(
            self.RPC_LATENCY + nbytes / self.INGEST_BANDWIDTH
        )
        return events

    # -- introspection (telemetry probes) -----------------------------------
    def partition_depths(self) -> dict[str, list[int]]:
        """Events stored per partition, keyed by topic name."""
        return {
            name: [len(part) for part in self.topics[name].partitions]
            for name in sorted(self.topics)
        }

    # -- persistence -------------------------------------------------------------
    def dump(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        manifest = []
        for topic in self.topics.values():
            topic.dump(directory)
            manifest.append(f"{topic.name}:{len(topic.partitions)}")
        with open(os.path.join(directory, "MANIFEST"), "w") as fh:
            fh.write("\n".join(manifest) + "\n")

    @classmethod
    def load_topics(cls, directory: str) -> dict[str, Topic]:
        """Offline load for postprocessing analysis (no Environment)."""
        topics: dict[str, Topic] = {}
        with open(os.path.join(directory, "MANIFEST")) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                name, n = line.rsplit(":", 1)
                topics[name] = Topic.load(directory, name, int(n))
        return topics

    def describe(self) -> dict:
        return {
            "name": self.name,
            "address": self.address,
            "topics": {
                t.name: len(t.partitions) for t in self.topics.values()
            },
            "group": self.group.describe(),
            "stats": {
                "produce_rpcs": self.n_produce_rpcs,
                "events": self.n_events,
                "bytes_ingested": self.bytes_ingested,
            },
        }
