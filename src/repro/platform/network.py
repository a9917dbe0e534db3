"""Interconnect model.

The paper attributes part of the observed run-to-run variability to
network topology effects: "if the Dask scheduler and worker nodes are
connected to different switches, some workers may experience increased
latency" (§III-E1), and Fig. 5 colours communications by whether the
endpoints share a node.  This module provides exactly that structure —
a two-level switch topology with distinct intra-node, intra-switch and
inter-switch costs, per-NIC contention, and log-normal jitter.

A transfer is a simulation process: it claims a DMA channel on the
sender's and receiver's NICs (FIFO queueing under load), waits latency
plus ``size / effective_bandwidth`` (perturbed by jitter), and returns a
:class:`TransferRecord` that the worker instrumentation turns into the
communication events PERFRECUP analyses.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import Environment, RandomStreams
from .node import Node

__all__ = ["NetworkSpec", "TransferRecord", "Network"]


@dataclass(frozen=True)
class NetworkSpec:
    """Tunable constants of the interconnect model (Slingshot-11-like)."""

    #: One-way latency between NICs on the same switch (seconds).
    base_latency: float = 2.0e-6
    #: Extra latency per switch hop.
    hop_latency: float = 1.0e-6
    #: Software/protocol overhead per message (serialization setup etc.).
    message_overhead: float = 200e-6
    #: Bandwidth of an intra-node (shared-memory) transfer, bytes/s.
    intranode_bandwidth: float = 80e9
    #: Latency of an intra-node transfer.
    intranode_latency: float = 0.5e-6
    #: Sigma of the log-normal jitter on transfer durations.
    jitter_sigma: float = 0.12
    #: Probability that a message hits a transient congestion episode.
    congestion_probability: float = 0.02
    #: Multiplier applied during a congestion episode.
    congestion_factor: float = 8.0


@dataclass
class TransferRecord:
    """One completed point-to-point transfer."""

    src: str
    dst: str
    nbytes: int
    start: float
    stop: float
    same_node: bool
    same_switch: bool

    @property
    def duration(self) -> float:
        return self.stop - self.start


class Network:
    """Point-to-point transfer engine over a set of :class:`Node` objects."""

    def __init__(self, env: Environment, nodes: dict[str, Node],
                 spec: NetworkSpec | None = None,
                 streams: RandomStreams | None = None):
        self.env = env
        self.nodes = nodes
        self.spec = spec or NetworkSpec()
        self.streams = streams or RandomStreams()
        # Fault-injection state (see repro.faults).  Inactive defaults:
        # the checks below compare env.now against 0.0 and consult an
        # empty dict, so a run without faults takes the exact same code
        # path (and draws the exact same random variates) as before.
        self._fault_factor = 1.0
        self._fault_until = 0.0
        self._partitioned: dict[str, float] = {}  # node name -> heal time

    # -- static cost model ------------------------------------------------
    def latency(self, src: Node, dst: Node) -> float:
        if src.name == dst.name:
            return self.spec.intranode_latency
        if src.switch == dst.switch:
            return self.spec.base_latency
        # Two-level fat tree: up to the spine and back down.
        return self.spec.base_latency + 2 * self.spec.hop_latency

    def bandwidth(self, src: Node, dst: Node) -> float:
        if src.name == dst.name:
            return self.spec.intranode_bandwidth
        return min(src.spec.nic_bandwidth, dst.spec.nic_bandwidth)

    # -- introspection (telemetry probes) ----------------------------------
    def nic_utilization(self) -> dict[str, dict]:
        """Per-node DMA channel occupancy and queue depths, by node name."""
        out: dict[str, dict] = {}
        for name in sorted(self.nodes):
            node = self.nodes[name]
            out[name] = {
                "send_busy": node.nic_send.count,
                "send_queued": len(node.nic_send.queue),
                "recv_busy": node.nic_recv.count,
                "recv_queued": len(node.nic_recv.queue),
            }
        return out

    # -- fault injection ----------------------------------------------------
    def degrade(self, factor: float, until: float) -> None:
        """All transfers started before ``until`` take ``factor×`` longer."""
        self._fault_factor = factor
        self._fault_until = until

    def partition(self, node_names, until: float) -> None:
        """Links touching ``node_names`` are down until ``until``.

        Transfers to or from a partitioned node stall until the
        partition heals, then proceed normally — the TCP-reconnect view
        of a transient link failure.
        """
        for name in node_names:
            self._partitioned[name] = max(
                self._partitioned.get(name, 0.0), until)

    def _heal_time(self, src: Node, dst: Node) -> float:
        if not self._partitioned:
            return 0.0
        return max(self._partitioned.get(src.name, 0.0),
                   self._partitioned.get(dst.name, 0.0))

    # -- transfers ---------------------------------------------------------
    def transfer(self, src: Node, dst: Node, nbytes: int):
        """Simulation process performing one transfer; returns the record."""
        start = self.env.now
        same_node = src.name == dst.name
        if not same_node:
            send_req = src.nic_send.request()
            recv_req = dst.nic_recv.request()
            yield send_req & recv_req
        try:
            base = (
                self.spec.message_overhead
                + self.latency(src, dst)
                + nbytes / self.bandwidth(src, dst)
            )
            jitter = self.streams.lognormal_factor(
                f"net.jitter.{src.name}.{dst.name}", self.spec.jitter_sigma
            )
            duration = base * jitter
            if (
                self.streams.uniform(f"net.congestion.{src.name}", 0.0, 1.0)
                < self.spec.congestion_probability
            ):
                duration *= self.spec.congestion_factor
            if not same_node:
                heal = self._heal_time(src, dst)
                if heal > self.env.now:
                    # Link partitioned: stall until it heals.
                    yield self.env.timeout(heal - self.env.now)
            if self.env.now < self._fault_until:
                duration *= self._fault_factor
            yield self.env.timeout(duration)
        finally:
            if not same_node:
                src.nic_send.release(send_req)
                dst.nic_recv.release(recv_req)
        record = TransferRecord(
            src=src.name,
            dst=dst.name,
            nbytes=nbytes,
            start=start,
            stop=self.env.now,
            same_node=same_node,
            same_switch=src.switch == dst.switch,
        )
        return record
