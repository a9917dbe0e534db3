"""Batching, non-blocking Mofka producer.

The paper stresses that instrumentation "must ... collect, aggregate,
and store this telemetry using lightweight mechanisms" (§III-B), and
that Mofka "optimizes transfers using a nonblocking API, background
network and processing threads, batching strategies".  This producer
reproduces that shape: :meth:`Producer.push` is a plain synchronous
call that never blocks the instrumented code path; a background
simulation process flushes accumulated batches to the broker when
either ``batch_size`` events have accumulated or ``linger`` seconds
have passed.
"""

from __future__ import annotations

from typing import Optional

from ..sim import Environment, Store
from .server import MofkaService

__all__ = ["Producer"]


class Producer:
    """Client-side batching front end for one topic."""

    def __init__(self, env: Environment, service: MofkaService,
                 topic: str, batch_size: int = 64, linger: float = 0.05,
                 name: str = "producer"):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.env = env
        self.service = service
        self.topic = topic
        self.batch_size = batch_size
        self.linger = linger
        self.name = name

        self._buffer: list[tuple[dict, bytes]] = []
        self._counter = 0
        self._kick = Store(env)
        self._closed = False
        self._flusher = env.process(self._flush_loop(),
                                    name=f"{name}-flusher")

        # Client-side statistics for the overhead ablation.
        self.n_pushed = 0
        self.n_flushes = 0
        self.flush_sizes: list[int] = []
        self.flush_durations: list[float] = []
        #: Optional observer called as ``on_flush(size, duration)``
        #: after every completed flush RPC (telemetry hook).
        self.on_flush = None

    @property
    def buffer_depth(self) -> int:
        """Events accumulated and not yet flushed (telemetry probe)."""
        return len(self._buffer)

    # -- hot path -----------------------------------------------------------
    def push(self, metadata: dict, data: bytes = b"") -> None:
        """Enqueue one event; returns immediately (non-blocking).

        The broker keeps ``metadata`` itself, not a copy: the same dict
        is what partitions store, consumers read and live ingest hands
        to the analysis.  Push a fresh dict per event and do not mutate
        it afterwards.
        """
        if self._closed:
            raise RuntimeError("producer closed")
        self._buffer.append((metadata, data))
        self.n_pushed += 1
        if len(self._buffer) >= self.batch_size:
            self._kick.put("full")

    # -- background flushing ----------------------------------------------
    def _flush_loop(self):
        while not self._closed or self._buffer:
            if len(self._buffer) < self.batch_size:
                # Wait for either a kick or the linger timer.
                get = self._kick.get()
                timer = self.env.timeout(self.linger)
                yield get | timer
                if not get.triggered:
                    self._kick.cancel(get)
            if self._buffer:
                yield self.env.process(self._flush_once())
                self._drain_stale_kicks()

    def _drain_stale_kicks(self) -> None:
        """Discard ``"full"`` kicks that the flush just satisfied.

        ``push`` kicks on *every* call past the threshold, so a flush
        that drains the buffer leaves the earlier kicks queued; without
        this drain they would wake the flusher immediately and trigger
        empty or short flush cycles, distorting ``n_flushes`` /
        ``flush_sizes`` (the statistics the A3 Mofka-overhead ablation
        reports).  The ``"close"`` kick is preserved so teardown still
        wakes the flusher.
        """
        items = self._kick.items
        while items and items[0] == "full" \
                and len(self._buffer) < self.batch_size:
            items.popleft()

    def _flush_once(self):
        # One RPC carries at most ``batch_size`` events; a backlog takes
        # several round trips (that is the knob the A3 ablation sweeps).
        batch = self._buffer[:self.batch_size]
        # Safe against concurrent push(): the slice-and-reassign pair
        # completes before the RPC yield below, so appends landing
        # during the transfer go to the already-drained list.
        self._buffer = self._buffer[self.batch_size:]  # repro: allow[conc-cross-context-mutation]
        start = self.env.now
        yield self.env.process(self.service.produce_batch(
            self.topic, batch, counter=self._counter,
        ))
        self._counter += len(batch)
        self.n_flushes += 1
        self.flush_sizes.append(len(batch))
        self.flush_durations.append(self.env.now - start)
        if self.on_flush is not None:
            self.on_flush(len(batch), self.env.now - start)

    # -- teardown -------------------------------------------------------------
    def flush(self):
        """Simulation process: drain everything buffered right now."""
        while self._buffer:
            yield self.env.process(self._flush_once())

    def close(self):
        """Simulation process: final drain, then stop the flusher."""
        yield self.env.process(self.flush())
        self._closed = True
        self._kick.put("close")  # wake the flusher so it can exit
