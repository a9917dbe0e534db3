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

The flusher's linger timer runs on a grid: it is re-armed ``linger``
after each wake-up, starting from the end of the last flush.  While the
buffer is empty the flusher does not tick that grid; it sleeps until
the first push, which schedules the timer at the next deadline of the
replayed grid (``t += linger`` in plain float arithmetic).  A buffered
event therefore flushes at exactly the instant a flusher waking every
``linger`` would have flushed it (see :class:`_IdleLinger` for the tie
order).
"""

from __future__ import annotations

from typing import Optional

from ..sim import Environment, Event, Store, Timeout
from .server import MofkaService

__all__ = ["Producer"]


class _IdleLinger:
    """The idle flusher's linger timer: parked by the flusher, armed by
    the first push.

    A flusher that woke every ``linger`` would have armed its first idle
    timer at the moment the buffer went empty, and every later one from
    the previous deadline.  :meth:`park` records that moment and
    reserves the sequence number that first timer took, so idle
    flushers whose grids run in lockstep still fire in the order they
    went idle, not in the order their first events arrive.  This object
    is the only owner of that state.

    One tie resolves differently: when the first push lands exactly on
    a deadline, from an event that the polling timer at that deadline
    would have preceded, the flusher's wake-up is now queued behind
    what that event scheduled for the same instant instead of ahead of
    it.  The flush keeps its instant and its size.
    """

    __slots__ = ("env", "_since", "_seq", "_timer")

    def __init__(self, env: Environment):
        self.env = env
        self._since = 0.0
        self._seq = 0
        self._timer: Optional[Timeout] = None

    def park(self) -> Timeout:
        """The flusher's linger timer for an empty buffer, unscheduled."""
        self._since = self.env.now
        self._seq = self.env.reserve_seq()
        self._timer = timer = Timeout.deferred(self.env)
        return timer

    def arm(self, linger: float) -> None:
        """Schedule the parked timer at the first deadline of the linger
        grid that is not before now; a no-op unless one is parked."""
        timer = self._timer
        if timer is None:
            return
        self._timer = None
        now = self.env.now
        when = self._since + linger
        while when < now:
            when += linger
        timer.schedule_at(when, self._seq)


class _Flush(Event):
    """One flush: the produce RPC of one batch, as an event that fires
    once the RPC has returned and been counted.

    The RPC stays a process (``MofkaService.produce_batch``); the
    accounting after it runs as that process's callback, so a flush
    adds no process of its own.  It fires at the position in the event
    queue where a flush process wrapping the RPC would have returned
    (see ``docs/simulation.md``); a failed RPC fails it with the RPC's
    exception.
    """

    __slots__ = ("producer", "size", "start")

    def __init__(self, producer: "Producer", batch: list):
        super().__init__(producer.env)
        self.producer = producer
        self.size = len(batch)
        self.start = producer.env.now
        rpc = producer.env.process(producer.service.produce_batch(
            producer.topic, batch, counter=producer._counter))
        # The RPC's first and only callback, as the resumption of a
        # process waiting on it would have been.
        rpc.callbacks.append(self._returned)

    def _returned(self, rpc: Event) -> None:
        if not rpc._ok:
            rpc.defuse()
            self.fail(rpc._value)
            return
        producer = self.producer
        producer._counter += self.size
        producer.n_flushes += 1
        if producer.on_flush is not None:
            producer.on_flush(self.size, self.env.now - self.start)
        self.succeed()


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
        self._idle = _IdleLinger(env)
        self._closed = False
        self._flusher = env.process(self._flush_loop(),
                                    name=f"{name}-flusher")

        self.n_pushed = 0
        self.n_flushes = 0
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
        if len(self._buffer) == 1:
            self._idle.arm(self.linger)
        if len(self._buffer) >= self.batch_size:
            self._kick.put("full")

    # -- background flushing ----------------------------------------------
    def _flush_loop(self):
        while not self._closed or self._buffer:
            if len(self._buffer) < self.batch_size:
                # Wait for either a kick or the linger timer; with an
                # empty buffer the timer waits for the first push.
                get = self._kick.get()
                if self._buffer:
                    timer = self.env.timeout(self.linger)
                else:
                    timer = self._idle.park()
                yield get | timer
                if not get.triggered:
                    self._kick.cancel(get)
            if self._buffer:
                yield self._flush_once()
                self._drain_stale_kicks()

    def _drain_stale_kicks(self) -> None:
        """Discard ``"full"`` kicks that the flush just satisfied.

        ``push`` kicks on *every* call past the threshold, so a flush
        that drains the buffer leaves the earlier kicks queued; without
        this drain they would wake the flusher immediately and trigger
        empty or short flush cycles, inflating ``n_flushes`` and the
        RPC count.  The ``"close"`` kick is preserved so teardown still
        wakes the flusher.
        """
        items = self._kick.items
        while items and items[0] == "full" \
                and len(self._buffer) < self.batch_size:
            items.popleft()

    def _flush_once(self) -> _Flush:
        """Start the RPC of the oldest ``batch_size`` buffered events;
        returns the :class:`_Flush` that fires once it is counted."""
        # One RPC carries at most ``batch_size`` events; a backlog takes
        # several round trips (that is the knob the A3 ablation sweeps).
        batch = self._buffer[:self.batch_size]
        # Safe against concurrent push(): the slice and the reassign
        # happen in one call, so appends landing during the transfer
        # go to the already-drained list.
        self._buffer = self._buffer[self.batch_size:]  # repro: allow[conc-cross-context-mutation]
        return _Flush(self, batch)

    # -- teardown -------------------------------------------------------------
    def flush(self):
        """Simulation process: drain everything buffered right now."""
        while self._buffer:
            yield self._flush_once()

    def close(self):
        """Simulation process: final drain, then stop the flusher."""
        yield self.env.process(self.flush())
        self._closed = True
        self._kick.put("close")  # wake the flusher so it can exit
