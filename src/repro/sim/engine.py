"""Discrete-event simulation kernel.

This module implements a small, self-contained discrete-event simulation
engine in the style of SimPy: *processes* are Python generators that
``yield`` :class:`Event` objects, and an :class:`Environment` advances a
virtual clock by popping scheduled events off the event queue.

Every substrate in this repository (the Dask-like workflow management
system, the network and parallel-file-system models, the Mofka event
streaming service) runs on top of this kernel, which gives the whole
reproduction a single, deterministic notion of time.  Timestamps recorded
by the instrumentation layers are engine timestamps, exactly as the paper
correlates wall-clock timestamps across Darshan and Dask logs.

Design notes
------------
* Events are scheduled with a ``(time, priority, sequence)`` key; the
  monotonically increasing sequence number guarantees FIFO ordering of
  simultaneous events, which keeps runs bit-reproducible for a fixed
  seed.
* A process that raises is marked *failed*; the exception propagates to
  any process waiting on it, mirroring how task failures surface through
  Dask futures.
* ``Interrupt`` support allows the work-stealing and fault-detection
  models to cancel in-flight waits.

Hot-path layout
---------------
The kernel is the innermost loop of every benchmark and repetition in
this repository, so the queue is split into three lanes that together
realise the exact ``(time, priority, sequence)`` total order (see
``docs/performance.md``):

* one FIFO deque for zero-delay, priority-0 schedules (``succeed()`` /
  ``fail()`` / process completion — the bulk of all traffic);
* one FIFO deque for zero-delay, priority ``-1`` schedules
  (:class:`Initialize`, interrupts);
* one binary heap for everything else: positive delays, and zero-delay
  events at any other priority.

Because the clock never moves backwards and the sequence number only
grows, each deque is already sorted by the global key, so only timed
traffic pays ``heappush``/``heappop``.  The next event is the least of
the three lane heads, compared as ``(when, priority, seq, event)``
tuples; ``seq`` is unique, so the comparison never reaches the event.
All event classes declare ``__slots__``, and the monitor-free ``run()``
loop is inlined with the lanes hoisted into locals.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "MonitorChain",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for structural errors in the simulation (e.g. deadlock)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event state markers.
PENDING = object()

_INF = float("inf")


class Event:
    """An occurrence at a point in simulated time.

    An event starts *untriggered*; once :meth:`succeed` or :meth:`fail`
    is called it is placed on the environment's queue and, when popped,
    its callbacks run.  Processes waiting on the event are resumed with
    the event's value (or have the failure exception thrown in).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: Set when a failure has been passed to a waiter (or defused).
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has been given a value (success or failure)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # Inlined ``env._schedule(self, delay=0.0)``: the zero-delay,
        # priority-0 fast lane, minus a method call.
        env = self.env
        env._seq = seq = env._seq + 1
        env._fast0.append((env._now, 0, seq, self))
        if env.monitor is not None:
            env.monitor.on_schedule(self, env._now, 0, seq, env._now)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        env = self.env
        env._seq = seq = env._seq + 1
        env._fast0.append((env._now, 0, seq, self))
        if env.monitor is not None:
            env.monitor.on_schedule(self, env._now, 0, seq, env._now)
        return self

    def defuse(self) -> None:
        """Mark a failure as handled so it does not crash the run."""
        self._defused = True

    # -- composition ----------------------------------------------------
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        # Inlined ``Event.__init__`` (timeouts are the timed hot path).
        self.env = env
        self.callbacks = []
        self._defused = False
        self.delay = delay
        self._ok = True
        self._value = value
        env._seq = seq = env._seq + 1
        if delay > 0.0:
            when = env._now + delay
            heappush(env._timed, (when, 0, seq, self))
        elif delay == 0.0:
            env._fast0.append((env._now, 0, seq, self))
            when = env._now
        else:
            raise ValueError(f"negative delay {delay}")
        if env.monitor is not None:
            env.monitor.on_schedule(self, when, 0, seq, env._now)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Timeout({self.delay}) at {id(self):#x}>"


class Initialize(Event):
    """Internal event used to start a freshly created process.

    One ``Initialize`` can start *many* processes: each additional
    process appends its resume callback (see
    :meth:`Environment.process_batch`), so a batch of co-dispatched
    processes costs a single engine event instead of one per process.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume_cb)
        # Inlined ``env._schedule(self, delay=0.0, priority=-1)``.
        env._seq = seq = env._seq + 1
        env._fastneg.append((env._now, -1, seq, self))
        if env.monitor is not None:
            env.monitor.on_schedule(self, env._now, -1, seq, env._now)


class Process(Event):
    """A running generator; also an event that fires when it finishes."""

    __slots__ = ("_generator", "name", "_target", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator,
                 name: str = "", _defer_start: bool = False):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        #: The bound ``_resume`` method, created once — it is appended
        #: to a callback list on every wait, and binding it per yield
        #: would allocate a fresh method object each time.
        self._resume_cb = self._resume
        if not _defer_start:
            Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        if self._target is self.env._active_until:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._resume_cb)
        self.env._schedule(event, delay=0.0, priority=-1)
        # Detach from the old target: when the old event fires we must not
        # resume a second time.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._target = None

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        generator = self._generator
        while True:
            try:
                if event._ok:
                    result = generator.send(event._value)
                else:
                    event._defused = True
                    result = generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                env._seq = seq = env._seq + 1
                env._fast0.append((env._now, 0, seq, self))
                if env.monitor is not None:
                    env.monitor.on_schedule(self, env._now, 0, seq,
                                            env._now)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env._seq = seq = env._seq + 1
                env._fast0.append((env._now, 0, seq, self))
                if env.monitor is not None:
                    env.monitor.on_schedule(self, env._now, 0, seq,
                                            env._now)
                break

            # ``result.callbacks`` doubles as the is-it-an-event check:
            # anything without the attribute was not a yieldable event.
            try:
                callbacks = result.callbacks
            except AttributeError:
                raise SimulationError(
                    f"process {self.name!r} yielded a non-event: {result!r}"
                ) from None
            if callbacks is not None:
                # Not yet processed: wait for it.
                callbacks.append(self._resume_cb)
                self._target = result
                break
            # Already processed: continue immediately with its value.
            event = result
        env._active_process = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name!r}>"


class Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf` composite events."""

    __slots__ = ("events", "_evaluate", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event],
                 evaluate: Callable[[list[Event], int], bool]):
        super().__init__(env)
        self.events = list(events)
        self._evaluate = evaluate
        self._count = 0
        for event in self.events:
            if event.env is not env:
                raise SimulationError("events from different environments")
        if not self.events:
            self.succeed(self._collect())
            return
        check = self._check
        for event in self.events:
            if event.callbacks is None:
                check(event)
            else:
                event.callbacks.append(check)

    def _collect(self) -> dict:
        return {
            event: event._value
            for event in self.events
            if event.triggered and event._ok
        }

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self.events, self._count):
            self.succeed(self._collect())


class AllOf(Condition):
    """Fires once every component event has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events, lambda events, count: count >= len(events))


class AnyOf(Condition):
    """Fires once any component event has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events, lambda events, count: count >= 1)


class MonitorChain:
    """Composite engine observer: fans each hook out to its members.

    The :class:`Environment` holds a single ``monitor`` slot so the hot
    path stays one ``is None`` check.  When a second observer wants in
    (e.g. the event-ordering sanitizer *and* a telemetry sampler),
    :meth:`Environment.add_monitor` wraps both in a chain; members are
    called in attachment order.
    """

    def __init__(self, *monitors):
        self.monitors = list(monitors)

    def on_schedule(self, event, when, priority, seq, now) -> None:
        for monitor in self.monitors:
            monitor.on_schedule(event, when, priority, seq, now)

    def on_step(self, event, when, priority, seq) -> None:
        for monitor in self.monitors:
            monitor.on_step(event, when, priority, seq)

    def before_callback(self, event, callback) -> None:
        for monitor in self.monitors:
            monitor.before_callback(event, callback)


class Environment:
    """Execution environment: virtual clock plus the event queue.

    The clock starts at ``initial_time`` (which may be negative) and
    only moves forward.  The queue is the three lanes described in the
    module docstring: two zero-delay FIFO deques and one binary heap
    for timed events.
    """

    __slots__ = ("_now", "_timed", "_fast0", "_fastneg", "_seq",
                 "_active_process", "monitor")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: Zero-delay fast lanes; see the module docstring.  Each holds
        #: ``(when, priority, seq)``-sorted entries by construction
        #: (the clock never rewinds, ``seq`` only grows), so a FIFO
        #: deque replaces any priority structure for the dominant
        #: traffic.
        self._fast0: deque[tuple[float, int, int, Event]] = deque()
        self._fastneg: deque[tuple[float, int, int, Event]] = deque()
        #: Timed lane: a binary heap of every other entry (positive
        #: delays, exotic priorities).  Never rebound, so the inline run
        #: loop can hoist it into a local.
        self._timed: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: Optional observer (e.g. the event-ordering sanitizer in
        #: :mod:`repro.analysis.sanitizer`).  When set, it receives
        #: ``on_schedule``/``on_step``/``before_callback`` calls; the
        #: hot path pays a single ``is None`` check otherwise.
        self.monitor: Optional[Any] = None

    # Target event of the currently executing process (used to detect
    # self-interrupts).
    @property
    def _active_until(self) -> Optional[Event]:
        proc = self._active_process
        return proc._target if proc is not None else None

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- monitors --------------------------------------------------------
    def add_monitor(self, monitor: Any) -> Any:
        """Attach an engine observer, composing with any existing one.

        The first observer occupies the ``monitor`` slot directly; a
        second promotes the slot to a :class:`MonitorChain`.  Returns
        ``monitor`` for chaining.
        """
        if self.monitor is None:
            self.monitor = monitor
        elif isinstance(self.monitor, MonitorChain):
            self.monitor.monitors.append(monitor)
        else:
            self.monitor = MonitorChain(self.monitor, monitor)
        return monitor

    def remove_monitor(self, monitor: Any) -> None:
        """Detach one observer added via :meth:`add_monitor`.

        Collapses a single-member chain back to the bare observer;
        removing an observer that is not attached raises ``ValueError``.
        """
        if self.monitor is monitor:
            self.monitor = None
            return
        if isinstance(self.monitor, MonitorChain):
            self.monitor.monitors.remove(monitor)
            if len(self.monitor.monitors) == 1:
                self.monitor = self.monitor.monitors[0]
            return
        raise ValueError(f"monitor {monitor!r} is not attached")

    # -- factories -------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def process_batch(self, generators: Iterable,
                      name: str = "") -> list[Process]:
        """Spawn many processes started by **one** engine event.

        ``generators`` yields either bare generators or ``(generator,
        name)`` pairs.  The first process's :class:`Initialize` event
        carries the resume callbacks of the whole batch, so the batch
        costs one ``(now, -1, seq)`` queue entry instead of one per
        process; the processes still start in iteration order, exactly
        as consecutive per-process ``Initialize`` events would have
        fired (nothing can schedule between two adjacent same-key
        events).  This is the engine half of the batched worker
        dispatch: one event per worker drain, not one per task.
        """
        procs: list[Process] = []
        starter: Optional[Initialize] = None
        for item in generators:
            if type(item) is tuple:
                generator, proc_name = item
            else:
                generator, proc_name = item, name
            proc = Process(self, generator, name=proc_name,
                           _defer_start=True)
            if starter is None:
                starter = Initialize(self, proc)
            else:
                starter.callbacks.append(proc._resume_cb)
            procs.append(proc)
        return procs

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 0) -> None:
        self._seq = seq = self._seq + 1
        now = self._now
        if delay == 0.0:
            # Zero-delay fast lanes: appending keeps each deque sorted
            # by the global (when, priority, seq) key, so these events
            # never pay heappush/heappop.
            if priority == 0:
                self._fast0.append((now, 0, seq, event))
            elif priority == -1:
                self._fastneg.append((now, -1, seq, event))
            else:
                heappush(self._timed, (now, priority, seq, event))
            when = now
        else:
            when = now + delay
            heappush(self._timed, (when, priority, seq, event))
        if self.monitor is not None:
            self.monitor.on_schedule(event, when, priority, seq, now)

    def _pop_next(self) -> Optional[tuple[float, int, int, Event]]:
        """Remove and return the globally next entry, or ``None``.

        Merges the three lane heads by their ``(when, priority, seq)``
        prefix — ``seq`` is unique, so the comparison never reaches the
        event object.
        """
        fastneg = self._fastneg
        fast0 = self._fast0
        timed = self._timed
        if fastneg:
            cand = fastneg
            if fast0 and fast0[0] < fastneg[0]:
                cand = fast0
        elif fast0:
            cand = fast0
        elif timed:
            return heappop(timed)
        else:
            return None
        if timed and timed[0] < cand[0]:
            return heappop(timed)
        return cand.popleft()

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        best = self._timed[0][0] if self._timed else _INF
        fastneg = self._fastneg
        if fastneg and fastneg[0][0] < best:
            best = fastneg[0][0]
        fast0 = self._fast0
        if fast0 and fast0[0][0] < best:
            best = fast0[0][0]
        return best

    @property
    def has_events(self) -> bool:
        """Whether any event is still scheduled."""
        return bool(self._fast0 or self._fastneg or self._timed)

    def step(self) -> None:
        """Process the next scheduled event."""
        entry = self._pop_next()
        if entry is None:
            raise SimulationError("no scheduled events")
        when, prio, seq, event = entry
        self._now = when
        monitor = self.monitor
        if monitor is not None:
            monitor.on_step(event, when, prio, seq)
        callbacks, event.callbacks = event.callbacks, None
        if monitor is None:
            for callback in callbacks:
                callback(event)
        else:
            for callback in callbacks:
                monitor.before_callback(event, callback)
                callback(event)
        if event._ok is False and not event._defused:
            # An unhandled failure terminates the simulation loudly, like
            # an uncaught exception in a real run.
            raise event._value

    def _run_inline(self, stop: Optional[Event]) -> None:
        """Monitor-free hot loop: lane merge + callback dispatch inlined.

        Behaviourally identical to calling :meth:`step` until ``stop``
        is processed (or forever when ``stop`` is ``None``), but with
        the lanes hoisted into locals so the common case does no
        per-event attribute lookups.  Only entered when ``monitor is
        None``; a monitor attached mid-run takes effect from the next
        ``run()``/``step()`` call.
        """
        fast0 = self._fast0
        fastneg = self._fastneg
        timed = self._timed
        while True:
            if stop is not None and stop.callbacks is None:
                return
            if fastneg or fast0:
                if not fastneg:
                    cand = fast0
                elif fast0 and fast0[0] < fastneg[0]:
                    cand = fast0
                else:
                    cand = fastneg
                if timed and timed[0] < cand[0]:
                    best = heappop(timed)
                else:
                    best = cand.popleft()
            elif timed:
                best = heappop(timed)
            elif stop is None:
                return
            else:
                raise SimulationError(
                    f"deadlock: event {stop!r} will never fire")
            event = best[3]
            self._now = best[0]
            callbacks = event.callbacks
            event.callbacks = None
            for callback in callbacks:
                callback(event)
            if event._ok is False and not event._defused:
                # An unhandled failure terminates the simulation loudly,
                # like an uncaught exception in a real run.
                raise event._value

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (a time, an event, or exhaustion).

        * ``until is None`` — run until no events remain.
        * ``until`` is a number — run until the clock reaches it.
        * ``until`` is an :class:`Event` — run until it fires and return
          its value (raising if it failed).
        """
        if until is None:
            if self.monitor is None:
                self._run_inline(None)
            else:
                while self.has_events:
                    self.step()
            return None
        if isinstance(until, Event):
            stop = until
            if self.monitor is None:
                self._run_inline(stop)
            else:
                while not stop.processed:
                    if not self.has_events:
                        raise SimulationError(
                            f"deadlock: event {stop!r} will never fire"
                        )
                    self.step()
            if stop._ok:
                return stop._value
            stop._defused = True
            raise stop._value
        horizon = float(until)
        if horizon < self._now:
            raise ValueError(f"until={horizon} is in the past (now={self._now})")
        while self.peek() <= horizon:
            self.step()
        self._now = horizon
        return None
