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
* A run that is over ends what still waits without running it
  (:meth:`Process.end`, :meth:`Environment.close`), so the periodic
  processes parked on the clock do not keep the run's objects in
  reference cycles.
* A periodic process that sleeps while it has nothing to do wakes on a
  :class:`Timeout` scheduled at an absolute time
  (:meth:`Environment.timeout_at`, :meth:`Timeout.schedule_at`): it
  replays its grid in plain float arithmetic instead of ticking it,
  and may tie-break with a sequence number it reserved when it went
  idle (:meth:`Environment.reserve_seq`).

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
All event classes declare ``__slots__`` and fill the five
:class:`Event` slots in their own constructors, without chaining to
``Event.__init__``.  The clock, ``Environment.now``, is a plain slot
that only the kernel writes.  The monitor-free ``run()`` loop is
inlined with the lanes hoisted into locals.
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
        env._fast0.append((env.now, 0, seq, self))
        if env.monitor is not None:
            env.monitor.on_schedule(self, env.now, 0, seq, env.now)
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
        env._fast0.append((env.now, 0, seq, self))
        if env.monitor is not None:
            env.monitor.on_schedule(self, env.now, 0, seq, env.now)
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
            when = env.now + delay
            heappush(env._timed, (when, 0, seq, self))
        elif delay == 0.0:
            env._fast0.append((env.now, 0, seq, self))
            when = env.now
        else:
            raise ValueError(f"negative delay {delay}")
        if env.monitor is not None:
            env.monitor.on_schedule(self, when, 0, seq, env.now)

    @classmethod
    def deferred(cls, env: "Environment", value: Any = None) -> "Timeout":
        """A timeout that exists but is not scheduled yet.

        Processes may wait on it (alone or in a condition) before
        :meth:`schedule_at` decides when it fires.  Its ``delay`` is
        ``None`` until then.
        """
        self = cls.__new__(cls)
        self.env = env
        self.callbacks = []
        self._defused = False
        self.delay = None
        self._ok = True
        self._value = value
        return self

    def schedule_at(self, when: float,
                    seq: Optional[int] = None) -> "Timeout":
        """Schedule a :meth:`deferred` timeout at absolute time ``when``.

        ``when`` is used as given: ``now + (when - now)`` is not always
        ``when`` in floating point, so a process replaying a periodic
        grid must not go through a relative delay.  ``seq`` is a
        sequence number taken earlier with
        :meth:`Environment.reserve_seq`; the timeout then ties with
        same-time events as if it had been scheduled at that moment.
        The entry always goes to the timed heap, even when ``when`` is
        now, because an old ``seq`` would unsort the FIFO lanes.
        """
        env = self.env
        now = env.now
        if self.delay is not None:
            raise SimulationError(f"{self!r} is already scheduled")
        if when < now:
            raise ValueError(f"timeout at {when} is in the past "
                             f"(now={now})")
        if seq is None:
            env._seq = seq = env._seq + 1
        self.delay = when - now
        heappush(env._timed, (when, 0, seq, self))
        if env.monitor is not None:
            env.monitor.on_schedule(self, when, 0, seq, now)
        return self

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
        # Inlined ``Event.__init__``, already succeeded.
        self.env = env
        self.callbacks = [process._resume_cb]
        self._value = None
        self._ok = True
        self._defused = False
        # Inlined ``env._schedule(self, delay=0.0, priority=-1)``.
        env._seq = seq = env._seq + 1
        env._fastneg.append((env.now, -1, seq, self))
        if env.monitor is not None:
            env.monitor.on_schedule(self, env.now, -1, seq, env.now)


class Process(Event):
    """A running generator; also an event that fires when it finishes.

    A finished process drops its cached resume callback, the one
    reference cycle it holds (process -> bound method -> process), and
    the event it waited on last.  So once a process has returned,
    reference counting frees it, its generator and its value as soon
    as nothing else refers to it, without waiting for the cyclic GC,
    and it keeps no condition it last waited on alive.  (One that
    raised stays in its exception's traceback cycle.)  A process that
    :meth:`end` ended drops the same references.
    """

    __slots__ = ("_generator", "name", "_target", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator,
                 name: str = "", _defer_start: bool = False):
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        # Inlined ``Event.__init__``.
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The bound ``_resume`` method, created once — it is appended
        #: to a callback list on every wait, and binding it per yield
        #: would allocate a fresh method object each time.  ``None``
        #: once the process has finished or was ended.
        self._resume_cb = self._resume
        #: The event the process waits on: its :class:`Initialize`
        #: until it starts (set by :meth:`Environment.process_batch`
        #: for a deferred start), ``None`` once it has finished.
        self._target: Optional[Event] = (
            None if _defer_start else Initialize(env, self))

    @property
    def is_alive(self) -> bool:
        """False once the process has finished or was ended."""
        return self._resume_cb is not None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The interrupt is delivered by a priority ``-1`` event, after
        any same-instant start of the process.  A process that has
        finished by then (say, on an earlier interrupt of the same
        instant), or was ended, ignores it.
        """
        if self._resume_cb is None:
            raise SimulationError("cannot interrupt a finished process")
        if self is self.env._active_process:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._deliver_interrupt)
        self.env._schedule(event, delay=0.0, priority=-1)

    def end(self) -> None:
        """End the process where it waits, without resuming it.

        The process leaves the event it waits on, drops its resume
        callback and has its generator closed, so its ``finally``
        blocks run.  Nothing is scheduled and no time passes: the
        process never fires, and whoever waits on it waits on.  A
        process that has finished, or was ended, is left as it is.
        """
        resume = self._resume_cb
        if resume is None:
            return
        if self is self.env._active_process:
            raise SimulationError("a process cannot end itself")
        target = self._target
        if target is not None and target.callbacks is not None:
            target.callbacks.remove(resume)
        self._resume_cb = self._target = None
        self._generator.close()

    def _deliver_interrupt(self, event: Event) -> None:
        if self._resume_cb is None:
            return
        # Detach from the event the process waits on now, so that it
        # is not resumed a second time when that event fires.
        target = self._target
        if target is not None and target.callbacks is not None:
            target.callbacks.remove(self._resume_cb)
        self._resume(event)

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
                self._resume_cb = self._target = None
                env._seq = seq = env._seq + 1
                env._fast0.append((env.now, 0, seq, self))
                if env.monitor is not None:
                    env.monitor.on_schedule(self, env.now, 0, seq,
                                            env.now)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self._resume_cb = self._target = None
                env._seq = seq = env._seq + 1
                env._fast0.append((env.now, 0, seq, self))
                if env.monitor is not None:
                    env.monitor.on_schedule(self, env.now, 0, seq,
                                            env.now)
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
    """Base for :class:`AllOf` / :class:`AnyOf` composite events.

    A subclass says, in :meth:`_evaluate`, whether the number of
    component events fired so far triggers the condition.

    A condition that triggers while some of its components are still
    pending detaches its ``_check`` from them once it is processed, as
    SimPy does.  Otherwise a pending component keeps the condition
    alive, and a withdrawn ``Store.get`` and the ``AnyOf`` that waited
    on it would refer to each other until a full collection.  The
    detach waits for the condition's own pop, not its trigger, so a
    component that fires at the same instant still shows the shared
    waiter to the event-ordering sanitizer.
    """

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
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
                if self._value is not PENDING:
                    break  # triggered: later events need no check
            else:
                event.callbacks.append(check)

    def _evaluate(self, count: int) -> bool:
        raise NotImplementedError

    def _collect(self) -> dict:
        """The values of the components processed so far, as SimPy
        reports them.  A component that triggered but still waits in
        the queue does not count: a :class:`Timeout` holds its value
        from construction on."""
        return {
            event: event._value
            for event in self.events
            if event.callbacks is None and event._ok
        }

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count = count = self._count + 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(count):
            self.succeed(self._collect())
        else:
            return
        if count < len(self.events):
            self.callbacks.append(self._detach)

    def _detach(self, _event: Event) -> None:
        """Remove ``_check`` from the components still pending."""
        check = self._check
        for event in self.events:
            callbacks = event.callbacks
            if callbacks is not None and check in callbacks:
                callbacks.remove(check)


class AllOf(Condition):
    """Fires once every component event has fired."""

    __slots__ = ()

    def _evaluate(self, count: int) -> bool:
        return count >= len(self.events)


class AnyOf(Condition):
    """Fires once any component event has fired."""

    __slots__ = ()

    def _evaluate(self, count: int) -> bool:
        return count >= 1


def _end_waiters(event: Event) -> None:
    """End every process that waits on ``event``, directly or through
    a condition over it; each such condition is detached from its
    components."""
    for callback in list(event.callbacks or ()):
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, Process):
            owner.end()
        elif getattr(callback, "__func__", None) is Condition._check:
            owner._detach(event)
            _end_waiters(owner)


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

    __slots__ = ("now", "_timed", "_fast0", "_fastneg", "_seq",
                 "_active_process", "monitor")

    def __init__(self, initial_time: float = 0.0):
        #: Current simulated time (seconds).  A plain slot that only the
        #: kernel writes, so reading the clock costs no call.
        self.now = float(initial_time)
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

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """A :class:`Timeout` that fires at absolute time ``when``."""
        return Timeout.deferred(self, value).schedule_at(when)

    def reserve_seq(self) -> int:
        """Take the next sequence number now, for an event scheduled
        later with :meth:`Timeout.schedule_at`."""
        self._seq = seq = self._seq + 1
        return seq

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
            proc._target = starter
            procs.append(proc)
        return procs

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 0) -> None:
        self._seq = seq = self._seq + 1
        now = self.now
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

    def close(self) -> None:
        """End every process that waits on a scheduled event, and drop
        the schedule.

        Nothing runs and no time passes: each process that waits on a
        queued event, directly or through a condition, is ended where
        it waits (:meth:`Process.end`).  Events that their ``finally``
        blocks schedule are dropped in the same way, until the queue
        is empty.  A finished run calls this to let go of the periodic
        processes (heartbeats, samplers, balancers) that would
        otherwise wait on the clock forever, in reference cycles with
        the environment.  Processes that wait on an unscheduled event,
        such as a process that has not finished, are left to their
        owners.
        """
        lanes = (self._fastneg, self._fast0, self._timed)
        while any(lanes):
            # The lanes in pop order: (when, priority, seq) is unique.
            entries = sorted([*self._fastneg, *self._fast0, *self._timed])
            for lane in lanes:
                lane.clear()
            for entry in entries:
                _end_waiters(entry[3])

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
        self.now = when
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
            self.now = best[0]
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
        if horizon < self.now:
            raise ValueError(f"until={horizon} is in the past (now={self.now})")
        while self.peek() <= horizon:
            self.step()
        self.now = horizon
        return None
