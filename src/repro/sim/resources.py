"""Shared-resource primitives for the simulation kernel.

Three primitives cover every contention point in the reproduction:

* :class:`Resource` — a counted semaphore with a FIFO wait queue.  Used
  for worker thread pools, NIC send/receive channels, and PFS object
  storage target (OST) service slots.
* :class:`Store` — a FIFO buffer of Python objects with blocking ``get``
  and optionally bounded ``put``.  Used for message queues between the
  scheduler and workers and for Mofka partition buffers.
* :class:`Container` — a continuous-level tank.  Used for worker memory
  accounting.

All wait queues are strictly FIFO so that simulations are deterministic
for a fixed seed.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .engine import PENDING, Environment, Event, SimulationError

__all__ = ["Resource", "Request", "Store", "Container"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot.

    A grant carries no value, as in SimPy: a request whose value was
    the request itself would be a one-object reference cycle.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        # Inlined ``Event.__init__``, as in every event class below.
        self.env = resource.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc) -> None:
        self.resource.release(self)


class Resource:
    """Counted semaphore with FIFO granting.

    ``capacity`` slots may be held simultaneously; further requests queue.
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Request:
        req = Request(self)
        if len(self.users) < self.capacity:
            self.users.append(req)
            req.succeed()
        else:
            self.queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a slot; hands it to the oldest queued request."""
        try:
            self.users.remove(request)
        except ValueError:
            # Releasing a request that was never granted cancels it.
            try:
                self.queue.remove(request)
                return
            except ValueError:
                raise SimulationError("release of unknown request") from None
        while self.queue:
            nxt = self.queue.popleft()
            if nxt.triggered:
                continue  # cancelled while queued
            self.users.append(nxt)
            nxt.succeed()
            break

    def cancel(self, request: Request) -> None:
        """Withdraw a queued (ungranted) request."""
        try:
            self.queue.remove(request)
        except ValueError:
            pass


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        self.env = store.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.item = item


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store"):
        self.env = store.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False


class Store:
    """FIFO object buffer with blocking get and bounded put."""

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()
        self._putters: Deque[StorePut] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        event = StorePut(self, item)
        if len(self.items) < self.capacity:
            self.items.append(item)
            event.succeed()
            self._dispatch()
        else:
            self._putters.append(event)
        return event

    def get(self) -> StoreGet:
        event = StoreGet(self)
        if self.items:
            event.succeed(self.items.popleft())
            self._admit()
        else:
            self._getters.append(event)
        return event

    def cancel(self, event: "StoreGet | StorePut") -> None:
        """Withdraw a pending (untriggered) get or put."""
        if isinstance(event, StoreGet):
            try:
                self._getters.remove(event)
            except ValueError:
                pass
        else:
            try:
                self._putters.remove(event)
            except ValueError:
                pass

    def _dispatch(self) -> None:
        while self.items and self._getters:
            getter = self._getters.popleft()
            if getter.triggered:
                continue
            getter.succeed(self.items.popleft())
        self._admit()

    def _admit(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            putter = self._putters.popleft()
            if putter.triggered:
                continue
            self.items.append(putter.item)
            putter.succeed()
            self._dispatch()


class ContainerEvent(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float):
        self.env = container.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.amount = amount


class Container:
    """Continuous-level tank with blocking get when short of level."""

    def __init__(self, env: Environment, capacity: float = float("inf"),
                 init: float = 0.0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init must be within [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._getters: Deque[ContainerEvent] = deque()
        self._putters: Deque[ContainerEvent] = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> ContainerEvent:
        if amount <= 0:
            raise ValueError("amount must be positive")
        event = ContainerEvent(self, amount)
        if self._level + amount <= self.capacity:
            self._level += amount
            event.succeed()
            self._serve_getters()
        else:
            self._putters.append(event)
        return event

    def get(self, amount: float) -> ContainerEvent:
        if amount <= 0:
            raise ValueError("amount must be positive")
        event = ContainerEvent(self, amount)
        if amount <= self._level:
            self._level -= amount
            event.succeed()
            self._serve_putters()
        else:
            self._getters.append(event)
        return event

    def _serve_getters(self) -> None:
        while self._getters and self._getters[0].amount <= self._level:
            event = self._getters.popleft()
            if event.triggered:
                continue
            self._level -= event.amount
            event.succeed()

    def _serve_putters(self) -> None:
        while self._putters and self._level + self._putters[0].amount <= self.capacity:
            event = self._putters.popleft()
            if event.triggered:
                continue
            self._level += event.amount
            event.succeed()
            self._serve_getters()
