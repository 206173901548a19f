"""Shared-resource primitives: free-time servers, FIFO resources, stores.

These are the building blocks for modeling hardware queues: a DMA engine
is a :class:`Server` (its work has a service time known when it is
posted), a lock held across arbitrary waits is a ``Resource(capacity=1)``,
a staging-buffer pool is a ``Store`` pre-filled with buffer objects, and
so on.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, List, Tuple

from .events import Event, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = ["Server", "Resource", "Request", "Store", "StoreGet"]


class Server:
    """A FIFO, non-preemptive server of ``capacity`` identical units.

    For work whose service time is known when it arrives -- a DMA copy, an
    HCA transmission, a CPU slice -- the queue needs no events at all:
    :meth:`claim` hands the work the unit that frees earliest and returns
    its ``(start, end)`` instants straight away. The caller schedules one
    completion at ``end`` (:meth:`Environment.timeout_at`).

    This is the :class:`Resource` queue in closed form. Driven by the same
    sequence of arrivals, a Resource grants each request at the instant
    this method returns as ``start``, and releases it at ``end`` (computed
    with the same float operations a ``timeout(stall)`` followed by a
    ``timeout(service)`` would perform). Every user of one engine must
    claim through its Server: a Resource queue beside it would not see
    the claimed work.
    """

    __slots__ = ("env", "capacity", "name", "_free")

    def __init__(self, env: "Environment", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        #: Instant each unit finishes its last claimed work.
        self._free: List[float] = [0.0] * capacity

    def claim(self, service: float, stall: float = 0.0) -> Tuple[float, float]:
        """Queue ``stall + service`` seconds of work; returns ``(start, end)``.

        ``start`` is when a unit picks the work up (``>= now``); ``stall``
        is dead time before the service proper (an injected fault), so
        ``end = (start + stall) + service``.
        """
        if service < 0 or stall < 0:
            raise ValueError(
                f"negative service or stall on {self.name!r}: {service!r}, {stall!r}"
            )
        free = self._free
        unit = 0 if len(free) == 1 else free.index(min(free))
        start = free[unit]
        now = self.env._now
        if start < now:
            start = now
        end = (start + stall) + service
        free[unit] = end
        return start, end


class Request(Event):
    """A pending claim on a :class:`Resource`.

    Supports ``with`` so the holder releases automatically::

        with engine.request() as req:
            yield req
            yield env.timeout(cost)
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env, label=resource._req_label)
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a request that has not been granted yet."""
        self.resource._cancel(self)


class Resource:
    """A resource with finite capacity and a FIFO wait queue."""

    def __init__(self, env: "Environment", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        # Precomputed once: requests are created on the hot path and an
        # f-string label per request shows up in profiles.
        self._req_label = f"request:{name}"
        self._users: list[Request] = []
        self._waiting: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of granted (active) requests."""
        return len(self._users)

    @property
    def queue_len(self) -> int:
        """Number of requests still waiting."""
        return len(self._waiting)

    def request(self) -> Request:
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed(self)
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Release a granted request; grants the next waiter, if any."""
        try:
            self._users.remove(request)
        except ValueError:
            # Releasing an ungranted request is a no-op if it was queued
            # (treat as cancel) and an error otherwise.
            if request in self._waiting:
                self._waiting.remove(request)
                return
            raise SimulationError(
                f"release of a request unknown to resource {self.name!r}"
            ) from None
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.append(nxt)
            nxt.succeed(self)

    def _cancel(self, request: Request) -> None:
        if request in self._waiting:
            self._waiting.remove(request)
        elif request in self._users:
            self.release(request)


class StoreGet(Event):
    __slots__ = ()


class Store:
    """An unbounded FIFO store of Python objects."""

    def __init__(self, env: "Environment", name: str = ""):
        self.env = env
        self.name = name
        self._get_label = f"get:{name}"
        self.items: list[Any] = []
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> None:
        """Deposit an item; the oldest waiting getter, if any, takes it.

        A put never waits, so it creates no event: only the served get is
        scheduled.
        """
        self.items.append(item)
        if self._getters:
            self._dispatch()

    def get(self) -> StoreGet:
        event = StoreGet(self.env, label=self._get_label)
        self._getters.append(event)
        self._dispatch()
        return event

    def cancel_get(self, get: StoreGet) -> bool:
        """Withdraw a pending get; returns False if it already triggered.

        Needed by timeout-based callers (the rendezvous recovery layer): a
        get that lost its race must be removed from the wait queue, or it
        would later steal an item nobody is waiting for.
        """
        if get.triggered:
            return False
        try:
            self._getters.remove(get)
        except ValueError:
            return False
        return True

    def _dispatch(self) -> None:
        # Satisfy getters, oldest first, with the oldest items.
        items = self.items
        getters = self._getters
        while getters and items:
            getters.popleft().succeed(items.pop(0))
