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

__all__ = ["Server", "Resource", "Request", "Store", "StorePut", "StoreGet"]


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


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env, label=store._put_label)
        self.item = item


class StoreGet(Event):
    __slots__ = ()


class Store:
    """An unbounded-or-bounded FIFO store of Python objects."""

    def __init__(self, env: "Environment", capacity: float = float("inf"), name: str = ""):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._put_label = f"put:{name}"
        self._get_label = f"get:{name}"
        self.items: list[Any] = []
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        event = StorePut(self, item)
        self._putters.append(event)
        self._dispatch()
        return event

    def put_nowait(self, item: Any) -> None:
        """Deposit an item without creating a put event.

        For callers that ignore the returned event (pool pre-fill and
        buffer release), the StorePut event is pure overhead: it succeeds
        immediately and nothing ever waits on it. Skipping it removes one
        allocation and one scheduled no-op per put; because the dropped
        event has no callbacks, the relative order of all remaining events
        is unchanged. Falls back to :meth:`put` when the deposit cannot
        complete immediately (bounded store at capacity, or queued putters
        whose FIFO turn must come first).
        """
        if self._putters or len(self.items) >= self.capacity:
            self.put(item)
            return
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
        # Allocation-free rendezvous loop (this runs once per put/get, the
        # hottest non-numpy path in the simulator).
        items = self.items
        getters = self._getters
        putters = self._putters
        while True:
            progress = False
            # Move queued puts into the store while capacity allows.
            while putters and len(items) < self.capacity:
                put = putters.popleft()
                items.append(put.item)
                put.succeed()
                progress = True
            # Satisfy getters, oldest first, with the oldest items.
            while getters and items:
                getters.popleft().succeed(items.pop(0))
                progress = True
            if not progress:
                return
