"""Capacity-limited resources for the DES kernel."""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.sim.core import Environment, Event
from repro.util.errors import SimulationError


class Resource:
    """A FIFO resource with ``capacity`` identical slots.

    Usage inside a simulation process::

        req = resource.request()
        yield req
        try:
            ...  # hold the slot
        finally:
            resource.release(req)
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name or "resource"
        self._users: set[Event] = set()
        self._waiting: Deque[Event] = deque()

    def request(self) -> Event:
        """A claim on one slot: an event that fires once the slot is held."""
        env = self.env
        env.counters.resource_requests += 1
        req = Event(env, f"{self.name}.request")
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed(self)
        else:
            env.counters.resource_waits += 1
            self._waiting.append(req)
            self._gauge_queue()
        return req

    def release(self, request: Event) -> None:
        if request in self._users:
            self._users.remove(request)
        elif request in self._waiting:
            # Releasing a request that never got a slot cancels it.
            self._waiting.remove(request)
            self._gauge_queue()
            return
        else:
            raise SimulationError(f"release of unknown request on {self.name}")
        drained = False
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.add(nxt)
            nxt.succeed(self)
            drained = True
        if drained:
            self._gauge_queue()

    def _gauge_queue(self) -> None:
        tracer = self.env.tracer
        if tracer is not None:
            tracer.gauge("queue", self.name, self.env.now, len(self._waiting))
