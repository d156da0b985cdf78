"""Shared resources for simulation processes.

:class:`Resource` is a counting semaphore with FIFO queueing (disk
channels, per-node parity encoders, the control plane's protocol lock).
Its waits are ordinary :class:`~repro.sim.process.SimEvent` objects.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from .engine import Simulator
from .process import SimEvent

__all__ = ["Resource", "ResourceError"]


class ResourceError(RuntimeError):
    """Misuse of a resource (e.g. releasing more than was acquired)."""


class Resource:
    """Counting semaphore with FIFO grant order.

    Usage from a process::

        req = resource.request()
        yield req
        try:
            ... hold the resource ...
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ResourceError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = int(capacity)
        self.in_use = 0
        self._queue: Deque[SimEvent] = deque()

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def request(self) -> SimEvent:
        """Return an event that succeeds once a unit is granted."""
        req = SimEvent(self.sim)
        if self.in_use < self.capacity and not self._queue:
            self.in_use += 1
            req.succeed(self)
        else:
            self._queue.append(req)
        return req

    def release(self) -> None:
        """Return one unit and grant it to the next FIFO waiter."""
        if self.in_use <= 0:
            raise ResourceError("release() without matching grant")
        if self._queue:
            # the unit transfers directly to the waiter
            self._queue.popleft().succeed(self)
            return
        self.in_use -= 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Resource {self.in_use}/{self.capacity} q={self.queue_length}>"
