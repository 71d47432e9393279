"""Bounded per-edge work queues with event-weighted backpressure.

Capacity is measured in *events* (sample counts), not items: a slot
carrying 80 samples occupies 80 units, so the bound tracks actual memory
and compute debt rather than item counts.  A burst larger than the whole
capacity is still admitted when the queue is empty (otherwise ``block``
mode would deadlock on it); shed markers weigh nothing and always fit, so
an edge sees every slot even when its payload was dropped.

The queues are plain synchronous deques: one slot loop
(:func:`~repro.serve.runtime.serve_edges`) is both the producer and the
consumer of every queue it owns, so there is nothing to wait on.
``block`` backpressure is the loop holding a drawn item back until
:meth:`BoundedWorkQueue.fits` admits it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = ["BoundedWorkQueue", "QueueStats", "WorkItem"]


@dataclass(frozen=True)
class WorkItem:
    """One slot's workload for one edge.

    ``indices`` carries pre-drawn data-pool indices when the adapter owns
    the draw (dataset adapter); ``None`` lets the edge kernel draw.  A
    ``shed`` item records a payload dropped at the queue: the kernel still
    advances its block schedule, but serves nothing.
    """

    t: int
    count: int
    indices: np.ndarray | None = None
    shed: bool = False

    @property
    def weight(self) -> int:
        """Queue-capacity units this item occupies (shed markers are free)."""
        return 0 if self.shed else self.count


@dataclass
class QueueStats:
    """Occupancy accounting for one work queue."""

    events: int = 0
    items: int = 0
    peak_events: int = 0
    total_enqueued: int = 0
    rejected: int = 0


class BoundedWorkQueue:
    """A FIFO bounded by total event weight.

    :meth:`put` admits the item when it fits and otherwise counts a
    rejection (the shed path); :meth:`get` pops the oldest item.  One
    producer and one consumer per edge, so FIFO order is also slot order.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = QueueStats()
        self._items: deque[WorkItem] = deque()

    def fits(self, item: WorkItem) -> bool:
        """Whether ``item`` would be admitted now."""
        if item.weight == 0 or self.stats.items == 0:
            return True
        return self.stats.events + item.weight <= self.capacity

    @property
    def depth_events(self) -> int:
        """Event weight currently enqueued."""
        return self.stats.events

    @property
    def depth_items(self) -> int:
        """Items currently enqueued."""
        return self.stats.items

    def put(self, item: WorkItem) -> bool:
        """Enqueue ``item`` if it fits; otherwise count a rejection."""
        stats = self.stats
        if not self.fits(item):
            stats.rejected += 1
            return False
        self._items.append(item)
        stats.events += item.weight
        stats.items += 1
        stats.total_enqueued += 1
        stats.peak_events = max(stats.peak_events, stats.events)
        return True

    def get(self) -> WorkItem:
        """Dequeue the oldest item (``IndexError`` when empty)."""
        item = self._items.popleft()
        self.stats.events -= item.weight
        self.stats.items -= 1
        return item
