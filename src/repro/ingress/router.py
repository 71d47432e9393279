"""The carbon-aware ingress router: admission, deferral, release.

One router instance fronts one edge.  Each slot it ingests that edge's
thinned per-class request counts and gives each request one of three
fates: **release now** (it joins the slot's ``M_i^t`` count and the edge
kernel serves it), **defer** (it waits for a cheaper forecast slot or for
slot capacity), or **drop** (admission policy under queue overflow).

The router holds counts, not requests.  A class's deadline budget is
constant, so one class's arrivals in one slot share a deadline and a
contiguous ``seq`` run: one *cohort* ``[deadline_slot, arrival_slot,
class_index, first_seq, count]``.  Queues are deques of cohorts in
arrival order; every release, deferral and drop is a count split of a
head or tail cohort.  Two regimes, selected by ``config.deferral``:

* **deferral on** — one queue per SLA class, sorted by ``(deadline, seq)``
  because arrival order is deadline order within a class.  Deadline-forced
  cohorts release first (capacity-exempt — deadline beats throttle), then
  remaining slot capacity fills by class priority.  A deferrable class is
  held back once its head cohort's look-ahead forecast
  (:mod:`repro.forecast.price_models`) shows a cheaper slot within
  deadline: the head has the earliest deadline, so its look-ahead window
  is a subset of every later cohort's — if it waits, so does the rest.
* **deferral off** — one deadline- and carbon-blind FIFO of ``(arrival,
  class)`` cohorts.  With ``slot_capacity == 0`` every request releases in
  its arrival slot, reproducing the non-ingress adapter path bit-exactly;
  with a capacity it is the naive baseline the example study compares
  against (spill releases in arrival order, whatever the SLA).

Overflow past ``queue_capacity``: ``drop-oldest`` trims the queue's head,
``deadline-shed`` trims cohorts newest-first in descending ``(deadline,
first_seq)`` order — with deferral on, always the arriving cohort.

Determinism: routing consumes no randomness — every decision is a pure
function of the thinned counts, the price trace, config and slot index.
The final slot force-releases everything (deadlines clamp to
``horizon - 1``), so no request is left queued and request accounting
closes exactly.
"""

from __future__ import annotations

import copy
import functools
import itertools
from collections import deque
from collections.abc import Callable

import numpy as np

from repro.ingress.config import IngressConfig
from repro.ingress.request import clamp_deadline

__all__ = ["IngressRouter"]

#: Cohort layout: the requests of one class that arrived in one slot.
_DEADLINE, _ARRIVAL, _CLASS, _FIRST, _COUNT = range(5)


class IngressRouter:
    """Per-edge admission/deferral/release engine (see module docstring)."""

    def __init__(self, edge: int, config: IngressConfig, horizon: int) -> None:
        self.edge = int(edge)
        self.config = config
        self.horizon = int(horizon)
        self.classes = config.classes
        #: Class indices in release order: priority descending, name as a
        #: deterministic tie-break.
        self._release_order = sorted(
            range(len(self.classes)),
            key=lambda ci: (-self.classes[ci].priority, self.classes[ci].name),
        )
        self._seq = 0
        self._queues: list[deque[list[int]]] = [
            deque() for _ in range(len(self.classes) if config.deferral else 1)
        ]
        self._forecaster = config.make_forecaster()

    @property
    def depth(self) -> int:
        """Requests currently queued (all classes)."""
        return sum(cohort[_COUNT] for queue in self._queues for cohort in queue)

    @property
    def _heaps(self) -> list[list[tuple[int, int, int, int]]]:
        """Read-only per-class view of the queues: one ``(deadline, seq,
        arrival, class)`` tuple per queued request (tests and debugging)."""
        cohorts = [cohort for queue in self._queues for cohort in queue]
        return [
            [(deadline, seq, arrival, c) for deadline, arrival, c, first, n in cohorts
             if c == ci for seq in range(first, first + n)]
            for ci in range(len(self.classes))
        ]

    def step(
        self, t: int, counts: np.ndarray | list[int], price: float
    ) -> tuple[int, dict[str, object]]:
        """Route one slot; returns ``(released_count, provisional stats)``.

        ``counts`` are the thinned per-class arrivals (mix order) and
        ``price`` is the slot's realized buy price — the forecaster sees
        it before any deferral decision, matching the paper's information
        structure (decisions at ``t`` use prices up to ``t`` only).
        """
        self._forecaster.update(price)
        total_in = 0
        for ci, n in enumerate(map(int, counts)):
            if n:
                deadline = clamp_deadline(
                    t, self.classes[ci].deadline_slots, self.horizon
                )
                queue = self._queues[ci if self.config.deferral else 0]
                queue.append([deadline, t, ci, self._seq, n])
                self._seq += n
                total_in += n

        released: list[list[int]] = []
        if self.config.deferral:
            dropped = sum(self._trim(queue) for queue in self._queues)
            # Deadline-forced releases are capacity-exempt: a request whose
            # deadline is now goes out now, throttle or not.  On the final
            # slot every deadline has clamped to t, so this drains everything.
            count = 0
            for ci in self._release_order:
                count = self._release(
                    self._queues[ci], released, count, 0,
                    lambda head: head[_DEADLINE] > t,
                )
            wait = functools.partial(self._prefer_wait, t, price, [])
            for ci in self._release_order:
                count = self._release(
                    self._queues[ci], released, count, self.config.slot_capacity,
                    wait if self.classes[ci].deferrable else None,
                )
        else:
            capacity = 0 if t == self.horizon - 1 else self.config.slot_capacity
            count = self._release(self._queues[0], released, 0, capacity)
            dropped = self._trim(self._queues[0])

        per_class: dict[str, list[int]] = {cls.name: [0, 0] for cls in self.classes}
        waits: dict[int, int] = {}
        for deadline, arrival, ci, _, n in released:
            stats = per_class[self.classes[ci].name]
            stats[0] += n
            if t <= deadline:
                stats[1] += n
            if t > arrival:
                waits[t - arrival] = waits.get(t - arrival, 0) + n

        # This slot's arrivals still queued at slot end: the trailing
        # cohorts of each queue that arrived at t.
        deferred = 0
        for queue in self._queues:
            for cohort in reversed(queue):
                if cohort[_ARRIVAL] != t:
                    break
                deferred += cohort[_COUNT]
        provisional: dict[str, object] = {
            "in": total_in,
            "dropped": dropped,
            "released": count,
            "deferred": deferred,
            "queued": self.depth,
            "per_class": per_class,
            "waits": waits,
        }
        return count, provisional

    # ------------------------------------------------------------------
    # release and trim: count splits of head and tail cohorts

    @staticmethod
    def _release(
        queue: deque[list[int]], released: list[list[int]], count: int,
        capacity: int, hold: Callable[[list[int]], bool] | None = None,
    ) -> int:
        """Release head requests until the queue empties, ``count`` reaches
        ``capacity`` (0: no cap) or ``hold(head)``; returns the new count."""
        while queue and (not capacity or count < capacity):
            head = queue[0]
            if hold is not None and hold(head):
                break
            take = min(capacity - count, head[_COUNT]) if capacity else head[_COUNT]
            if take == head[_COUNT]:
                released.append(queue.popleft())
            else:
                released.append([*head[:_COUNT], take])
                head[_FIRST] += take
                head[_COUNT] -= take
            count += take
        return count

    def _trim(self, queue: deque[list[int]]) -> int:
        """Apply the admission policy to an over-capacity queue; returns drops."""
        capacity = self.config.queue_capacity
        policy = self.config.admission
        if not capacity or policy == "admit":
            return 0
        excess = sum(cohort[_COUNT] for cohort in queue) - capacity
        if excess <= 0:
            return 0
        dropped = excess
        oldest = policy == "drop-oldest"
        # deadline-shed evicts the slackest request first: the newest of the
        # cohort with the largest (deadline, first_seq).
        victims = queue if oldest else sorted(
            queue, key=lambda cohort: (cohort[_DEADLINE], cohort[_FIRST]), reverse=True
        )
        for cohort in victims:
            cut = min(excess, cohort[_COUNT])
            cohort[_COUNT] -= cut
            if oldest:
                cohort[_FIRST] += cut
            excess -= cut
            if not excess:
                break
        live = [cohort for cohort in queue if cohort[_COUNT]]
        queue.clear()
        queue.extend(live)
        return dropped

    def _prefer_wait(
        self, t: int, price: float, best: list[float], head: list[int]
    ) -> bool:
        """Whether a cheaper forecast slot exists within ``head``'s wait window;
        ``best`` caches the step's prefix minima of the look-ahead forecasts."""
        window = min(head[_DEADLINE], t + self.config.lookahead) - t
        if window <= 0:
            return False
        if not best:
            best.extend(itertools.accumulate(
                self._forecaster.path(self.config.lookahead), min
            ))
        return best[window - 1] < price * (1.0 - self.config.defer_margin)

    # ------------------------------------------------------------------
    # snapshot support

    def state_dict(self) -> dict[str, object]:
        """Picklable router state (seq counter, cohort queues, forecaster)."""
        return {
            "seq": self._seq,
            "queues": [[list(cohort) for cohort in queue] for queue in self._queues],
            "forecaster": copy.deepcopy(self._forecaster),
        }

    def load_state(self, state: dict[str, object]) -> None:
        """Restore the state captured by :meth:`state_dict`."""
        if "heaps" in state or "fifo" in state:
            raise ValueError(
                "router state is in the pre-cohort per-request format "
                "('heaps'/'fifo' keys), which cannot be restored; restart "
                "the run instead of resuming this snapshot"
            )
        self._seq = int(state["seq"])
        self._queues = [
            deque(list(cohort) for cohort in queue) for queue in state["queues"]
        ]
        self._forecaster = copy.deepcopy(state["forecaster"])
