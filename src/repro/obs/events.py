"""Typed structured events emitted by the instrumented simulation stack.

Each event type is a frozen dataclass recording one per-slot transition of
the paper's control loop: slot starts, Algorithm-1 block boundaries and
model switches, Algorithm-2 dual updates, allowance trades, and realized
emissions.  Events are plain data — JSON-serializable via :meth:`Event.as_dict`
and reconstructible via :func:`event_from_dict` — so a JSONL trace of a run
round-trips losslessly.

Their JSON codec, :mod:`repro.utils.records`, is stdlib only, so
producers convert numpy scalars to builtin ``int``/``float`` before
constructing events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.utils.records import Record, TagRegistry

__all__ = [
    "ArrivalEvent",
    "BlockBoundaryEvent",
    "DeadlineMissEvent",
    "DualUpdateEvent",
    "EVENT_TYPES",
    "EmissionEvent",
    "Event",
    "FaultInjectedEvent",
    "FeedbackLostEvent",
    "ModelSwitchEvent",
    "QueueShedEvent",
    "ReconfigAppliedEvent",
    "RequestAdmitEvent",
    "RequestDeferEvent",
    "RequestDropEvent",
    "RetryEvent",
    "SlotStartEvent",
    "SnapshotEvent",
    "TradeEvent",
    "TradeRejectedEvent",
    "WorkerDeathEvent",
    "WorkerRestartEvent",
    "WorkerSpawnEvent",
    "event_from_dict",
    "register_event",
]

#: Registry of event type tag -> event class, populated by ``register_event``.
EVENT_TYPES = TagRegistry("event", tag_key="type")


def register_event(cls: type["Event"]) -> type["Event"]:
    """Class decorator adding an event class to :data:`EVENT_TYPES` (tag-unique)."""
    return EVENT_TYPES.register(cls)


@dataclass(frozen=True)
class Event(Record):
    """Base event: one structured record anchored at time slot ``t``."""

    t: int

    #: Stable wire tag written to the ``"type"`` key of the JSON form.
    type: ClassVar[str] = "event"
    tag_key: ClassVar[str] = "type"


@register_event
@dataclass(frozen=True)
class SlotStartEvent(Event):
    """Top of the simulator main loop: slot ``t`` of ``horizon`` begins."""

    horizon: int = 0

    type: ClassVar[str] = "slot_start"


@register_event
@dataclass(frozen=True)
class ModelSwitchEvent(Event):
    """An edge downloads a different model than it hosted last slot.

    ``previous_model`` is ``-1`` on the first slot (nothing was hosted yet);
    ``switch_cost`` is the edge's effective download delay ``u_i``.
    """

    edge: int = 0
    previous_model: int = -1
    model: int = 0
    switch_cost: float = 0.0

    type: ClassVar[str] = "model_switch"


@register_event
@dataclass(frozen=True)
class BlockBoundaryEvent(Event):
    """Algorithm 1 opens a new block: OMD resample at a block boundary.

    ``length`` is the block's slot count, ``eta`` its Tsallis-INF learning
    rate, and ``model`` the model sampled to host for the whole block.
    """

    edge: int = 0
    block: int = 0
    length: int = 0
    eta: float = 0.0
    model: int = 0

    type: ClassVar[str] = "block_boundary"


@register_event
@dataclass(frozen=True)
class TradeEvent(Event):
    """The market executed an allowance order (possibly of zero volume).

    ``cost`` is the paper's ``z^t c^t - w^t r^t`` (negative = net revenue).
    """

    buy: float = 0.0
    sell: float = 0.0
    buy_price: float = 0.0
    sell_price: float = 0.0
    cost: float = 0.0

    type: ClassVar[str] = "trade"


@register_event
@dataclass(frozen=True)
class DualUpdateEvent(Event):
    """Algorithm 2's dual ascent ran: lambda after absorbing slot ``t``.

    ``constraint`` is the realized per-slot constraint value
    ``g^t = e^t - R/T - z^t + w^t`` the ascent moved along.
    """

    dual: float = 0.0
    constraint: float = 0.0

    type: ClassVar[str] = "dual_update"


@register_event
@dataclass(frozen=True)
class EmissionEvent(Event):
    """The ledger recorded slot ``t``'s realized emissions.

    ``holdings_kg`` is ``R + sum z - sum w`` after the slot's trade;
    ``violation_kg`` is the running positive part of (emissions - holdings),
    i.e. the paper's fit measured at this prefix.
    """

    emissions_kg: float = 0.0
    cumulative_kg: float = 0.0
    holdings_kg: float = 0.0
    violation_kg: float = 0.0

    type: ClassVar[str] = "emission"


@register_event
@dataclass(frozen=True)
class FaultInjectedEvent(Event):
    """A declared fault fired at slot ``t``.

    ``kind`` is the fault spec's wire tag (``edge_outage``,
    ``download_failure``, ``market_outage``, ...); ``edge`` is ``-1`` for
    system-level faults with no edge locality.
    """

    kind: str = "fault"
    edge: int = -1

    type: ClassVar[str] = "fault_injected"


@register_event
@dataclass(frozen=True)
class FeedbackLostEvent(Event):
    """An edge's slot-loss observation was dropped in transit.

    The policy skips its estimator update for this slot (the
    importance-weighted estimator stays unbiased over observed slots).
    """

    edge: int = 0
    model: int = 0

    type: ClassVar[str] = "feedback_lost"


@register_event
@dataclass(frozen=True)
class TradeRejectedEvent(Event):
    """Slot ``t``'s trade did not execute (market outage or rejection).

    ``buy``/``sell`` are the intended volumes; ``pending_buy``/``pending_sell``
    the carried-over intent (bounded by the per-slot trade bound) that will
    reconcile at the next executable slot.
    """

    buy: float = 0.0
    sell: float = 0.0
    pending_buy: float = 0.0
    pending_sell: float = 0.0

    type: ClassVar[str] = "trade_rejected"


@register_event
@dataclass(frozen=True)
class RetryEvent(Event):
    """A failed model download backs off for retry.

    ``attempt`` counts consecutive failures for the current target model;
    ``backoff_slots`` is the wait before the next attempt (capped
    exponential); the edge keeps ``hosted_model`` meanwhile.
    """

    edge: int = 0
    hosted_model: int = 0
    target_model: int = 0
    attempt: int = 1
    backoff_slots: int = 1

    type: ClassVar[str] = "retry"


@register_event
@dataclass(frozen=True)
class ArrivalEvent(Event):
    """A stream adapter delivered slot ``t``'s workload to an edge.

    ``count`` is the number of samples offered.  Replaying a serve log
    through the trace-replay adapter feeds these counts back verbatim,
    which is what lets a recorded run be re-executed deterministically.
    """

    edge: int = 0
    count: int = 0

    type: ClassVar[str] = "arrival"


@register_event
@dataclass(frozen=True)
class QueueShedEvent(Event):
    """Backpressure dropped slot ``t``'s payload at an edge's work queue.

    The edge still advances its block schedule (the slot routes through the
    lost-feedback path), but nothing is served; ``count`` samples were shed.
    """

    edge: int = 0
    count: int = 0

    type: ClassVar[str] = "queue_shed"


@register_event
@dataclass(frozen=True)
class SnapshotEvent(Event):
    """The serve runtime persisted full controller state after slot ``t``.

    ``path`` is where the snapshot landed; a restored process resumes from
    ``t + 1``.
    """

    path: str = ""

    type: ClassVar[str] = "snapshot"


@register_event
@dataclass(frozen=True)
class WorkerSpawnEvent(Event):
    """The shard parent spawned worker ``worker`` to serve from slot ``t``.

    ``num_edges`` is the size of the shard it owns; ``generation`` counts
    incarnations of this worker index (0 = the original spawn).
    """

    worker: int = 0
    num_edges: int = 0
    generation: int = 0

    type: ClassVar[str] = "worker_spawn"


@register_event
@dataclass(frozen=True)
class WorkerDeathEvent(Event):
    """Worker ``worker`` died with slot ``t`` as the next slot to fold.

    ``policy`` is the death policy in force (``fail``/``degrade``/
    ``restart``); ``message`` carries the worker-side error when one was
    reported before the pipe closed.
    """

    worker: int = 0
    policy: str = ""
    message: str = ""

    type: ClassVar[str] = "worker_death"


@register_event
@dataclass(frozen=True)
class WorkerRestartEvent(Event):
    """The supervisor respawned worker ``worker`` after a death.

    ``t`` is the first live slot of the new incarnation; ``replay_from``
    is where its offline replay of missed slots began; ``attempt`` counts
    restarts of this worker index (1 = first restart); ``backoff_s`` is
    the pre-spawn backoff that was applied.
    """

    worker: int = 0
    replay_from: int = 0
    attempt: int = 1
    backoff_s: float = 0.0

    type: ClassVar[str] = "worker_restart"


@register_event
@dataclass(frozen=True)
class ReconfigAppliedEvent(Event):
    """A reconfiguration op was applied at the slot-``t`` barrier.

    ``op`` is the op's kind tag (``add_edge``/``remove_edge``/
    ``rebalance``); ``edge`` the affected edge (-1 for rebalance);
    ``active_edges``/``num_workers`` describe the fleet *after* the op.
    """

    op: str = ""
    edge: int = -1
    active_edges: int = 0
    num_workers: int = 0

    type: ClassVar[str] = "reconfig_applied"


@register_event
@dataclass(frozen=True)
class RequestAdmitEvent(Event):
    """Ingress admitted ``count`` requests on edge ``edge`` at slot ``t``.

    The four request-level events are *sampled*: the ingress adapter
    emits them only on slots where ``t % sample_every == 0`` and the
    count is nonzero, so trace volume stays bounded at request scale.
    """

    edge: int = 0
    count: int = 0

    type: ClassVar[str] = "request_admit"


@register_event
@dataclass(frozen=True)
class RequestDeferEvent(Event):
    """``count`` of slot ``t``'s arrivals were held past their slot.

    Covers both voluntary carbon-aware deferrals (a cheaper forecast slot
    exists within deadline) and capacity spill.  Sampled (see
    :class:`RequestAdmitEvent`).
    """

    edge: int = 0
    count: int = 0

    type: ClassVar[str] = "request_defer"


@register_event
@dataclass(frozen=True)
class RequestDropEvent(Event):
    """Admission policy dropped ``count`` requests at slot ``t``.

    Sampled (see :class:`RequestAdmitEvent`).
    """

    edge: int = 0
    count: int = 0

    type: ClassVar[str] = "request_drop"


@register_event
@dataclass(frozen=True)
class DeadlineMissEvent(Event):
    """``count`` requests released at slot ``t`` missed their deadline.

    Includes releases into shed or offline slots (nothing was served, so
    every release that slot is a miss).  Sampled (see
    :class:`RequestAdmitEvent`).
    """

    edge: int = 0
    count: int = 0

    type: ClassVar[str] = "deadline_miss"


def event_from_dict(payload: dict[str, object]) -> Event:
    """Reconstruct an event from its :meth:`Event.as_dict` form."""
    return EVENT_TYPES.decode(payload)
