"""Typed fault specifications and the :class:`FaultPlan` container.

A *fault plan* declares, ahead of a run, which infrastructure failures the
simulated system must operate through.  Each spec is a frozen dataclass with
a stable ``kind`` tag, so plans round-trip losslessly through JSON
(:meth:`FaultPlan.to_dict` / :meth:`FaultPlan.from_dict`, the shared
:class:`~repro.utils.records.Plan` codec) and can be passed on the command
line (``repro experiment --faults PLAN.json``).

The taxonomy mirrors the failure modes of a carbon-aware edge deployment:

* :class:`EdgeOutage` — an edge is offline for a slot window: arriving
  samples are dropped unserved, no inference loss is observed, and no model
  download can complete.
* :class:`FeedbackLoss` — the slot-loss observation is lost in transit with
  probability ``p`` (the inference itself ran and its costs accrue).
* :class:`DownloadFailure` — a model switch fails with probability ``p``;
  the edge keeps the old model and retries under capped exponential backoff
  measured in slots.
* :class:`MarketOutage` — the carbon market is unreachable for a slot
  window: no trade executes, intent carries over.
* :class:`TradeRejection` — an individual trade is rejected with
  probability ``p`` (market reachable, order bounced).

Probabilities are realized by :class:`~repro.faults.injector.FaultInjector`
from dedicated named RNG streams, so a faulted run is bit-reproducible and
an empty plan leaves every existing stream untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

from repro.utils.records import Plan, Record, TagRegistry

__all__ = [
    "DownloadFailure",
    "EdgeOutage",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "FeedbackLoss",
    "GilbertElliottLoss",
    "MarketOutage",
    "TradeRejection",
    "load_plan",
    "register_fault",
]

#: Registry of fault kind tag -> spec class, populated by ``register_fault``.
FAULT_KINDS = TagRegistry("fault")


def register_fault(cls: type["FaultSpec"]) -> type["FaultSpec"]:
    """Class decorator adding a fault spec to :data:`FAULT_KINDS` (tag-unique)."""
    return FAULT_KINDS.register(cls)


def _check_window(start: int, end: int | None) -> None:
    if start < 0:
        raise ValueError(f"start must be non-negative, got {start}")
    if end is not None and end <= start:
        raise ValueError(f"window [{start}, {end}) is empty or inverted")


def _check_probability(probability: float) -> None:
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {probability}")


@dataclass(frozen=True)
class FaultSpec(Record):
    """Base fault spec: one declared failure mode of the simulated system."""

    #: Stable wire tag written to the ``"kind"`` key of the JSON form.
    kind: ClassVar[str] = "fault"


@register_fault
@dataclass(frozen=True)
class EdgeOutage(FaultSpec):
    """Edge ``edge`` is offline for slots ``[start, end)``.

    While offline the edge serves no samples (arrivals are dropped), emits
    nothing, observes no feedback, and cannot download models; it keeps
    whatever model it already hosts and re-synchronizes with its selection
    policy once back online.
    """

    edge: int
    start: int
    end: int

    kind: ClassVar[str] = "edge_outage"

    def __post_init__(self) -> None:
        if self.edge < 0:
            raise ValueError(f"edge must be non-negative, got {self.edge}")
        _check_window(self.start, self.end)


@register_fault
@dataclass(frozen=True)
class FeedbackLoss(FaultSpec):
    """Slot-loss observations are dropped with probability ``probability``.

    Applies to slots in ``[start, end)`` (``end=None`` means the horizon)
    on ``edge`` (``None`` means every edge).  The inference itself still
    runs — only the bandit feedback is lost, and the affected policy skips
    its estimator update for that slot.
    """

    probability: float
    edge: int | None = None
    start: int = 0
    end: int | None = None

    kind: ClassVar[str] = "feedback_loss"

    def __post_init__(self) -> None:
        _check_probability(self.probability)
        if self.edge is not None and self.edge < 0:
            raise ValueError(f"edge must be non-negative, got {self.edge}")
        _check_window(self.start, self.end)


@register_fault
@dataclass(frozen=True)
class DownloadFailure(FaultSpec):
    """Model downloads fail with probability ``probability``.

    On failure the edge keeps its old model and retries under exponential
    backoff measured in slots (1, 2, 4, ... capped at ``max_backoff``).
    The initial model provisioning (nothing hosted yet) never fails —
    only mid-run switches do.
    """

    probability: float
    edge: int | None = None
    start: int = 0
    end: int | None = None
    max_backoff: int = 8

    kind: ClassVar[str] = "download_failure"

    def __post_init__(self) -> None:
        _check_probability(self.probability)
        if self.edge is not None and self.edge < 0:
            raise ValueError(f"edge must be non-negative, got {self.edge}")
        if self.max_backoff < 1:
            raise ValueError(f"max_backoff must be >= 1, got {self.max_backoff}")
        _check_window(self.start, self.end)


@register_fault
@dataclass(frozen=True)
class MarketOutage(FaultSpec):
    """The carbon market is unreachable for slots ``[start, end)``.

    Trading decisions made during the outage are not executed; their intent
    carries over and reconciles once the market is reachable again, and the
    trading policy's dual update sees only the realized (zero) trade.
    """

    start: int
    end: int

    kind: ClassVar[str] = "market_outage"

    def __post_init__(self) -> None:
        _check_window(self.start, self.end)


@register_fault
@dataclass(frozen=True)
class TradeRejection(FaultSpec):
    """Individual trades are rejected with probability ``probability``.

    Same degradation path as :class:`MarketOutage`, but stochastic per slot
    within ``[start, end)`` (``end=None`` means the horizon).
    """

    probability: float
    start: int = 0
    end: int | None = None

    kind: ClassVar[str] = "trade_rejection"

    def __post_init__(self) -> None:
        _check_probability(self.probability)
        _check_window(self.start, self.end)


@register_fault
@dataclass(frozen=True)
class GilbertElliottLoss(FaultSpec):
    """Bursty feedback loss driven by a two-state Gilbert-Elliott channel.

    Each edge's feedback link evolves as a Markov chain over {good, bad}:
    from good it enters bad with probability ``p_bad`` per slot, from bad it
    recovers with probability ``p_good``.  A slot's observation is dropped
    with probability ``loss_good`` while the link is good and ``loss_bad``
    while it is bad — the classic correlated/bursty loss model, in contrast
    to :class:`FeedbackLoss`'s IID drops.  Applies to slots ``[start, end)``
    (``end=None`` means the horizon) on ``edge`` (``None`` means every edge,
    each with an independent chain).  Chains start in the good state.
    """

    p_bad: float
    p_good: float
    loss_good: float = 0.0
    loss_bad: float = 1.0
    edge: int | None = None
    start: int = 0
    end: int | None = None

    kind: ClassVar[str] = "gilbert_elliott_loss"

    def __post_init__(self) -> None:
        _check_probability(self.p_bad)
        _check_probability(self.p_good)
        _check_probability(self.loss_good)
        _check_probability(self.loss_bad)
        if self.edge is not None and self.edge < 0:
            raise ValueError(f"edge must be non-negative, got {self.edge}")
        _check_window(self.start, self.end)


@dataclass(frozen=True)
class FaultPlan(Plan):
    """An ordered collection of fault specs applied to one run.

    The spec order is part of the determinism contract: the injector
    realizes each probabilistic spec from its own named RNG stream indexed
    by position, so two identical plans realize identical fault patterns.
    An empty plan is the default and leaves runs bit-identical to unfaulted
    ones.  JSON form: ``{"faults": [...]}``.
    """

    specs: tuple[FaultSpec, ...] = ()

    key: ClassVar[str] = "faults"
    registry: ClassVar[TagRegistry] = FAULT_KINDS
    record_type: ClassVar[type] = FaultSpec

    def of_kind(self, kind: str) -> tuple[FaultSpec, ...]:
        """All specs whose kind tag equals ``kind`` (original order)."""
        return tuple(spec for spec in self.specs if spec.kind == kind)


def load_plan(path: str | Path) -> FaultPlan:
    """Load a fault plan from a JSON file."""
    return FaultPlan.from_file(path)
