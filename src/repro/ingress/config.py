"""Ingress tier configuration: the SLA mix and router policy knobs.

Same contract as :class:`repro.serve.config.ServeConfig`: a frozen
dataclass with eager validation, a strict ``from_dict`` through
:func:`repro.utils.records.decode_fields` (unknown keys are errors), and a
lossless JSON round-trip — an :class:`IngressConfig` is
embedded verbatim (as its dict form) inside ``ServeConfig.ingress`` so
serve snapshots and soak reports carry the full ingress contract.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from repro.forecast.price_models import (
    AR1Forecaster,
    EwmaForecaster,
    PriceForecaster,
)
from repro.ingress.request import SlaClass
from repro.utils.records import decode_fields, load_json

__all__ = ["ADMISSION_POLICIES", "DEFAULT_CLASSES", "FORECASTERS", "IngressConfig"]

#: Admission policies applied when a class's deferral queue is full.
ADMISSION_POLICIES = ("admit", "drop-oldest", "deadline-shed")

#: Forecaster families the router can use for cheap-slot look-ahead.
FORECASTERS = ("ewma", "ar1")

#: The default three-tier SLA mix: latency-critical interactive traffic,
#: delay-tolerant standard traffic, and batch work that can wait a day of
#: slots for a greener interval.
DEFAULT_CLASSES: tuple[SlaClass, ...] = (
    SlaClass(
        name="interactive", share=0.6, deadline_slots=1, priority=2, deferrable=False
    ),
    SlaClass(
        name="standard", share=0.3, deadline_slots=6, priority=1, deferrable=True
    ),
    SlaClass(name="batch", share=0.1, deadline_slots=24, priority=0, deferrable=True),
)


@dataclass(frozen=True)
class IngressConfig:
    """Full configuration of the request-level ingress tier.

    Parameters
    ----------
    classes:
        The SLA mix; shares must sum to 1 (within float tolerance).
    deferral:
        Master switch for carbon-aware deferral.  Off, the router is a
        plain FIFO: with ``slot_capacity == 0`` it releases every request
        in its arrival slot, which is the bit-parity path against the
        non-ingress adapters (pinned golden digests unmoved).
    admission:
        Queue-overflow policy: ``admit`` (unbounded), ``drop-oldest``
        (evict the earliest-deadline queued request), or ``deadline-shed``
        (evict whichever request — newcomer included — has the most
        deadline slack).  With deferral on, the newest arrivals of a class
        always have the most slack, so ``deadline-shed`` always sheds the
        newest arrivals.
    queue_capacity:
        Per-class deferral-queue bound in requests; 0 means unbounded.
    slot_capacity:
        Per-edge per-slot release budget in requests; 0 means unlimited.
        Deadline-forced releases and the final-slot flush ignore it.
    lookahead:
        How many future slots the price forecast scans for a cheaper
        release opportunity.
    defer_margin:
        Relative price improvement required to defer: wait only if the
        best forecast price beats the current price by this fraction.
    forecaster:
        Price-forecast family (``repro.forecast.price_models``).
    sample_every:
        Rate cap for the sampled ingress obs events: emit on slots where
        ``t % sample_every == 0``.
    """

    classes: tuple[SlaClass, ...] = field(default=DEFAULT_CLASSES)
    deferral: bool = True
    admission: str = "admit"
    queue_capacity: int = 0
    slot_capacity: int = 0
    lookahead: int = 8
    defer_margin: float = 0.02
    forecaster: str = "ewma"
    sample_every: int = 1

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("ingress needs at least one SLA class")
        classes = tuple(self.classes)
        object.__setattr__(self, "classes", classes)
        names = [cls.name for cls in classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLA class names: {names}")
        total = sum(cls.share for cls in classes)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"SLA class shares must sum to 1, got {total}")
        if self.admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {self.admission!r}; "
                f"choose from {ADMISSION_POLICIES}"
            )
        if self.forecaster not in FORECASTERS:
            raise ValueError(
                f"unknown forecaster {self.forecaster!r}; choose from {FORECASTERS}"
            )
        if self.queue_capacity < 0:
            raise ValueError(f"queue_capacity must be >= 0, got {self.queue_capacity}")
        if self.slot_capacity < 0:
            raise ValueError(f"slot_capacity must be >= 0, got {self.slot_capacity}")
        if self.lookahead < 1:
            raise ValueError(f"lookahead must be >= 1, got {self.lookahead}")
        if not 0.0 <= self.defer_margin < 1.0:
            raise ValueError(
                f"defer_margin must be in [0, 1), got {self.defer_margin}"
            )
        if self.sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {self.sample_every}")

    @property
    def class_names(self) -> tuple[str, ...]:
        """Class names in mix order (the order thinned counts arrive in)."""
        return tuple(cls.name for cls in self.classes)

    def make_forecaster(self) -> PriceForecaster:
        """A fresh forecaster instance of the configured family."""
        if self.forecaster == "ar1":
            return AR1Forecaster()
        return EwmaForecaster()

    def to_dict(self) -> dict[str, object]:
        """JSON-ready dict (inverse of :meth:`from_dict`)."""
        payload = dataclasses.asdict(self)
        payload["classes"] = [dataclasses.asdict(cls) for cls in self.classes]
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "IngressConfig":
        """Strict inverse of :meth:`to_dict`: unknown keys are errors."""
        return decode_fields(
            cls,
            payload,
            "IngressConfig",
            classes=lambda raw: tuple(
                decode_fields(SlaClass, entry, "SLA class") for entry in raw
            ),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "IngressConfig":
        """Load a config from a JSON file."""
        return cls.from_dict(load_json(path))
