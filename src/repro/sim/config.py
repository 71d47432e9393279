"""Scenario configuration and cost weights.

The paper's objective (1) adds four heterogeneous terms: expected inference
loss (dimensionless squared loss), computation cost (seconds), model
switching cost (seconds), and allowance trading expense (currency).  Like
the paper — whose Fig. 5 explicitly sweeps "the weight associated to
switching cost" — we combine them with explicit weights.  The defaults
calibrate the terms to comparable magnitude on the default scenario so that
every experiment exercises every term (see DESIGN.md section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.utils.records import decode_fields
from repro.utils.validation import check_nonnegative, check_positive

__all__ = ["CostWeights", "ScenarioConfig"]

DATASETS = ("mnist", "cifar10", "synthetic")


@dataclass(frozen=True)
class CostWeights:
    """Relative weights of the cost components in the objective (1).

    ``inference`` and ``compute`` weight the expected-loss and latency terms;
    ``switching`` weights the download-delay term (the paper's Fig. 5 sweep);
    ``trading`` converts allowance expense (cents) into cost units.
    """

    inference: float = 1.0
    compute: float = 1.0
    switching: float = 1.0
    trading: float = 0.01

    def __post_init__(self) -> None:
        check_nonnegative(self.inference, "inference")
        check_nonnegative(self.compute, "compute")
        check_nonnegative(self.switching, "switching")
        check_nonnegative(self.trading, "trading")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to build a reproducible scenario.

    Defaults follow the paper's Section V-A settings: 10 edges, a two-day
    horizon of 160 fifteen-minute slots, six models, an initial cap of 500,
    emission rate 500 g/kWh, and EU-permit-range allowance prices.
    """

    dataset: str = "mnist"
    num_edges: int = 10
    horizon: int = 160
    num_models: int = 6
    carbon_cap_kg: float = 500.0
    rho_kg_per_kwh: float = 0.5
    requests_per_arrival: float = 2e6
    workload_base_mean: float = 60.0
    trade_bound_factor: float = 4.0
    switching_weight: float = 1.0
    weights: CostWeights = field(default_factory=CostWeights)
    seed: int = 0
    zoo_seed: int = 1234
    n_train: int = 2000
    n_test: int = 4000
    image_size: int = 8

    def __post_init__(self) -> None:
        if self.dataset not in DATASETS:
            raise ValueError(f"dataset must be one of {DATASETS}, got {self.dataset!r}")
        check_positive(self.num_edges, "num_edges")
        check_positive(self.horizon, "horizon")
        check_positive(self.num_models, "num_models")
        check_nonnegative(self.carbon_cap_kg, "carbon_cap_kg")
        check_nonnegative(self.rho_kg_per_kwh, "rho_kg_per_kwh")
        check_positive(self.requests_per_arrival, "requests_per_arrival")
        check_positive(self.workload_base_mean, "workload_base_mean")
        check_positive(self.trade_bound_factor, "trade_bound_factor")
        check_nonnegative(self.switching_weight, "switching_weight")
        check_positive(self.n_train, "n_train")
        check_positive(self.n_test, "n_test")
        check_positive(self.image_size, "image_size")

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        """Copy with some fields replaced (sweep helper)."""
        return replace(self, **kwargs)

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioConfig":
        """Strict inverse of ``dataclasses.asdict``: unknown keys are errors."""
        return decode_fields(
            cls,
            payload,
            "scenario config",
            weights=lambda raw: decode_fields(CostWeights, raw, "cost weights"),
        )
