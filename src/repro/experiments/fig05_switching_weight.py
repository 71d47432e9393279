"""Fig. 5 — total cost versus the weight of the switching cost.

The paper grows the switching-cost weight and observes that our approach's
total cost stays almost flat (the block lengths grow with the weight,
suppressing switches) while every switching-oblivious baseline deteriorates;
Greedy ranks second because it never switches after the first download.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.engine import SweepEngine
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_cost_sweep
from repro.experiments.settings import default_seeds

__all__ = ["Fig05Result", "run", "format_result", "main"]

PAPER_WEIGHTS = (1.0, 2.0, 4.0, 8.0, 16.0)
FAST_WEIGHTS = (1.0, 4.0, 16.0)
SWEEP_COMBOS = (
    ("Ran", "LY"),
    ("Greedy", "LY"),
    ("TINF", "LY"),
    ("UCB", "LY"),
)


@dataclass(frozen=True)
class Fig05Result:
    """Mean total cost per (algorithm, switching weight)."""

    sweep: tuple[float, ...]
    costs: dict[str, list[float]]

    def relative_growth(self, label: str) -> float:
        """Cost at the largest weight divided by cost at the smallest."""
        values = self.costs[label]
        return values[-1] / values[0]


def run(
    fast: bool = True,
    seeds: list[int] | None = None,
    sweep: tuple[float, ...] | None = None,
    engine: SweepEngine | None = None,
) -> Fig05Result:
    """Execute the Fig. 5 sweep."""
    seeds = default_seeds(fast) if seeds is None else seeds
    sweep = (FAST_WEIGHTS if fast else PAPER_WEIGHTS) if sweep is None else sweep

    costs = run_cost_sweep(fast, "switching_weight", sweep, seeds, SWEEP_COMBOS, engine)
    return Fig05Result(sweep=tuple(sweep), costs=costs)


def format_result(result: Fig05Result) -> str:
    """Cost per weight plus the growth ratio (flat = close to 1)."""
    rows = []
    for label, values in sorted(result.costs.items(), key=lambda kv: kv[1][-1]):
        rows.append([label] + list(values) + [result.relative_growth(label)])
    headers = (
        ["algorithm"]
        + [f"w={w:g}" for w in result.sweep]
        + ["growth(last/first)"]
    )
    return format_table(
        headers, rows, title="Fig. 5 — total cost vs switching-cost weight"
    )


def main(fast: bool = True) -> Fig05Result:
    """Run and print the experiment."""
    result = run(fast=fast)
    print(format_result(result))
    return result


if __name__ == "__main__":
    main()
