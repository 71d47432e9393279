"""Registering custom policies and comparing them through ``repro.run``.

The simulator accepts anything implementing the ``SelectionPolicy`` /
``TradingPolicy`` interfaces, and the policy registry makes new families
first-class citizens: one ``@register_selection`` / ``@register_trading``
decorator each, and they are available by name everywhere — ``repro.run``,
``Simulator.from_spec``, ``run_combo``, and the ``repro simulate`` /
``repro trace`` CLIs.  This example registers two simple custom families
and benchmarks them against the paper's algorithms on the same scenario
(common random numbers make the comparison exact):

* ``ExploreThenCommit`` (name ``"ETC"``) — samples every model a few
  slots, then commits.
* ``BudgetPacingTrader`` (name ``"Pacing"``) — buys exactly the
  uncovered-emission pace, ignoring prices.

Run:  python examples/custom_policy.py
"""

import numpy as np

import repro
from repro.experiments.reporting import format_table
from repro.metrics import summarize_run
from repro.policies import register_selection, register_trading
from repro.policies.selection import SelectionPolicy
from repro.policies.trading import TradeDecision, TradingContext, TradingPolicy
from repro.sim import ScenarioConfig, build_scenario


class ExploreThenCommit(SelectionPolicy):
    """Try each model ``rounds`` slots, then commit to the best average."""

    name = "ETC"

    def __init__(self, num_models: int, rounds: int = 3) -> None:
        super().__init__(num_models)
        self.rounds = rounds
        self._sums = np.zeros(num_models)
        self._counts = np.zeros(num_models, dtype=int)
        self._committed: int | None = None

    def select(self, t: int) -> int:
        if self._committed is not None:
            return self._committed
        untried = np.nonzero(self._counts < self.rounds)[0]
        if untried.size > 0:
            return int(untried[0])
        self._committed = int(np.argmin(self._sums / self._counts))
        return self._committed

    def observe(self, t: int, model: int, loss: float) -> None:
        self._check_model(model)
        self._sums[model] += loss
        self._counts[model] += 1


class BudgetPacingTrader(TradingPolicy):
    """Buy whatever keeps holdings level with cumulative emissions."""

    name = "Pacing"

    def decide(self, context: TradingContext) -> TradeDecision:
        gap = context.cumulative_emissions + context.mean_slot_emissions - context.holdings
        return TradeDecision(buy=self._clip(gap, context.trade_bound), sell=0.0)


# A builder calibrates a family to a scenario: selection builders return one
# policy per edge, trading builders a single policy.  Neither family below
# is randomized, so the rng_factory goes unused (builtin families draw named
# streams from it to keep runs seed-exact).  Duplicate names raise by
# default; replace=True keeps this script re-runnable in a live session.


@register_selection("ETC", replace=True)
def build_etc(scenario, rng_factory):
    return [ExploreThenCommit(scenario.num_models) for _ in range(scenario.num_edges)]


@register_trading("Pacing", replace=True)
def build_pacing(scenario, rng_factory):
    return BudgetPacingTrader()


def main() -> None:
    config = ScenarioConfig(dataset="synthetic", num_edges=10, horizon=160)
    scenario = build_scenario(config)

    # Once registered, custom names compose with builtin ones freely.  The
    # same seed gives every combination identical scenario randomness.
    contenders = {
        "Ours (paper)": ("Ours", "Ours"),
        "ETC + Pacing": ("ETC", "Pacing"),
        "ETC + Ours": ("ETC", "Ours"),
    }

    rows = []
    for label, (selection, trading) in contenders.items():
        result = repro.run(
            scenario, selection=selection, trading=trading, seed=7, label=label
        )
        s = summarize_run(result, config.weights)
        rows.append(
            [label, s.total_cost, s.switching_cost, s.trading_cost, s.final_fit, s.mean_accuracy]
        )
    print(
        format_table(
            ["policy", "total", "switching", "trading", "fit (kg)", "accuracy"],
            rows,
            title="Custom policies vs the paper's algorithms (same scenario & randomness)",
            precision=1,
        )
    )
    print(
        "\nOn this easy stochastic instance ETC can win: with large, stable loss\n"
        "gaps, exploring each model three slots and committing is near-optimal.\n"
        "The paper's block Tsallis-INF pays more exploration up front but keeps\n"
        "a worst-case guarantee: it cannot be locked onto a bad model by a few\n"
        "lucky samples or by drifting losses, which is exactly where ETC fails.\n"
        "Pacing stays neutral but buys at the average price; Algorithm 2 buys\n"
        "below it. Swap in your own policy with one @register_* decorator."
    )


if __name__ == "__main__":
    main()
