"""Run orchestration shared by all experiments.

Policy construction is delegated to the :mod:`repro.policies` registry
(``make_selection_policies`` / ``make_trading_policy`` are re-exported here
for backward compatibility, as are the ``SELECTION_NAMES`` /
``TRADING_NAMES`` views).  What remains in this module is run orchestration:
one combination (:func:`run_combo`), seed sweeps (:func:`run_many`), the
paper's two-pass offline reference (:func:`run_offline`), and the
one-knob cost sweep behind Figs. 4-7 (:func:`run_cost_sweep`).

Seed sweeps route through :class:`~repro.experiments.engine.SweepEngine`:
pass one explicitly, or configure the process-wide default (see
:func:`repro.experiments.engine.use_engine`) to parallelize and cache every
figure experiment at once.  The default engine is serial and uncached, so
``run_many`` without an engine behaves exactly as it always has.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.experiments.settings import default_config
from repro.faults.plan import FaultPlan
from repro.metrics.summary import summarize_many
from repro.obs.tracer import Tracer
from repro.offline import (
    FixedSelection,
    NullTrading,
    PrecomputedTrading,
    best_fixed_models,
    solve_offline_trading,
)
from repro.policies import (
    SELECTION_NAMES,
    TRADING_NAMES,
    make_selection_policies,
    make_trading_policy,
)
from repro.sim.results import SimulationResult
from repro.sim.scenario import Scenario, build_scenario
from repro.sim.simulator import Simulator
from repro.spec import RunSpec

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.experiments.engine import SweepEngine

__all__ = [
    "SELECTION_NAMES",
    "TRADING_NAMES",
    "make_selection_policies",
    "make_trading_policy",
    "run_combo",
    "run_cost_sweep",
    "run_many",
    "run_offline",
    "run_offline_many",
]


def run_combo(
    scenario: Scenario,
    selection: str,
    trading: str,
    seed: int,
    label: str | None = None,
    tracer: Tracer | None = None,
    faults: FaultPlan | None = None,
) -> SimulationResult:
    """Simulate one (selection, trading) combination on ``scenario``."""
    spec = RunSpec(
        selection=selection,
        trading=trading,
        seed=seed,
        label=label,
        faults=faults if faults is not None else FaultPlan(),
    )
    return Simulator.from_spec(scenario, spec, tracer=tracer).run()


def run_many(
    scenario: Scenario,
    selection: str,
    trading: str,
    seeds: list[int],
    label: str | None = None,
    engine: "SweepEngine | None" = None,
) -> list[SimulationResult]:
    """Run a combination once per seed (common random numbers per seed).

    Execution goes through ``engine`` (default: the process-wide default
    engine — serial and uncached unless reconfigured), so callers get
    parallelism and result caching without changing this call site.  The
    returned list aligns with ``seeds`` and is bit-identical across worker
    counts and cache hits.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    from repro.experiments.engine import get_default_engine

    if engine is None:
        engine = get_default_engine()
    specs = [
        RunSpec(selection=selection, trading=trading, seed=int(s), label=label)
        for s in seeds
    ]
    return engine.run_specs(scenario, specs)


def run_offline(
    scenario: Scenario, seed: int, faults: FaultPlan | None = None
) -> SimulationResult:
    """The paper's "Offline" reference.

    Pass 1 fixes the posterior-best model per edge and records emissions
    with no trading; the offline trading LP is solved exactly on those
    emissions; pass 2 replays the same run with the optimal trade plan.
    Both passes share the seed, so arrivals and data draws are identical.
    When a fault plan is given, both passes run under it — the offline
    reference then bounds what clairvoyant trading achieves on the same
    degraded infrastructure.
    """
    models = best_fixed_models(scenario.expected_losses, scenario.latencies)
    selection = [FixedSelection(scenario.num_models, int(m)) for m in models]
    pass1 = Simulator(
        scenario,
        selection,
        NullTrading(),
        run_seed=seed,
        label="Offline-pass1",
        faults=faults,
    ).run()
    plan = solve_offline_trading(
        pass1.emissions,
        scenario.prices,
        scenario.config.carbon_cap_kg,
        scenario.trade_bound,
    )
    selection = [FixedSelection(scenario.num_models, int(m)) for m in models]
    return Simulator(
        scenario,
        selection,
        PrecomputedTrading(plan.buy, plan.sell),
        run_seed=seed,
        label="Offline",
        faults=faults,
    ).run()


def run_offline_many(
    scenario: Scenario,
    seeds: list[int],
    engine: "SweepEngine | None" = None,
) -> list[SimulationResult]:
    """Run the "Offline" reference once per seed, through the sweep engine.

    The engine treats each seed as an ``offline`` cell, so offline reference
    runs get the same parallelism, result caching, and checkpointing as the
    online combinations (they used to be the serial tail of every figure).
    """
    if not seeds:
        raise ValueError("need at least one seed")
    from repro.experiments.engine import get_default_engine

    if engine is None:
        engine = get_default_engine()
    return engine.run_offline_many(scenario, seeds)


def run_cost_sweep(
    fast: bool,
    knob: str,
    values: Sequence[float],
    seeds: list[int],
    combos: Sequence[tuple[str, str]],
    engine: "SweepEngine | None" = None,
) -> dict[str, list[float]]:
    """Mean total cost of Ours, each ``(selection, trading)`` combo
    (``"<sel>-<trade>"``) and Offline over ``seeds``, at each value of one
    ``default_config`` knob."""
    runs = [("Ours", "Ours", "Ours")] + [(s, t, f"{s}-{t}") for s, t in combos]
    costs: dict[str, list[float]] = {label: [] for *_, label in runs}
    costs["Offline"] = []
    for value in values:
        config = default_config(fast, **{knob: value})
        scenario = build_scenario(config)
        for selection, trading, label in runs:
            results = run_many(
                scenario, selection, trading, seeds, label=label, engine=engine
            )
            costs[label].append(summarize_many(results, config.weights).total_cost)
        offline = run_offline_many(scenario, seeds, engine=engine)
        costs["Offline"].append(
            summarize_many(offline, config.weights, label="Offline").total_cost
        )
    return costs
