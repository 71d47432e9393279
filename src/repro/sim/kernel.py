"""Shared slot kernels: the exact per-slot logic of the control loop.

The per-edge inference step (Algorithm 1's select/observe cycle plus fault
handling) and the system-level trading step (Algorithm 2's decide/observe
cycle plus the ledger/market bookkeeping) live here as small stateful
kernels.  :class:`~repro.sim.simulator.Simulator` drives them in a lockstep
loop; :mod:`repro.serve` drives the same kernels from one slot loop per
shard (:func:`~repro.serve.runtime.serve_edges`).

Every engine ends a slot the same way — sum the outcomes in edge order,
then trade once — so that fold lives here exactly once, in
:class:`SlotAggregator`, which also assembles the
:class:`~repro.sim.results.SimulationResult`.  Because every runtime
executes the *same* code in the same floating-point operation order, the
serve runtime's virtual-clock mode is bit-identical to ``Simulator.run``
by construction (locked by the golden digests).

State is explicit: each kernel exposes ``state_dict()`` / ``load_state()``
so a serve snapshot can capture a quiescent slot boundary and a restored
process can resume mid-horizon without replaying.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.injector import FaultInjector
from repro.market.ledger import AllowanceLedger
from repro.market.market import CarbonMarket
from repro.nn.losses import squared_label_loss
from repro.obs.events import (
    FaultInjectedEvent,
    FeedbackLostEvent,
    ModelSwitchEvent,
    RetryEvent,
    TradeRejectedEvent,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.policies.selection import SelectionPolicy
from repro.policies.trading import TradeDecision, TradingContext, TradingPolicy
from repro.sim.results import SimulationResult
from repro.sim.scenario import Scenario

__all__ = [
    "EdgeSlotKernel",
    "EdgeSlotOutcome",
    "SlotAggregator",
    "TradingSlotKernel",
    "class_index_map",
    "draw_pool_indices",
    "zero_cost_outcome",
]


def class_index_map(scenario: Scenario) -> list[np.ndarray] | None:
    """Pool indices per class, when per-edge class mixes are in force."""
    weights = scenario.edge_class_weights  # (I, K) per-edge class mix
    if weights is None:
        return None
    labels = scenario.y_pool
    assert labels is not None  # enforced by Scenario validation
    return [np.nonzero(labels == k)[0] for k in range(weights.shape[1])]


def draw_pool_indices(
    scenario: Scenario,
    edge: int,
    count: int,
    rng: np.random.Generator,
    pool_size: int,
    class_indices: list[np.ndarray] | None,
) -> np.ndarray:
    """IID pool indices for one edge-slot.

    Uniform over the pool (the paper's single distribution D), or a
    two-stage draw — class by the edge's mix, then a uniform member of
    that class — under per-edge heterogeneity.
    """
    if class_indices is None:
        return rng.integers(0, pool_size, size=count)
    weights = scenario.edge_class_weights[edge]  # (K,) this edge's class mix
    classes = rng.choice(weights.size, size=count, p=weights)
    idx = np.empty(count, dtype=int)
    for k in np.unique(classes):
        members = class_indices[k]
        if members.size == 0:
            raise ValueError(f"class {k} has no pool members to sample")
        mask = classes == k
        idx[mask] = members[rng.integers(0, members.size, size=int(mask.sum()))]
    return idx


@dataclass(frozen=True)
class EdgeSlotOutcome:
    """What one edge contributed to one slot.

    ``arrivals`` is the raw workload offered to the edge; ``served`` is what
    actually ran inference (zero when the slot was shed under backpressure
    or dropped by an edge outage).  All cost fields are zero for shed or
    offline slots, mirroring the simulator's accounting.
    """

    t: int
    edge: int
    model: int
    switched: bool
    offline: bool
    shed: bool
    expected_loss: float
    slot_loss: float
    latency: float
    switch_cost: float
    emissions_kg: float
    correct: float
    arrivals: int
    served: int


def zero_cost_outcome(
    t: int, edge: int, model: int, arrivals: int = 0, *, shed: bool = False
) -> EdgeSlotOutcome:
    """The outcome of a slot in which ``edge`` ran nothing.

    ``shed=True`` marks a backpressure-shed slot, otherwise the slot is
    offline (edge outage, restart replay, dead shard, or an edge
    reconfigured out).  Either way ``arrivals`` are counted but none is
    served, so ``in == served + shed + offline`` stays exact, and every
    cost is zero.
    """
    return EdgeSlotOutcome(
        t=t,
        edge=edge,
        model=int(model),
        switched=False,
        offline=not shed,
        shed=shed,
        expected_loss=0.0,
        slot_loss=0.0,
        latency=0.0,
        switch_cost=0.0,
        emissions_kg=0.0,
        correct=0.0,
        arrivals=int(arrivals),
        served=0,
    )


class EdgeSlotKernel:
    """One edge's slot step: select, resolve downloads, infer, feed back.

    Owns everything the simulator used to keep per edge — the selection
    policy, the data-draw RNG stream, download-retry state, and the delayed
    feedback queue — so the simulator loop and the serve slot loop execute
    identical logic.
    """

    def __init__(
        self,
        scenario: Scenario,
        policy: SelectionPolicy,
        edge: int,
        *,
        data_rng: np.random.Generator,
        class_indices: list[np.ndarray] | None = None,
        injector: FaultInjector | None = None,
        tracer: Tracer | None = None,
        label_delay: int = 0,
        live_inference: bool = False,
    ) -> None:
        self.scenario = scenario
        self.policy = policy
        self.edge = int(edge)
        self.data_rng = data_rng
        self.class_indices = class_indices
        self.injector = injector
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.label_delay = label_delay
        self.live_inference = live_inference
        self.pool_size = scenario.profiles[0].pool_size
        self.switch_cost = float(scenario.effective_switch_costs()[edge])
        # Per-model expected loss, built once: the profile property averages
        # the whole data pool on every read.
        self.expected_losses = scenario.expected_losses.tolist()
        self.previous_model = -1
        self.retry_wait = 0
        self.retry_backoff = 0
        self.retry_attempts = 0
        # Delayed label feedback (paper Step 2.3): (slot, model, loss) of
        # observations still in flight when ``label_delay > 0``.
        self.pending_feedback: list[tuple[int, int, float]] = []

    def step(
        self,
        t: int,
        count: int,
        indices: np.ndarray | None = None,
        shed: bool = False,
    ) -> EdgeSlotOutcome:
        """Execute slot ``t`` with ``count`` arrivals; return the outcome.

        ``indices`` lets a stream adapter pre-draw the slot's pool indices
        (from the same ``data-<edge>`` stream, so parity holds either way).
        ``shed=True`` records a backpressure-shed slot: the policy still
        advances its block schedule via ``observe_lost``, but nothing runs.
        """
        policy = self.policy
        tracer = self.tracer
        tracing = tracer.enabled
        model = policy.select(t)

        if shed:
            # The payload was dropped at the queue; keep Algorithm 1's block
            # accounting consistent by routing the slot through the lost-
            # feedback path (blocks must still close on schedule).
            policy.observe_lost(t, model)
            return zero_cost_outcome(t, self.edge, model, count, shed=True)

        injector = self.injector
        if injector is not None and injector.edge_offline(t, self.edge):
            # Edge down: draw the slot's sample indices anyway so RNG
            # streams stay aligned with the unfaulted run, then drop the
            # workload unserved — no inference, no emissions, no feedback.
            if indices is None:
                draw_pool_indices(
                    self.scenario, self.edge, count, self.data_rng,
                    self.pool_size, self.class_indices,
                )
            policy.observe_lost(t, model)
            if tracing:
                tracer.emit(
                    FaultInjectedEvent(t=t, kind="edge_outage", edge=self.edge)
                )
            return zero_cost_outcome(t, self.edge, model, count)

        # Resolve which model actually serves this slot: a switch requires a
        # download, which fault plans can fail — the edge then keeps its
        # hosted model and retries under capped exponential backoff.
        # Initial provisioning never fails.
        hosted = self.previous_model
        serve = model
        if injector is not None and hosted >= 0 and model != hosted:
            if self.retry_wait > 0:
                self.retry_wait -= 1
                serve = hosted
            elif injector.download_failed(t, self.edge):
                self.retry_attempts += 1
                cap = injector.backoff_cap(t, self.edge)
                self.retry_backoff = min(max(2 * self.retry_backoff, 1), cap)
                self.retry_wait = self.retry_backoff
                serve = hosted
                if tracing:
                    tracer.emit(
                        FaultInjectedEvent(
                            t=t, kind="download_failure", edge=self.edge
                        )
                    )
                    tracer.emit(
                        RetryEvent(
                            t=t,
                            edge=self.edge,
                            hosted_model=hosted,
                            target_model=int(model),
                            attempt=self.retry_attempts,
                            backoff_slots=self.retry_backoff,
                        )
                    )
        if injector is not None and serve == model:
            self.retry_wait = 0
            self.retry_backoff = 0
            self.retry_attempts = 0

        switched = bool(serve != self.previous_model)
        if switched and tracing:
            tracer.emit(
                ModelSwitchEvent(
                    t=t,
                    edge=self.edge,
                    previous_model=self.previous_model,
                    model=int(serve),
                    switch_cost=self.switch_cost,
                )
            )
        self.previous_model = int(serve)

        if indices is None:
            idx = draw_pool_indices(
                self.scenario, self.edge, count, self.data_rng,
                self.pool_size, self.class_indices,
            )
        else:
            idx = indices
        profile = self.scenario.profiles[serve]
        losses = self._sample_losses(profile, idx)
        # np.add.reduce is the pairwise sum inside ndarray.mean (bit-identical)
        # without its Python wrapper layers.
        slot_loss = float(np.add.reduce(losses) / losses.size) if idx.size else 0.0
        latency = float(self.scenario.latencies[self.edge, serve])
        if serve != model:
            # The chosen model never ran, so its loss is unobservable this
            # slot (bandit feedback).
            policy.observe_lost(t, model)
        elif idx.size == 0:
            # An empty slot (e.g. ingress deferred every request) offers no
            # loss sample either.
            policy.observe_lost(t, model)
        elif injector is not None and injector.feedback_lost(t, self.edge):
            policy.observe_lost(t, model)
            if tracing:
                tracer.emit(
                    FeedbackLostEvent(t=t, edge=self.edge, model=int(model))
                )
        elif self.label_delay == 0:
            policy.observe(t, model, slot_loss + latency)
        else:
            self.pending_feedback.append((t, model, slot_loss + latency))

        emissions_kg = float(
            self.scenario.energy.slot_emissions_kg(
                self.edge, serve, count, switched
            )
        )
        return EdgeSlotOutcome(
            t=t,
            edge=self.edge,
            model=int(serve),
            switched=switched,
            offline=False,
            shed=False,
            expected_loss=self.expected_losses[serve],
            slot_loss=slot_loss,
            latency=latency,
            switch_cost=self.switch_cost if switched else 0.0,
            emissions_kg=emissions_kg,
            correct=float(profile.correct_per_sample[idx].sum()),
            arrivals=int(count),
            served=int(count),
        )

    def step_offline(self, t: int, count: int) -> EdgeSlotOutcome:
        """Execute slot ``t`` as a missed (offline) slot with real arrivals.

        The restart path of the sharded tier replays a dead worker's
        missed slots through this: the selection policy advances exactly
        as it would through an :class:`~repro.faults.plan.EdgeOutage`
        (``select`` then ``observe_lost``, keeping Algorithm 1's block
        schedule closing on time), the ``count`` arrivals are recorded as
        dropped-offline so ``in == served + shed + offline`` stays exact,
        and nothing runs — no draws, no emissions, no feedback.
        """
        model = self.policy.select(t)
        self.policy.observe_lost(t, model)
        return zero_cost_outcome(t, self.edge, model, count)

    def deliver_due(self, due_slot: int) -> None:
        """Deliver all queued slot losses whose slot is <= ``due_slot``."""
        pending = self.pending_feedback
        while pending and pending[0][0] <= due_slot:
            slot, model, loss = pending.pop(0)
            self.policy.observe(slot, model, loss)

    def _sample_losses(self, profile, idx: np.ndarray) -> np.ndarray:
        """Per-sample losses for the drawn pool indices.

        The memoized table lookup is exact; ``live_inference=True``
        recomputes the forward pass on the drawn samples for validation
        (requires the scenario to carry the shared data pool).
        """
        if self.live_inference:
            if profile.network is None:
                raise ValueError(
                    f"profile {profile.name!r} has no network for live inference"
                )
            if self.scenario.x_pool is None or self.scenario.y_pool is None:
                raise ValueError("scenario carries no data pool for live inference")
            proba = profile.network.predict_proba(self.scenario.x_pool[idx])
            return squared_label_loss(proba, self.scenario.y_pool[idx])
        return profile.loss_per_sample[idx]

    def state_dict(self) -> dict[str, object]:
        """Picklable control state (the scenario itself is reattachable)."""
        return {
            "policy": self.policy,
            "data_rng": self.data_rng,
            "previous_model": self.previous_model,
            "retry_wait": self.retry_wait,
            "retry_backoff": self.retry_backoff,
            "retry_attempts": self.retry_attempts,
            "pending_feedback": list(self.pending_feedback),
        }

    def load_state(self, state: dict[str, object]) -> None:
        """Restore control state captured by :meth:`state_dict`."""
        self.policy = state["policy"]
        self.data_rng = state["data_rng"]
        self.previous_model = int(state["previous_model"])
        self.retry_wait = int(state["retry_wait"])
        self.retry_backoff = int(state["retry_backoff"])
        self.retry_attempts = int(state["retry_attempts"])
        self.pending_feedback = list(state["pending_feedback"])


class TradingSlotKernel:
    """The system-level trading step run once per slot.

    Owns Algorithm 2's policy alongside the market and ledger, plus the
    deferred-intent state used when market faults block execution.  The
    running emissions aggregates reproduce the simulator's exact context
    arithmetic (``prev_emissions`` and the running mean are updated *after*
    the slot's decision, matching the paper's information structure).
    """

    def __init__(
        self,
        scenario: Scenario,
        policy: TradingPolicy,
        market: CarbonMarket,
        ledger: AllowanceLedger,
        *,
        injector: FaultInjector | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.scenario = scenario
        self.policy = policy
        self.market = market
        self.ledger = ledger
        self.injector = injector
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Trade intent deferred by market outages/rejections, reconciled at
        # the next executable slot (bounded by the per-slot trade bound).
        self.pending_buy = 0.0
        self.pending_sell = 0.0
        self.prev_emissions = 0.0
        self.emissions_sum = 0.0
        # Live-reconfiguration multiplier on the per-slot trade bound: the
        # bound scales with the active-fleet fraction so a half-size fleet
        # trades at half the volume cap.  Exactly 1.0 for unreconfigured
        # runs, so the fast path below keeps bit parity with the simulator.
        self.fleet_scale = 1.0

    @property
    def trade_bound(self) -> float:
        """The per-slot trade bound under the current fleet scale."""
        bound = self.scenario.trade_bound
        if self.fleet_scale == 1.0:  # noqa: RPL003 -- exact sentinel, set by assignment
            return bound
        return bound * self.fleet_scale

    def rescale_fleet(self, factor: float) -> None:
        """Apply a fleet-size change event: active count scaled by ``factor``.

        Rescales the trade bound, clips deferred intent to the new bound,
        and forwards the event to the trading policy so dual state scales
        deterministically.  ``factor == 1.0`` is an exact no-op — the
        contract behind no-op reconfiguration plans staying bit-identical
        to unreconfigured runs.
        """
        if factor <= 0.0:
            raise ValueError(f"fleet factor must be positive, got {factor}")
        if factor == 1.0:  # noqa: RPL003 -- exact sentinel no-op contract
            return
        self.fleet_scale *= factor
        bound = self.trade_bound
        self.pending_buy = min(self.pending_buy, bound)
        self.pending_sell = min(self.pending_sell, bound)
        self.policy.rescale_fleet(factor)

    def context(self, t: int) -> TradingContext:
        """The information set available to the policy at slot ``t``."""
        scenario = self.scenario
        market = self.market
        snapshot = self.ledger.snapshot()
        prev_buy = market.buy_price(t - 1) if t > 0 else market.buy_price(0)
        prev_sell = market.sell_price(t - 1) if t > 0 else market.sell_price(0)
        prev_emissions = self.prev_emissions if t > 0 else 0.0
        mean_emissions = (
            self.emissions_sum / t if t > 0 else scenario.estimated_slot_emissions()
        )
        return TradingContext(
            t=t,
            horizon=scenario.horizon,
            cap=scenario.config.carbon_cap_kg,
            buy_price=market.buy_price(t),
            sell_price=market.sell_price(t),
            prev_buy_price=prev_buy,
            prev_sell_price=prev_sell,
            prev_emissions=prev_emissions,
            cumulative_emissions=snapshot.cumulative_emissions,
            holdings=snapshot.holdings,
            mean_slot_emissions=mean_emissions,
            trade_bound=self.trade_bound,
        )

    def step(self, t: int, slot_emissions: float) -> tuple[float, float, float]:
        """Decide, execute (or defer), and observe slot ``t``'s trade.

        Returns ``(bought, sold, cost)`` as realized at the market —
        all zero when a fault blocked execution.
        """
        tracer = self.tracer
        bound = self.trade_bound
        context = self.context(t)
        decision = self.policy.decide(context)
        decision = TradeDecision(
            buy=min(max(decision.buy, 0.0), bound),
            sell=min(max(decision.sell, 0.0), bound),
        )
        injector = self.injector
        if injector is not None and injector.trade_blocked(t):
            # Market unreachable or order bounced: nothing executes, the
            # ledger records realized (zero) volumes, and the intent carries
            # over — bounded by the per-slot trade bound, so long outages
            # shed excess rather than accumulate it.  The dual update sees
            # only the realized trade.
            self.pending_buy = min(self.pending_buy + decision.buy, bound)
            self.pending_sell = min(self.pending_sell + decision.sell, bound)
            self.ledger.record_rejection(decision.buy, decision.sell)
            self.ledger.record(slot_emissions, 0.0, 0.0)
            self.policy.observe(
                context, TradeDecision(buy=0.0, sell=0.0), slot_emissions
            )
            if tracer.enabled:
                tracer.emit(
                    TradeRejectedEvent(
                        t=t,
                        buy=decision.buy,
                        sell=decision.sell,
                        pending_buy=self.pending_buy,
                        pending_sell=self.pending_sell,
                    )
                )
            realized = (0.0, 0.0, 0.0)
        else:
            if self.pending_buy > 0.0 or self.pending_sell > 0.0:
                executed = TradeDecision(
                    buy=min(decision.buy + self.pending_buy, bound),
                    sell=min(decision.sell + self.pending_sell, bound),
                )
                self.pending_buy = 0.0
                self.pending_sell = 0.0
            else:
                executed = decision
            trade = self.market.execute(t, executed.buy, executed.sell)
            self.ledger.record(slot_emissions, executed.buy, executed.sell)
            self.policy.observe(context, executed, slot_emissions)
            realized = (trade.bought, trade.sold, trade.cost)
        self.emissions_sum += slot_emissions
        self.prev_emissions = float(slot_emissions)
        return realized

    def state_dict(self) -> dict[str, object]:
        """Picklable control state (the scenario itself is reattachable)."""
        return {
            "policy": self.policy,
            "market": self.market,
            "ledger": self.ledger,
            "pending_buy": self.pending_buy,
            "pending_sell": self.pending_sell,
            "prev_emissions": self.prev_emissions,
            "emissions_sum": self.emissions_sum,
            "fleet_scale": self.fleet_scale,
        }

    def load_state(self, state: dict[str, object]) -> None:
        """Restore control state captured by :meth:`state_dict`."""
        self.policy = state["policy"]
        self.market = state["market"]
        self.ledger = state["ledger"]
        self.pending_buy = float(state["pending_buy"])
        self.pending_sell = float(state["pending_sell"])
        self.prev_emissions = float(state["prev_emissions"])
        self.emissions_sum = float(state["emissions_sum"])
        # Absent in snapshots written before live reconfiguration existed.
        self.fleet_scale = float(state.get("fleet_scale", 1.0))


class SlotAggregator:
    """The one slot fold: edge-order sums into result arrays, then the trade.

    Edges couple only through Algorithm 2's per-slot trade on the summed
    emissions, so every engine ends a slot the same way: sum the slot's
    outcomes in global edge order (the float-summation order the golden
    digests pin), then step the trading kernel once.  The scalar simulator
    loop, the in-process serve runtime and the sharded parent all call
    :meth:`fold`; the vectorized fast path fills :attr:`arrays` in place
    with the same per-slot addition sequence.  Also holds the arrays'
    snapshot/restore halves and the one :class:`SimulationResult` assembly.
    """

    def __init__(self, scenario: Scenario, trading_kernel: TradingSlotKernel) -> None:
        self.scenario = scenario
        self.trading_kernel = trading_kernel
        horizon, num_edges = scenario.horizon, scenario.num_edges
        self.arrays: dict[str, np.ndarray] = {
            "expected_inference": np.zeros(horizon),
            "realized_loss": np.zeros(horizon),
            "compute_cost": np.zeros(horizon),
            "switching_cost": np.zeros(horizon),
            "emissions": np.zeros(horizon),
            "bought": np.zeros(horizon),
            "sold": np.zeros(horizon),
            "trading_cost": np.zeros(horizon),
            "arrivals_total": np.zeros(horizon),
            "accuracy": np.zeros(horizon),
            "selections": np.zeros((horizon, num_edges), dtype=int),
            "switches": np.zeros((horizon, num_edges), dtype=bool),
        }

    def fold(self, t: int, outcomes: list[EdgeSlotOutcome]) -> None:
        """Fold slot ``t``'s outcomes (one per edge, edge order) and trade once.

        Sums run as Python floats from ``0.0``, the same IEEE additions in
        the same order as accumulating into the zeroed slot cells.
        """
        arrays = self.arrays
        expected = realized = compute = switching = 0.0
        slot_emissions = slot_correct = 0.0
        slot_arrivals = 0
        for outcome in outcomes:
            if outcome.offline:
                continue
            expected += outcome.expected_loss
            realized += outcome.slot_loss
            compute += outcome.latency
            if outcome.switched:
                switching += outcome.switch_cost
            slot_emissions += outcome.emissions_kg
            slot_correct += outcome.correct
            slot_arrivals += outcome.served
        arrays["selections"][t] = [outcome.model for outcome in outcomes]
        arrays["switches"][t] = [outcome.switched for outcome in outcomes]
        arrays["expected_inference"][t] = expected
        arrays["realized_loss"][t] = realized
        arrays["compute_cost"][t] = compute
        arrays["switching_cost"][t] = switching
        arrays["emissions"][t] = slot_emissions
        arrays["arrivals_total"][t] = slot_arrivals
        arrays["accuracy"][t] = (
            slot_correct / slot_arrivals if slot_arrivals else np.nan
        )
        (
            arrays["bought"][t],
            arrays["sold"][t],
            arrays["trading_cost"][t],
        ) = self.trading_kernel.step(t, slot_emissions)

    def partial_arrays(self, next_slot: int) -> dict[str, np.ndarray]:
        """Snapshot copies of the arrays' completed prefix."""
        return {
            name: array[:next_slot].copy()
            for name, array in self.arrays.items()
        }

    def load_arrays(self, saved: dict[str, np.ndarray]) -> None:
        """Restore the completed prefix captured by :meth:`partial_arrays`."""
        for name, prefix in saved.items():
            self.arrays[name][: len(prefix)] = prefix

    def result(self, label: str) -> SimulationResult:
        """Assemble the completed run's :class:`SimulationResult`."""
        scenario, arrays = self.scenario, self.arrays
        return SimulationResult(
            label=label,
            horizon=scenario.horizon,
            num_edges=scenario.num_edges,
            carbon_cap=scenario.config.carbon_cap_kg,
            expected_inference_cost=arrays["expected_inference"],
            realized_inference_loss=arrays["realized_loss"],
            compute_cost=arrays["compute_cost"],
            switching_cost=arrays["switching_cost"],
            emissions=arrays["emissions"],
            bought=arrays["bought"],
            sold=arrays["sold"],
            trading_cost=arrays["trading_cost"],
            buy_prices=scenario.prices.buy.copy(),
            sell_prices=scenario.prices.sell.copy(),
            arrivals=arrays["arrivals_total"],
            accuracy=arrays["accuracy"],
            selections=arrays["selections"],
            switches=arrays["switches"],
        )
