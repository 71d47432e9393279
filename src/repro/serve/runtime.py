"""The asyncio edge-fleet runtime: Algorithms 1 + 2 over one slot loop.

Topology (one run):

* one **slot loop** (:func:`serve_edges`) owns every edge of the fleet —
  or of one shard — as a single task.  Each round it draws the released
  and due slots from the edges' stream adapters into bounded per-edge work
  queues (blocking or shedding on backpressure), steps the oldest queued
  slot of every edge in edge order through its
  :class:`~repro.sim.kernel.EdgeSlotKernel` (the Algorithm-1
  select/observe loop), and hands the slot's batch to a callback;
* the callback **folds** the batch through the simulator's own
  :class:`~repro.sim.kernel.SlotAggregator` (edge-order sums, then one
  :class:`~repro.sim.kernel.TradingSlotKernel` step: Algorithm 2 + market
  + ledger), persists snapshots at quiescent slot boundaries, and releases
  further slots on the configured clock.

Edges couple only through the trading ledger, so serving one slot is a
barrier: step every edge, fold in edge order, trade once.  The sharded
tier (:mod:`repro.serve.shard`) runs the same loop inside each worker
process and folds in the parent.

Determinism: the kernels, RNG stream layout, and aggregation order are the
simulator's own (``Simulator.build_kernels``).  Under a virtual clock the
release depth is one slot — the lockstep schedule — so a serve run is
bit-identical to ``Simulator.run`` and is locked against the same golden
digests.  Wall-clock mode trades that lockstep for pipelining (up to
``pipeline_depth`` slots in flight) and optional shedding.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Awaitable, Callable, Mapping, Sequence

from repro.faults.plan import FaultPlan
from repro.obs.events import ArrivalEvent, QueueShedEvent, SlotStartEvent, SnapshotEvent
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.serve.adapters import StreamAdapter, make_adapters
from repro.serve.clock import SlotClock, VirtualClock, WallClock, release_target
from repro.serve.config import ServeConfig
from repro.serve.http import StatusServer
from repro.serve.load import make_load_grid
from repro.serve.queues import BoundedWorkQueue, WorkItem
from repro.serve.snapshot import load_snapshot, save_snapshot
from repro.sim.kernel import (
    EdgeSlotKernel,
    EdgeSlotOutcome,
    SlotAggregator,
    TradingSlotKernel,
)
from repro.sim.results import SimulationResult
from repro.sim.scenario import Scenario, build_scenario
from repro.sim.simulator import Simulator
from repro.spec import RunSpec

__all__ = [
    "ServeRuntime",
    "SlotAggregator",
    "SlotBatch",
    "build_serve_kernels",
    "serve_edges",
    "serve_run",
]

def build_serve_kernels(
    config: ServeConfig,
    *,
    tracer: Tracer | None = None,
    faults: FaultPlan | None = None,
) -> tuple[Scenario, list[StreamAdapter], list[EdgeSlotKernel], TradingSlotKernel]:
    """Materialize one serve run's scenario, adapters, and slot kernels.

    This is the determinism seam shared by the in-process runtime and every
    sharded worker: kernels and RNG streams are a pure function of the
    config (streams are keyed by *name*, not creation order), so any
    process that calls this with an equal config holds bit-identical
    kernels.  A shard worker steps only its own edges; the untouched rest
    cost nothing because streams draw lazily.
    """
    scenario = build_scenario(config.scenario)
    spec = RunSpec(
        selection=config.selection,
        trading=config.trading,
        seed=config.seed,
        label=config.effective_label,
        label_delay=config.label_delay,
        faults=faults if faults is not None else FaultPlan(),
    )
    sim = Simulator.from_spec(scenario, spec, tracer=tracer)
    arrivals, edge_kernels, trading_kernel = sim.build_kernels()
    load_counts = None
    if config.adapter == "shape":
        load_counts = make_load_grid(
            config.shape,
            horizon=scenario.horizon,
            num_edges=scenario.num_edges,
            total_events=config.shape_total_events,
            seed=config.shape_seed,
        )
    adapters = make_adapters(
        config.adapter,
        scenario,
        arrivals,
        edge_kernels,
        replay_log=config.replay_log,
        load_counts=load_counts,
    )
    ingress = config.ingress_config()
    if ingress is not None:
        # Lazy import: repro.ingress eagerly imports repro.serve
        # submodules, and repro.serve.__init__ imports this module.
        from repro.ingress.adapter import wrap_with_ingress

        adapters = wrap_with_ingress(
            adapters,
            config=ingress,
            scenario=scenario,
            seed=config.seed,
            tracer=tracer,
        )
    return scenario, adapters, edge_kernels, trading_kernel


@dataclass
class SlotBatch:
    """One slot's results for a set of edges, in edge order.

    ``queue_s`` holds each edge's draw-to-dequeue wait (a draw held back
    by ``block`` backpressure waits too) and ``serve_s`` its kernel step,
    both in seconds.  ``ingress`` maps edge to its resolved request stats
    when an ingress tier is mounted, else ``None``.
    """

    t: int
    outcomes: list[EdgeSlotOutcome]
    queue_s: list[float]
    serve_s: list[float]
    ingress: dict[int, dict[str, object]] | None


async def serve_edges(
    edges: Sequence[int],
    *,
    adapters: Sequence[StreamAdapter],
    kernels: Sequence[EdgeSlotKernel],
    queues: Sequence[BoundedWorkQueue] | Mapping[int, BoundedWorkQueue],
    clock: SlotClock,
    config: ServeConfig,
    tracer: Tracer,
    start: int,
    stop: int,
    on_slot: Callable[[SlotBatch], Awaitable[None]],
) -> None:
    """Serve slots ``[start, stop)`` of ``edges`` as one task.

    ``adapters``, ``kernels`` and ``queues`` are indexed by edge id and
    read on every use, so a swapped adapter takes effect mid-run.  Each
    round:

    1. draw every released and due slot for every edge into its bounded
       queue — under ``shed`` an item that does not fit becomes a
       zero-weight shed marker; under ``block`` it is held back, and no
       later slot is drawn, until stepping frees room;
    2. step the oldest queued slot (every edge holds the same one) of each
       edge in edge order and deliver the labels that came due;
    3. resolve ingress and await ``on_slot`` with the slot's batch.

    The loop waits — on the clock — only when the next slot is not queued
    yet, and yields to the event loop once per slot so pipe and HTTP
    tasks keep running.
    """
    loop = asyncio.get_running_loop()
    shed_mode = config.backpressure == "shed"
    delay = config.label_delay
    has_ingress = config.ingress is not None
    stamps = {e: deque() for e in edges}
    held: dict[int, tuple[WorkItem, float]] = {}
    drawn = start  # every edge has drawn the slots below this
    for t in range(start, stop):
        while drawn < stop and not held:
            if drawn > t and (drawn > clock.released or not clock.due(drawn)):
                break
            await clock.wait_for_slot(drawn)
            await clock.pace(drawn)
            now = loop.time()
            for e in edges:
                item = adapters[e].next_item(drawn)
                if tracer.enabled:
                    tracer.emit(ArrivalEvent(t=drawn, edge=e, count=item.count))
                queue = queues[e]
                if not shed_mode and not queue.fits(item):
                    held[e] = (item, now)
                    continue
                if not queue.put(item):
                    if tracer.enabled:
                        tracer.emit(
                            QueueShedEvent(t=drawn, edge=e, count=item.count)
                        )
                    queue.put(WorkItem(t=drawn, count=item.count, shed=True))
                stamps[e].append(now)
            drawn += 1

        outcomes: list[EdgeSlotOutcome] = []
        queue_s: list[float] = []
        serve_s: list[float] = []
        for e in edges:
            kernel = kernels[e]
            item = queues[e].get()
            dequeued = loop.time()
            outcomes.append(
                kernel.step(item.t, item.count, indices=item.indices, shed=item.shed)
            )
            queue_s.append(dequeued - stamps[e].popleft())
            serve_s.append(loop.time() - dequeued)
            if delay:
                kernel.deliver_due(t - delay)
        for e, (item, at) in list(held.items()):
            if queues[e].fits(item):
                queues[e].put(item)
                stamps[e].append(at)
                del held[e]

        ingress = None
        if has_ingress:
            ingress = {
                e: adapters[e].resolve_slot(outcome)
                for e, outcome in zip(edges, outcomes)
            }
        await on_slot(SlotBatch(t, outcomes, queue_s, serve_s, ingress))
        await asyncio.sleep(0)
    if delay and stop == config.scenario.horizon:
        for e in edges:
            kernels[e].deliver_due(stop)


class _BaseRuntime:
    """Parent-side bookkeeping shared by both serving runtimes.

    Holds the scenario, the trading kernel, the :class:`SlotAggregator`
    and the counters; counts each folded outcome (``in == served + shed +
    offline``), merges ingress request stats, restores snapshots, and
    serves the ``/metrics`` payload and the final result.
    """

    def __init__(
        self,
        config: ServeConfig,
        scenario: Scenario,
        trading_kernel: TradingSlotKernel,
        *,
        tracer: Tracer | None,
    ) -> None:
        self.config = config
        self.label = config.effective_label
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._rebind_tracer = tracer is not None
        self.scenario = scenario
        self.trading_kernel = trading_kernel
        self.horizon = self.scenario.horizon
        self.num_edges = self.scenario.num_edges
        self.aggregator = SlotAggregator(self.scenario, self.trading_kernel)
        self.completed_slot = -1
        counter = self.tracer.counter
        self._events_in = counter("serve/events_in")
        self._events_served = counter("serve/events_served")
        self._events_shed = counter("serve/events_shed")
        self._events_dropped_offline = counter("serve/events_dropped_offline")
        self._slots_completed = counter("serve/slots_completed")
        self._snapshots_taken = counter("serve/snapshots")
        ingress_config = config.ingress_config()
        self.ingress = None
        if ingress_config is not None:
            from repro.ingress.stats import IngressStats

            self.ingress = IngressStats(ingress_config.class_names)
            self._requests_in = counter("ingress/requests_in")
            self._requests_dropped = counter("ingress/requests_dropped")
            self._requests_deferred = counter("ingress/requests_deferred")
            self._deadline_hits = counter("ingress/deadline_hits")
            self._deadline_misses = counter("ingress/deadline_misses")

    @classmethod
    def from_snapshot(
        cls,
        path: str | Path,
        *,
        tracer: Tracer | None = None,
        faults: FaultPlan | None = None,
        **kwargs,
    ):
        """Rebuild a runtime mid-horizon from a persisted snapshot.

        Snapshots are runtime-agnostic: the same file restores into a
        :class:`ServeRuntime` or a :class:`~repro.serve.shard.ShardRuntime`
        regardless of which side wrote it.
        """
        state = load_snapshot(path)
        config = ServeConfig.from_dict(state["config"])
        runtime = cls(config, tracer=tracer, faults=faults, **kwargs)
        runtime._restore(state)
        return runtime

    def _restore(self, state: dict) -> None:
        if state["label"] != self.label:
            raise ValueError(
                f"snapshot is for run {state['label']!r}, "
                f"this runtime serves {self.label!r}"
            )
        next_slot = int(state["next_slot"])
        if not 0 <= next_slot <= self.horizon:
            raise ValueError(
                f"snapshot resumes at slot {next_slot}, "
                f"horizon is {self.horizon}"
            )
        self.trading_kernel.load_state(state["trading"])
        if self._rebind_tracer:
            self.trading_kernel.policy.bind_tracer(self.tracer)
            self.trading_kernel.market.bind_tracer(self.tracer)
            self.trading_kernel.ledger.bind_tracer(self.tracer)
        self.aggregator.load_arrays(state["arrays"])
        self.completed_slot = next_slot - 1
        self._restore_edges(state, next_slot)

    def _restore_edges(self, state: dict, next_slot: int) -> None:
        """Install the snapshot's per-edge kernel and adapter states."""
        raise NotImplementedError

    def _snapshot_state(
        self, next_slot: int, edges: list[object], adapters: list[object]
    ) -> dict[str, object]:
        """One snapshot dict: the given edge states plus the parent's own."""
        return {
            "label": self.label,
            "config": self.config.to_dict(),
            "next_slot": next_slot,
            "edges": edges,
            "adapters": adapters,
            "trading": self.trading_kernel.state_dict(),
            "arrays": self.aggregator.partial_arrays(next_slot),
        }

    def _save_snapshot(self, t: int, state: dict[str, object]) -> None:
        """Persist the snapshot taken at the boundary after slot ``t``."""
        path = self.config.snapshot_path
        assert path is not None  # enforced by ServeConfig validation
        save_snapshot(path, state)
        self._snapshots_taken.increment()
        if self.tracer.enabled:
            self.tracer.emit(SnapshotEvent(t=t, path=str(path)))

    def metrics(self) -> dict[str, object]:
        """Tracer counters/timers and event tallies for ``GET /metrics``."""
        payload: dict[str, object] = dict(self.tracer.metrics_snapshot())
        payload["events"] = self.tracer.event_counts()
        return payload

    def result(self) -> SimulationResult:
        """The completed run's records (requires the full horizon served)."""
        if self.completed_slot < self.horizon - 1:
            raise RuntimeError(
                f"run stopped after slot {self.completed_slot}; "
                f"horizon is {self.horizon} — resume it before asking for results"
            )
        return self.aggregator.result(self.label)

    def _slot_range(self, max_slots: int | None) -> tuple[int, int]:
        """The ``[start, stop)`` slots a ``run(max_slots=...)`` call serves."""
        start = self.completed_slot + 1
        stop = self.horizon
        if max_slots is not None:
            if max_slots < 1:
                raise ValueError(f"max_slots must be >= 1, got {max_slots}")
            stop = min(stop, start + max_slots)
        return start, stop

    def _finish(self, stop: int) -> SimulationResult | None:
        return self.result() if stop == self.horizon else None

    def _fold(
        self,
        t: int,
        outcomes: list[EdgeSlotOutcome],
        ingress: dict[int, dict] | None,
        observe: Callable[[str, float], None] | None = None,
    ) -> None:
        """Count, merge and fold slot ``t`` (outcomes in global edge order).

        With ``observe``, the aggregator fold is sampled as the ``trade``
        stage and ingress deferral waits as the ``deferral`` stage.
        """
        for outcome in outcomes:
            self._count(outcome)
        if self.ingress is not None and ingress:
            self._merge_ingress(ingress, observe)
        if observe is None:
            self.aggregator.fold(t, outcomes)
        else:
            fold_start = time.monotonic()
            self.aggregator.fold(t, outcomes)
            observe("trade", time.monotonic() - fold_start)
        self.completed_slot = t
        self._slots_completed.increment()

    def _count(self, outcome: EdgeSlotOutcome) -> None:
        self._events_in.increment(outcome.arrivals)
        if outcome.offline:
            self._events_dropped_offline.increment(outcome.arrivals)
        elif outcome.shed:
            self._events_shed.increment(outcome.arrivals)
        else:
            self._events_served.increment(outcome.served)

    def _merge_ingress(
        self,
        payloads: dict[int, dict],
        observe: Callable[[str, float], None] | None,
    ) -> None:
        """Fold one slot's resolved request stats, in edge order.

        Runs exactly once per folded slot.  Deferral wait samples feed
        ``observe`` in units of *slots*.
        """
        assert self.ingress is not None
        for _, payload in sorted(payloads.items()):
            self.ingress.absorb(payload)
            self._requests_in.increment(payload["in"])
            self._requests_dropped.increment(payload["dropped"])
            self._requests_deferred.increment(payload["deferred"])
            self._deadline_hits.increment(payload["hits"])
            self._deadline_misses.increment(payload["misses"])
            if observe is not None:
                for wait, count in sorted(payload["waits"].items()):
                    for _ in range(count):
                        observe("deferral", float(wait))


class ServeRuntime(_BaseRuntime):
    """One streaming serve run over a scenario's horizon, in-process.

    Construct from a :class:`ServeConfig` (the scenario is built from its
    embedded :class:`~repro.sim.config.ScenarioConfig`), or resume one from
    disk with :meth:`from_snapshot`.  :meth:`run` executes to the end of the
    horizon and returns the same :class:`SimulationResult` the simulator
    would; ``run(max_slots=k)`` stops after ``k`` completed slots (the
    "killed mid-horizon" path — state survives via snapshots).
    """

    def __init__(
        self,
        config: ServeConfig,
        *,
        tracer: Tracer | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        scenario, self.adapters, self.edge_kernels, trading_kernel = (
            build_serve_kernels(config, tracer=tracer, faults=faults)
        )
        super().__init__(config, scenario, trading_kernel, tracer=tracer)
        self.clock: SlotClock = (
            VirtualClock()
            if config.virtual_clock
            else WallClock(config.slot_duration)
        )
        self.queues = [
            BoundedWorkQueue(config.queue_capacity) for _ in range(self.num_edges)
        ]
        self.status_server: StatusServer | None = None
        #: Set once run_async has started serving (and the status server,
        #: when one is configured) — the event-driven "server is up" wait.
        self.server_ready = asyncio.Event()

    def _restore_edges(self, state: dict, next_slot: int) -> None:
        for kernel, kernel_state in zip(self.edge_kernels, state["edges"]):
            kernel.load_state(kernel_state)
        for adapter, adapter_state in zip(self.adapters, state["adapters"]):
            adapter.load_state(adapter_state)
        if self._rebind_tracer:
            for i, kernel in enumerate(self.edge_kernels):
                kernel.policy.bind_tracer(self.tracer, edge=i)

    def snapshot_state(self) -> dict[str, object]:
        """The full controller state as one picklable dict."""
        return self._snapshot_state(
            self.completed_slot + 1,
            [kernel.state_dict() for kernel in self.edge_kernels],
            [adapter.state_dict() for adapter in self.adapters],
        )

    def health(self) -> dict[str, object]:
        """Liveness payload for ``GET /healthz``."""
        done = self.completed_slot >= self.horizon - 1
        return {
            "status": "done" if done else "serving",
            "label": self.label,
            "completed_slot": self.completed_slot,
            "released_slot": self.clock.released,
            "horizon": self.horizon,
            "num_edges": self.num_edges,
            "queues": [
                {
                    "edge": i,
                    "depth_events": queue.depth_events,
                    "depth_items": queue.depth_items,
                    "peak_events": queue.stats.peak_events,
                    "rejected": queue.stats.rejected,
                }
                for i, queue in enumerate(self.queues)
            ],
        }

    def run(self, *, max_slots: int | None = None) -> SimulationResult | None:
        """Serve the horizon (or ``max_slots`` of it) on a fresh event loop.

        Returns the :class:`SimulationResult` when the horizon completed,
        ``None`` after a partial run (resume from the last snapshot).
        """
        return asyncio.run(self.run_async(max_slots=max_slots))

    async def run_async(
        self, *, max_slots: int | None = None
    ) -> SimulationResult | None:
        """Async entry point: run the slot loop over every edge."""
        start, stop = self._slot_range(max_slots)
        if start >= stop:
            return self._finish(stop)
        if self.config.health_port is not None:
            self.status_server = StatusServer(
                {"/healthz": self.health, "/metrics": self.metrics},
                port=self.config.health_port,
            )
            await self.status_server.start()
        self.server_ready.set()
        try:
            await self._release_through(self._release_target(start - 1))
            await serve_edges(
                range(self.num_edges),
                adapters=self.adapters,
                kernels=self.edge_kernels,
                queues=self.queues,
                clock=self.clock,
                config=self.config,
                tracer=self.tracer,
                start=start,
                stop=stop,
                on_slot=self._on_slot,
            )
        finally:
            if self.status_server is not None:
                await self.status_server.stop()
        return self._finish(stop)

    def _release_target(self, completed: int) -> int:
        """Furthest slot safe to release after completing ``completed``."""
        return release_target(
            completed,
            horizon=self.horizon,
            lockstep=self.config.virtual_clock,
            pipeline_depth=self.config.pipeline_depth,
            snapshot_every=self.config.snapshot_every,
        )

    async def _release_through(self, target: int) -> None:
        """Release slots up to ``target``, emitting their slot-start events."""
        tracer = self.tracer
        if tracer.enabled:
            for t in range(self.clock.released + 1, target + 1):
                tracer.emit(SlotStartEvent(t=t, horizon=self.horizon))
        await self.clock.release(target)

    async def _on_slot(self, batch: SlotBatch) -> None:
        t = batch.t
        self._fold(t, batch.outcomes, batch.ingress)
        every = self.config.snapshot_every
        if every and (t + 1) % every == 0 and t + 1 < self.horizon:
            busy = [i for i, queue in enumerate(self.queues) if queue.depth_items]
            if busy:
                raise RuntimeError(
                    f"snapshot at slot boundary {t + 1} found non-quiescent "
                    f"queues on edges {busy} — release capping is broken"
                )
            # State is captured here, at the quiescent boundary; the file
            # write runs in a thread so the status server stays responsive.
            await asyncio.to_thread(self._save_snapshot, t, self.snapshot_state())
        await self._release_through(self._release_target(t))


def serve_run(
    config: ServeConfig,
    *,
    tracer: Tracer | None = None,
    faults: FaultPlan | None = None,
    max_slots: int | None = None,
) -> SimulationResult | None:
    """One-call serve API: build a runtime, run it, return the result."""
    runtime = ServeRuntime(config, tracer=tracer, faults=faults)
    return runtime.run(max_slots=max_slots)
