"""The edge side of a serve run: Algorithm 1 over one slot loop per shard.

* :func:`build_serve_kernels` is the determinism seam: any process that
  calls it with an equal config holds bit-identical scenario, adapters and
  slot kernels;
* one **slot loop** (:func:`serve_edges`) owns every edge of one shard as
  a single task.  Each round it draws the released and due slots from the
  edges' stream adapters into bounded per-edge work queues (blocking or
  shedding on backpressure), steps the oldest queued slot of every edge in
  edge order through its :class:`~repro.sim.kernel.EdgeSlotKernel` (the
  Algorithm-1 select/observe loop), and hands the slot's
  :class:`SlotBatch` to a callback.

Edges couple only through the trading ledger, so serving one slot is a
barrier: step every edge, fold in edge order, trade once.  The fold, the
trade (Algorithm 2) and the release schedule live in the parent,
:class:`~repro.serve.shard.ServeRuntime`, which runs this loop either on
its own event loop (a local shard) or inside each worker process, and
receives every batch in its fold.

Determinism: the kernels, RNG stream layout, and aggregation order are the
simulator's own (``Simulator.build_kernels``).  Under a virtual clock the
release depth is one slot — the lockstep schedule — so a serve run is
bit-identical to ``Simulator.run`` and is locked against the same golden
digests.  Wall-clock mode trades that lockstep for pipelining (up to
``pipeline_depth`` slots in flight) and optional shedding.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from typing import Awaitable, Callable, Mapping, Sequence

from repro.faults.plan import FaultPlan
from repro.obs.events import ArrivalEvent, QueueShedEvent
from repro.obs.tracer import Tracer
from repro.serve.adapters import StreamAdapter, make_adapters
from repro.serve.clock import SlotClock
from repro.serve.config import ServeConfig
from repro.serve.load import make_load_grid
from repro.serve.queues import BoundedWorkQueue, WorkItem
from repro.sim.kernel import (
    EdgeSlotKernel,
    EdgeSlotOutcome,
    SlotAggregator,
    TradingSlotKernel,
)
from repro.sim.scenario import Scenario, build_scenario
from repro.sim.simulator import Simulator
from repro.sim.vector import batch_block_opens
from repro.spec import RunSpec

__all__ = [
    "SlotAggregator",
    "SlotBatch",
    "build_serve_kernels",
    "serve_edges",
]


def build_serve_kernels(
    config: ServeConfig,
    *,
    tracer: Tracer | None = None,
    faults: FaultPlan | None = None,
) -> tuple[Scenario, list[StreamAdapter], list[EdgeSlotKernel], TradingSlotKernel]:
    """Materialize one serve run's scenario, adapters, and slot kernels.

    This is the determinism seam shared by the parent runtime and every
    worker process: kernels and RNG streams are a pure function of the
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
    2. solve the slot's coinciding Algorithm-1 block opens in one batch
       (:func:`~repro.sim.vector.batch_block_opens`), then step the oldest
       queued slot (every edge holds the same one) of each edge in edge
       order — opening its block right before its step — and deliver the
       labels that came due;
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
        opens = batch_block_opens(t, [kernels[e].policy for e in edges])
        for position, e in enumerate(edges):
            kernel = kernels[e]
            item = queues[e].get()
            dequeued = loop.time()
            if position in opens:
                block, row = opens[position]
                kernel.policy.open_block_with(block, t, row, validated=True)
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
