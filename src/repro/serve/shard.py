"""The serving runtime: one parent over the fleet's edge shards.

Topology (one run): the parent process runs one asyncio loop that owns
everything above the edges — the :class:`~repro.sim.kernel.TradingSlotKernel`
and result arrays (one :class:`~repro.sim.kernel.SlotAggregator`), the
release schedule (one :class:`~repro.serve.clock.SlotClock`), snapshot
persistence, and the ``/healthz``/``/metrics`` server.  The edges run the
slot loop (:func:`~repro.serve.runtime.serve_edges`) in *shards*:

* a **local shard** — one worker and no chaos or reconfig plan — runs the
  whole fleet's loop on the parent loop and hands each slot's batch
  straight to the fold;
* **process shards** partition the edges contiguously across
  ``num_workers`` worker processes.  The two sides exchange
  length-prefixed pickle frames (:mod:`repro.serve.frames`) over one
  duplex pipe per worker: the parent broadcasts slot releases, workers
  report per-slot outcome batches, heartbeats prove liveness during long
  slots, and a drain handshake ends the run with the ledger intact.  The
  parent watches every pipe and process sentinel with ``loop.add_reader``,
  so a crashed worker surfaces immediately.

Determinism: every worker rebuilds the *full* kernel set from the shared
:class:`~repro.serve.config.ServeConfig` — bit-identical by the name-keyed
RNG stream contract (:func:`~repro.serve.runtime.build_serve_kernels`) —
and steps only its own edges, whose streams are independent of everyone
else's.  The parent folds outcomes in global edge order through the same
:class:`~repro.sim.kernel.SlotAggregator` the simulator uses, so a
virtual-clock run is bit-identical to ``Simulator.run`` at any worker
count and is locked against the same golden digests.

Worker death: policy ``"fail"`` raises (attaching the worker-side traceback
when one made it over the wire); ``"degrade"`` marks the dead shard's edges
offline for every remaining slot (synthesized zero-cost outcomes, so
``in == served + shed + offline`` still holds exactly), keeps trading every
slot on the surviving emissions, and completes the horizon — surviving
edges' trajectories are untouched because edges only couple through the
trading loop, which does not feed back into selection.

Supervised restart (``on_worker_death="restart"``): workers checkpoint
their shard state every ``restart_state_every`` slots at quiescent
boundaries (release capping makes the boundary a barrier).  When a worker
dies, the parent schedules a respawn after a capped exponential backoff;
the new incarnation restores the last checkpoint, silently re-steps the
already-folded slots to recover the exact kernel state, reports the
*missed* slots as offline outcomes with their real arrival counts (so the
accounting equation — and ``events_in == total_events`` — survive a full
recovery), and goes live at the release frontier.  Surviving shards are
bit-identical to an unfaulted run.  ``max_restarts`` exhaustion falls back
to ``degrade`` for that worker.

Live reconfiguration: a :class:`~repro.serve.reconfig.ReconfigPlan` applies
``add_edge``/``remove_edge``/``rebalance`` ops at slot barriers — the
parent caps releases at the barrier, drains the fleet (every worker
checkpoints and exits), applies the ops, rescales the trading kernel by
the active-count ratio, repartitions, and respawns.  Inactive edges are
folded as parent-synthesized offline outcomes; a no-op plan is
bit-identical to an unreconfigured run.

Deterministic chaos: a :class:`~repro.serve.chaos.ChaosPlan` realizes —
as a pure function of ``(plan, fleet, horizon, seed)`` — into per-worker
kill/stall/transport-drop schedules that fire inside the workers at exact
slot boundaries, which is what the soak harness gates recovery on.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.faults.plan import FaultPlan
from repro.obs.events import (
    ReconfigAppliedEvent,
    SlotStartEvent,
    SnapshotEvent,
    WorkerDeathEvent,
    WorkerRestartEvent,
    WorkerSpawnEvent,
)
from repro.obs.sinks import JsonlSink
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.serve.chaos import ChaosPlan, WorkerChaos, realize
from repro.serve.clock import SlotClock, VirtualClock, WallClock, release_target
from repro.serve.config import ServeConfig
from repro.serve.frames import (
    BYE,
    DRAIN,
    ERROR,
    HEARTBEAT,
    READY,
    RECONFIG,
    RELEASE,
    RESTART_STATE,
    SLOT,
    SNAPSHOT_REQUEST,
    STATE,
    arm_transport_faults,
    drain_frames,
    recv_frame,
    send_frame,
)
from repro.serve.http import StatusServer
from repro.serve.queues import BoundedWorkQueue
from repro.serve.reconfig import ReconfigPlan, apply_op
from repro.serve.runtime import SlotBatch, build_serve_kernels, serve_edges
from repro.serve.snapshot import load_snapshot, save_snapshot
from repro.sim.kernel import EdgeSlotOutcome, SlotAggregator, zero_cost_outcome
from repro.sim.results import SimulationResult

__all__ = [
    "ServeRuntime",
    "ShardRuntime",
    "edges_in_processes",
    "make_runtime",
    "reachable_shards",
    "runtime_from_snapshot",
    "serve_run",
    "shard_edges",
]


def shard_edges(num_edges: int, num_workers: int) -> list[tuple[int, ...]]:
    """Partition ``range(num_edges)`` into contiguous near-even shards.

    At most ``num_workers`` shards; never an empty shard (extra workers are
    simply not spawned when there are fewer edges than workers).
    """
    if num_edges < 1:
        raise ValueError(f"num_edges must be >= 1, got {num_edges}")
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    shards = min(num_workers, num_edges)
    base, extra = divmod(num_edges, shards)
    out: list[tuple[int, ...]] = []
    next_edge = 0
    for w in range(shards):
        size = base + (1 if w < extra else 0)
        out.append(tuple(range(next_edge, next_edge + size)))
        next_edge += size
    return out


def _mp_context():
    """Fork where the platform has it (fast spawns), spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------


def _error_frame(index: int, exc: BaseException) -> dict:
    """The wire report of worker ``index`` failing with ``exc`` (call in
    the ``except`` block, so the traceback is the live one)."""
    return {
        "type": ERROR,
        "worker": index,
        "message": f"{type(exc).__name__}: {exc}",
        "traceback": traceback.format_exc(),
    }


def _worker_main(
    index: int,
    conn,
    config: ServeConfig,
    edges: list[int],
    start: int,
    stop: int,
    faults: FaultPlan | None,
    trace_path: str | None,
    resume: dict | None,
    heartbeat_interval: float,
    chaos: WorkerChaos | None,
    replay_from: int,
) -> None:
    """Worker process entry point: run the shard, report, exit cleanly."""
    tracer: Tracer | None = None
    try:
        if trace_path is not None:
            tracer = Tracer([JsonlSink(trace_path)])
        asyncio.run(
            _worker_async(
                index,
                conn,
                config,
                edges,
                start,
                stop,
                faults,
                tracer,
                resume,
                heartbeat_interval,
                chaos,
                replay_from,
            )
        )
        try:
            send_frame(conn, {"type": BYE, "worker": index})
        except (BrokenPipeError, OSError):
            pass
    except BaseException as exc:  # noqa: BLE001 - last-resort wire report
        try:
            send_frame(conn, _error_frame(index, exc))
        except (BrokenPipeError, OSError):
            pass
    finally:
        if tracer is not None:
            tracer.close()
        try:
            conn.close()
        except OSError:
            pass


async def _worker_async(
    index: int,
    conn,
    config: ServeConfig,
    edges: list[int],
    start: int,
    stop: int,
    faults: FaultPlan | None,
    tracer: Tracer | None,
    resume: dict | None,
    heartbeat_interval: float,
    chaos: WorkerChaos | None,
    replay_from: int,
) -> None:
    """One shard's event loop: the slot loop plus the pipe-facing tasks.

    Concurrency layout keeps every shared resource single-writer: all pipe
    writes flow through one **sender** task fed by ``outbox``; all pipe
    reads enter through one ``add_reader`` callback feeding ``control``;
    the shard's edges run in one :func:`~repro.serve.runtime.serve_edges`
    loop whose per-slot callback frames the batch into a single frame.

    A respawned incarnation runs three phases before going live at
    ``start``: a silent *catch-up* re-steps each edge from its restored
    checkpoint up to ``replay_from`` (outcomes discarded — the parent
    already folded them, and the deterministic kernels reproduce the exact
    same state); an *offline replay* reports ``[replay_from, start)`` as
    offline outcomes with the real arrival counts; then the slot loop
    takes over.
    """
    _, adapters, kernels, _ = build_serve_kernels(
        config, tracer=tracer, faults=faults
    )
    has_ingress = config.ingress is not None
    delay = config.label_delay
    catchup: dict[int, tuple[int, str]] = {}
    if resume is not None:
        for e, state in resume["edges"].items():
            kernels[e].load_state(state)
            adapters[e].load_state(resume["adapters"][e])
        catchup = dict(resume.get("catchup", {}))
        if tracer is not None:
            for e in edges:
                kernels[e].policy.bind_tracer(tracer, edge=e)

    # Phase A — silent catch-up: advance each edge from its checkpoint to
    # the replay point.  ``live`` re-steps already-folded real slots (the
    # deterministic kernels reproduce the folded outcomes bit-exactly);
    # ``offline`` covers stretches the parent folded as inactive.
    for e in edges:
        as_of, mode = catchup.get(e, (replay_from, "live"))
        kernel = kernels[e]
        adapter = adapters[e]
        for t in range(as_of, replay_from):
            item = adapter.next_item(t)
            if mode == "live":
                kernel.step(
                    item.t, item.count, indices=item.indices, shed=item.shed
                )
            else:
                kernel.step_offline(t, item.count)
            if has_ingress:
                # The parent already merged these slots' request stats from
                # the dead incarnation's frames; the catch-up only has to
                # reproduce queue/stream state, never re-report.
                adapter.discard_slot(t)
            if delay:
                kernel.deliver_due(t - delay)

    clock = (
        VirtualClock() if config.virtual_clock else WallClock(config.slot_duration)
    )
    queues = {e: BoundedWorkQueue(config.queue_capacity) for e in edges}
    loop = asyncio.get_running_loop()
    outbox: asyncio.Queue = asyncio.Queue()
    control: asyncio.Queue = asyncio.Queue()
    shutdown = asyncio.Event()

    def _on_readable() -> None:
        try:
            while conn.poll():
                control.put_nowait(recv_frame(conn))
        except (EOFError, OSError):
            # Parent is gone; treat as a drain order.
            control.put_nowait({"type": DRAIN})
            loop.remove_reader(conn.fileno())

    loop.add_reader(conn.fileno(), _on_readable)

    # Phase B — offline replay of the slots this worker's predecessor
    # missed: reported with the real arrival counts (the restored adapters
    # are deterministic), queued ahead of READY so the parent folds them
    # in order.
    for t in range(replay_from, start):
        outcomes = []
        for e in edges:
            item = adapters[e].next_item(t)
            outcomes.append(kernels[e].step_offline(t, item.count))
            if delay:
                kernels[e].deliver_due(t - delay)
        frame = {
            "type": SLOT,
            "worker": index,
            "t": t,
            "outcomes": outcomes,
            "queue_s": [],
            "serve_s": [],
        }
        if has_ingress:
            # Resolved against the offline outcomes: every release in a
            # replayed slot is dropped-offline, so it counts as a miss.
            frame["ingress"] = {
                outcome.edge: adapters[outcome.edge].resolve_slot(outcome)
                for outcome in outcomes
            }
        await outbox.put(frame)

    def _state_frame(kind: str = STATE) -> dict:
        return {
            "type": kind,
            "worker": index,
            "edges": {e: kernels[e].state_dict() for e in edges},
            "adapters": {e: adapters[e].state_dict() for e in edges},
        }

    async def _control() -> None:
        while True:
            frame = await control.get()
            kind = frame["type"]
            if kind == RELEASE:
                await clock.release(int(frame["upto"]))
            elif kind == SNAPSHOT_REQUEST:
                # Only requested at quiescent boundaries (release capping),
                # so kernel/adapter state is settled for every shard edge.
                await outbox.put(_state_frame())
            elif kind == RECONFIG:
                # Reconfig barrier: checkpoint at the (quiescent) barrier
                # and exit; the parent respawns the reshaped fleet.
                await outbox.put(_state_frame())
                shutdown.set()
                return
            elif kind == DRAIN:
                shutdown.set()
                return

    async def _sender() -> None:
        while True:
            frame = await outbox.get()
            send_frame(conn, frame)  # noqa: RPL012 - bounded retry backoff
            outbox.task_done()

    async def _heartbeat() -> None:
        while True:
            await asyncio.sleep(heartbeat_interval)
            await outbox.put({"type": HEARTBEAT, "worker": index})

    restart_every = (
        config.restart_state_every if config.on_worker_death == "restart" else 0
    )
    kill_slots = frozenset(chaos.kills) if chaos is not None else frozenset()
    stall_slots = dict(chaos.stalls) if chaos is not None else {}
    drop_slots = dict(chaos.drops) if chaos is not None else {}

    async def _report(batch: SlotBatch) -> None:
        t = batch.t
        # Captured before anything hits the wire (ingress is already
        # resolved, so checkpoints never carry provisional slot stats):
        # releases are capped at the checkpoint boundary, so every shard
        # kernel is quiescent at state t+1, and a chaos kill below can
        # never orphan a checkpoint whose slot was not reported.
        state_frame = None
        if restart_every and (t + 1) % restart_every == 0 and t + 1 < stop:
            state_frame = _state_frame(RESTART_STATE)
            state_frame["next_slot"] = t + 1
        drop = drop_slots.get(t)
        if drop:
            arm_transport_faults(drop)
        stall = stall_slots.get(t)
        if stall:
            # Chaos: a deliberately hung worker — heartbeats stop too,
            # which is the point.
            time.sleep(stall)  # noqa: RPL012 - chaos stall by design
        if t in kill_slots:
            # Abrupt, SIGKILL-like death with this slot unreported —
            # the parent sees a raw EOF and the process sentinel.
            os._exit(1)
        slot_frame = {
            "type": SLOT,
            "worker": index,
            "t": t,
            "outcomes": batch.outcomes,
            "queue_s": batch.queue_s,
            "serve_s": batch.serve_s,
        }
        if batch.ingress is not None:
            slot_frame["ingress"] = batch.ingress
        await outbox.put(slot_frame)
        if state_frame is not None:
            await outbox.put(state_frame)

    async def _serve() -> None:
        try:
            await serve_edges(
                edges,
                adapters=adapters,
                kernels=kernels,
                queues=queues,
                clock=clock,
                config=config,
                tracer=tracer if tracer is not None else NULL_TRACER,
                start=start,
                stop=stop,
                on_slot=_report,
            )
        except Exception as exc:
            await outbox.put(_error_frame(index, exc))
            shutdown.set()

    tasks = [
        asyncio.create_task(_control(), name=f"shard{index}-control"),
        asyncio.create_task(_sender(), name=f"shard{index}-sender"),
        asyncio.create_task(_heartbeat(), name=f"shard{index}-heartbeat"),
    ]
    serve_task = asyncio.create_task(_serve(), name=f"shard{index}-serve")
    shutdown_task = asyncio.create_task(
        shutdown.wait(), name=f"shard{index}-shutdown"
    )
    await outbox.put({"type": READY, "worker": index})
    try:
        await asyncio.wait(
            {serve_task, shutdown_task},
            return_when=asyncio.FIRST_COMPLETED,
        )
        if serve_task.done() and stop < config.scenario.horizon:
            # A partial run's stop slot may coincide with a snapshot
            # boundary: the parent still needs this worker's STATE
            # frame after the last SLOT, so hold the control channel
            # open until it says DRAIN.
            await shutdown_task
        # Flush everything queued for the wire before tearing down.
        await outbox.join()
    finally:
        for task in [serve_task, shutdown_task, *tasks]:
            if not task.done():
                task.cancel()
        await asyncio.gather(
            serve_task, shutdown_task, *tasks, return_exceptions=True
        )
        loop.remove_reader(conn.fileno())


# --------------------------------------------------------------------------
# Parent side
# --------------------------------------------------------------------------


@dataclass
class _Shard:
    """The parent's book-keeping for one worker process incarnation."""

    index: int
    edges: tuple[int, ...]
    process: object
    conn: object
    generation: int = 0
    live_from: int = 0
    ready: bool = False
    running: bool = True
    exited: bool = False
    byed: bool = False
    failed: bool = False
    errored: bool = False
    error: str = ""
    restarting: bool = False
    restarted: bool = False
    recovered: bool = False
    last_slot: int = -1
    last_frame: float = field(default_factory=time.monotonic)


def edges_in_processes(
    config: ServeConfig,
    *,
    chaos: ChaosPlan | None = None,
    reconfig: ReconfigPlan | None = None,
) -> bool:
    """Whether a run steps its edges in worker processes.

    More than one worker needs processes.  Chaos and reconfig plans act on
    worker processes, so passing either puts even a single worker in one;
    every other run keeps its edges in the parent as a local shard.
    """
    return config.num_workers > 1 or chaos is not None or reconfig is not None


def reachable_shards(
    config: ServeConfig, reconfig: ReconfigPlan | None = None
) -> int:
    """How many worker indices a run's fleet shapes reach: the starting
    fleet's shard count, or the largest one a ``reconfig`` plan makes."""
    capacity, workers = config.scenario.num_edges, config.num_workers
    if reconfig is None:
        return len(shard_edges(capacity, workers))
    shapes = (
        reconfig.fleet_at(capacity=capacity, num_workers=workers, upto_slot=slot)
        for slot in (0, *reconfig.barriers())
    )
    return max(len(shard_edges(len(active), n)) for active, n in shapes)


class ServeRuntime:
    """One serve run: the parent of the fleet's edge shards.

    Construct from a :class:`ServeConfig` (the scenario is built from its
    embedded :class:`~repro.sim.config.ScenarioConfig`), or resume one from
    disk with :meth:`from_snapshot`.  :meth:`run` executes to the end of the
    horizon and returns the same :class:`SimulationResult` the simulator
    would; ``run(max_slots=k)`` stops after ``k`` completed slots (the
    "killed mid-horizon" path; state survives via snapshots).

    The parent runs on one asyncio loop and owns everything above the
    edges: the trading kernel and result arrays (one
    :class:`~repro.sim.kernel.SlotAggregator`), the release schedule (one
    :class:`~repro.serve.clock.SlotClock`), snapshots, ``/healthz`` and
    ``/metrics``.  Where the edges run is decided by
    :func:`edges_in_processes`: a *local shard* runs
    :func:`~repro.serve.runtime.serve_edges` over the whole fleet on the
    parent loop and hands each slot's batch straight to the fold; *process
    shards* run the same loop in worker processes, whose pipes and process
    sentinels the parent watches with ``loop.add_reader``.  Virtual-clock
    runs are bit-identical either way, and to ``Simulator.run``.

    ``on_stage_sample(stage, seconds)``, when given, receives every
    per-stage latency sample — ``queue`` (enqueue to dequeue) and
    ``serve`` (kernel step), measured where the edge runs; ``trade``
    (parent fold + trading step) and then ``slot`` (release to fold), after
    each fold; and ``recovery`` (worker death to its first live outcome
    after a supervised restart) — which is how the soak harness feeds its
    quantile sketches without this module depending on it.

    ``chaos`` takes a :class:`~repro.serve.chaos.ChaosPlan` realized
    deterministically against the fleet at construction; ``reconfig``
    takes a :class:`~repro.serve.reconfig.ReconfigPlan` applied at slot
    barriers (incompatible with periodic snapshots — a barrier changes the
    fleet shape mid-file).  ``shard_trace_paths`` gives each worker process
    its own JSONL trace; a local shard traces through ``tracer``.
    """

    def __init__(
        self,
        config: ServeConfig,
        *,
        tracer: Tracer | None = None,
        faults: FaultPlan | None = None,
        shard_trace_paths: Sequence[str | Path] | None = None,
        heartbeat_interval: float = 0.5,
        stall_timeout: float = 120.0,
        start_timeout: float = 120.0,
        on_stage_sample: Callable[[str, float], None] | None = None,
        chaos: ChaosPlan | None = None,
        reconfig: ReconfigPlan | None = None,
    ) -> None:
        # Process-shard runs build the full kernel set here too: the parent
        # keeps the trading kernel (Algorithm 2 + market + ledger), and the
        # edge kernels it never steps cost nothing (draws are lazy).
        scenario, self.adapters, self.edge_kernels, self.trading_kernel = (
            build_serve_kernels(config, tracer=tracer, faults=faults)
        )
        self.config = config
        self.label = config.effective_label
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._rebind_tracer = tracer is not None
        self.scenario = scenario
        self.horizon = scenario.horizon
        self.num_edges = scenario.num_edges
        self.aggregator = SlotAggregator(scenario, self.trading_kernel)
        self.completed_slot = -1
        self.local = not edges_in_processes(config, chaos=chaos, reconfig=reconfig)
        self.clock: SlotClock = (
            VirtualClock() if config.virtual_clock else WallClock(config.slot_duration)
        )
        #: The local shard's per-edge work queues (workers keep their own).
        self.queues = (
            [BoundedWorkQueue(config.queue_capacity) for _ in range(self.num_edges)]
            if self.local
            else []
        )
        self.status_server: StatusServer | None = None
        #: Set once run_async has started serving (and the status server,
        #: when one is configured) — the event-driven "server is up" wait.
        self.server_ready = asyncio.Event()
        self._faults = faults
        self._reconfig = (
            reconfig if reconfig is not None and not reconfig.is_empty else None
        )
        self._active: tuple[int, ...] = tuple(range(self.num_edges))
        self._num_workers = config.num_workers
        if self._reconfig is not None:
            if config.snapshot_every:
                raise ValueError(
                    "reconfiguration and periodic snapshots cannot be "
                    "combined: a reconfig barrier changes the fleet shape "
                    "mid-file"
                )
            for op in self._reconfig.ops:
                if op.at >= self.horizon:
                    raise ValueError(
                        f"reconfig op at slot {op.at} is outside the "
                        f"horizon of {self.horizon}"
                    )
            self._active, self._num_workers = self._reconfig.fleet_at(
                capacity=self.num_edges,
                num_workers=config.num_workers,
                upto_slot=0,
            )
        self.shards = self._partition(self._active, self._num_workers)
        if shard_trace_paths is not None:
            if self.local:
                raise ValueError(
                    "shard trace paths need worker processes; a one-worker "
                    "run without a chaos or reconfig plan traces through "
                    "the parent tracer"
                )
            shards = reachable_shards(config, self._reconfig)
            if len(shard_trace_paths) != shards:
                raise ValueError(
                    f"{len(shard_trace_paths)} shard trace paths for the "
                    f"{shards} shards this run can spawn"
                )
        self._shard_trace_paths = (
            [str(p) for p in shard_trace_paths] if shard_trace_paths else None
        )
        self._heartbeat_interval = heartbeat_interval
        self._stall_timeout = stall_timeout
        self._start_timeout = start_timeout
        self._on_stage_sample = on_stage_sample
        self._chaos = realize(
            chaos,
            num_workers=len(self.shards),
            horizon=self.horizon,
            seed=config.seed,
        )
        self._restart_every = (
            config.restart_state_every
            if not self.local and config.on_worker_death == "restart"
            else 0
        )
        self._edge_state_slot = 0  # slot the (fresh/restored) edge state is at
        self._stop_slot = self.horizon
        self._release_ts: dict[int, float] = {}
        self._handles: list[_Shard] = []
        self._owner: dict[int, _Shard] = {}
        self._pending: dict[int, dict[int, EdgeSlotOutcome]] = {}
        #: Resolved per-slot ingress payloads awaiting their slot's fold:
        #: ``t -> {edge -> payload}``.  Overwrite semantics mirror the
        #: outcome buffer — a restarted worker's replay frames replace the
        #: dead incarnation's unfolded payloads, never double-count.
        self._pending_ingress: dict[int, dict[int, dict]] = {}
        self._last_models: dict[int, int] = {}
        self._state_frames: dict[int, dict] = {}
        self._barriers: list[int] = []
        # Last-good per-edge state: edge -> (kernel, adapter, as_of, mode).
        # ``mode`` records how the stretch since ``as_of`` was folded
        # ("live" = real outcomes, "offline" = parent-synthesized), which
        # tells a respawned worker how to catch its kernels up.
        self._edge_payloads: dict[int, tuple] = {}
        self._restart_due: dict[int, asyncio.TimerHandle] = {}
        self._restarts_used: dict[int, int] = {}
        self._death_ts: dict[int, float] = {}
        self._spawn_counts: dict[int, int] = {}
        self._reconfiguring = False
        # A failure raised inside a loop callback, re-raised by the run.
        self._failure: BaseException | None = None
        self._waiter: asyncio.Future | None = None
        counter = self.tracer.counter
        self._events_in = counter("serve/events_in")
        self._events_served = counter("serve/events_served")
        self._events_shed = counter("serve/events_shed")
        self._events_dropped_offline = counter("serve/events_dropped_offline")
        self._slots_completed = counter("serve/slots_completed")
        self._snapshots_taken = counter("serve/snapshots")
        self._heartbeats = counter("serve/heartbeats")
        self._shard_deaths = counter("serve/shard_deaths")
        self._restarts = counter("serve/restarts")
        self._reconfigs = counter("serve/reconfigs")
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

    @staticmethod
    def _partition(active: Sequence[int], num_workers: int) -> list[tuple[int, ...]]:
        """Contiguous near-even shards over the *active* edge ids."""
        return [
            tuple(active[i] for i in part)
            for part in shard_edges(len(active), num_workers)
        ]

    # -- restore -----------------------------------------------------------

    @classmethod
    def from_snapshot(
        cls,
        path: str | Path,
        *,
        tracer: Tracer | None = None,
        faults: FaultPlan | None = None,
        **kwargs,
    ) -> "ServeRuntime":
        """Rebuild a runtime mid-horizon from a persisted snapshot.

        Snapshots hold every edge's state whichever shards wrote them, so a
        file resumes at any worker count; the snapshot's config decides it.
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
        self._edge_state_slot = next_slot
        if self.local:
            for kernel, kernel_state in zip(self.edge_kernels, state["edges"]):
                kernel.load_state(kernel_state)
            for adapter, adapter_state in zip(self.adapters, state["adapters"]):
                adapter.load_state(adapter_state)
            if self._rebind_tracer:
                for e, kernel in enumerate(self.edge_kernels):
                    kernel.policy.bind_tracer(self.tracer, edge=e)
            return
        # Workers rebuild their kernels and restore their own edges (one
        # pickle payload per worker keeps kernel/adapter shared-object
        # identity intact).
        for e in range(self.num_edges):
            self._edge_payloads[e] = (
                state["edges"][e],
                state["adapters"][e],
                next_slot,
                "live",
            )
        if next_slot > 0:
            selections = state["arrays"]["selections"]
            for e in range(self.num_edges):
                self._last_models[e] = int(selections[-1][e])

    # -- public surface ----------------------------------------------------

    def health(self) -> dict[str, object]:
        """Liveness payload for ``GET /healthz``.

        ``shards`` lists the worker processes (none for a local shard);
        ``queues`` has one entry per edge, with ``None`` depths for edges
        whose queues live in a worker process.
        """
        done = self.completed_slot >= self.horizon - 1
        degraded = any(h.failed for h in self._handles)
        healing = bool(self._restart_due) or any(
            h.restarting for h in self._handles
        )
        status = "done" if done else (
            "degraded" if degraded else ("healing" if healing else "serving")
        )
        queues = self.queues or [None] * self.num_edges
        return {
            "status": status,
            "label": self.label,
            "completed_slot": self.completed_slot,
            "released_slot": self.clock.released,
            "horizon": self.horizon,
            "num_edges": self.num_edges,
            "active_edges": len(self._active),
            "num_workers": len(self.shards),
            "shards": [
                {
                    "worker": h.index,
                    "edges": list(h.edges),
                    "alive": h.running,
                    "failed": h.failed,
                    "restarting": h.restarting,
                    "generation": h.generation,
                    "last_slot": h.last_slot,
                }
                for h in self._handles
            ],
            "queues": [
                {
                    "edge": e,
                    "depth_events": None if queue is None else queue.depth_events,
                    "depth_items": None if queue is None else queue.depth_items,
                    "peak_events": (
                        None if queue is None else queue.stats.peak_events
                    ),
                    "rejected": None if queue is None else queue.stats.rejected,
                }
                for e, queue in enumerate(queues)
            ],
        }

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

    def run(self, *, max_slots: int | None = None) -> SimulationResult | None:
        """Serve the horizon (or ``max_slots`` of it) on a fresh event loop.

        Returns the :class:`SimulationResult` when the horizon completed,
        ``None`` after a partial run.  A local shard keeps its edge state,
        so the same object can run on; process shards exit with theirs, so
        a partial process run continues only from its snapshot file
        (:meth:`from_snapshot`).
        """
        return asyncio.run(self.run_async(max_slots=max_slots))

    async def run_async(
        self, *, max_slots: int | None = None
    ) -> SimulationResult | None:
        """Async entry point: serve ``max_slots`` slots (default: the rest)."""
        start = self.completed_slot + 1
        stop = self.horizon
        if max_slots is not None:
            if max_slots < 1:
                raise ValueError(f"max_slots must be >= 1, got {max_slots}")
            stop = min(stop, start + max_slots)
        if start < stop:
            if start != self._edge_state_slot:
                raise RuntimeError(
                    f"edge state is at slot {self._edge_state_slot} but the "
                    f"run would start at {start}; a partial run with worker "
                    "processes continues from its snapshot file "
                    "(ServeRuntime.from_snapshot)"
                )
            await self._serve(start, stop)
            local_state = self.local or stop == self.horizon
            self._edge_state_slot = stop if local_state else -1
        return self.result() if stop == self.horizon else None

    async def _serve(self, start: int, stop: int) -> None:
        self._stop_slot = stop
        try:
            if not self.local:
                self._spawn_fleet(start, stop)
            if self.config.health_port is not None:
                self.status_server = StatusServer(
                    {"/healthz": self.health, "/metrics": self.metrics},
                    port=self.config.health_port,
                )
                await self.status_server.start()
            self.server_ready.set()
            if self.local:
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
                    on_slot=self._on_local_slot,
                )
            else:
                await self._await_ready(self._handles)
                await self._release_through(self._release_target(start - 1))
                await self._fold_processes(stop)
        finally:
            if self._handles:
                await self._shutdown()
            if self.status_server is not None:
                await self.status_server.stop()

    # -- the slot fold -----------------------------------------------------

    async def _on_local_slot(self, batch: SlotBatch) -> None:
        self._observe_steps(batch.queue_s, batch.serve_s)
        await self._fold_slot(batch.t, batch.outcomes, batch.ingress)

    def _observe_steps(self, queue_s: list[float], serve_s: list[float]) -> None:
        observe = self._on_stage_sample
        if observe is not None:
            for value in queue_s:
                observe("queue", value)
            for value in serve_s:
                observe("serve", value)

    async def _fold_slot(
        self,
        t: int,
        outcomes: list[EdgeSlotOutcome],
        ingress: dict[int, dict] | None,
    ) -> None:
        """Count, merge and fold slot ``t`` (outcomes in global edge order),
        then persist a due snapshot, apply a due reconfig, and release."""
        observe = self._on_stage_sample
        for outcome in outcomes:
            self._count(outcome)
        if self.ingress is not None and ingress:
            self._merge_ingress(ingress, observe)
        if observe is None:
            self.aggregator.fold(t, outcomes)
        else:
            fold_start = time.monotonic()
            self.aggregator.fold(t, outcomes)
            folded = time.monotonic()
            observe("trade", folded - fold_start)
            released_at = self._release_ts.pop(t, None)
            if released_at is not None:
                observe("slot", folded - released_at)
        self.completed_slot = t
        self._slots_completed.increment()
        every = self.config.snapshot_every
        if every and (t + 1) % every == 0 and t + 1 < self.horizon:
            await self._take_snapshot(t)
        if self._barriers and self._barriers[0] == t + 1:
            await self._apply_reconfig(self._barriers.pop(0))
        await self._release_through(self._release_target(t))

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

    def _release_target(self, completed: int) -> int:
        """Furthest slot safe to release after completing ``completed``."""
        barrier = next((b for b in self._barriers if b > completed), None)
        return release_target(
            completed,
            horizon=self.horizon,
            lockstep=self.config.virtual_clock,
            pipeline_depth=self.config.pipeline_depth,
            snapshot_every=self.config.snapshot_every,
            restart_state_every=self._restart_every,
            barrier=barrier,
        )

    async def _release_through(self, target: int) -> None:
        """Release slots up to ``target`` on the clock and to every worker."""
        clock = self.clock
        if target <= clock.released:
            return
        stamps = self._release_ts if self._on_stage_sample is not None else None
        now = time.monotonic()
        tracer = self.tracer
        for t in range(clock.released + 1, target + 1):
            if stamps is not None:
                stamps[t] = now
            if tracer.enabled:
                tracer.emit(SlotStartEvent(t=t, horizon=self.horizon))
        await clock.release(target)
        frame = {"type": RELEASE, "upto": target}
        self._broadcast(frame, self._handles)  # noqa: RPL012 - bounded retry backoff

    async def _take_snapshot(self, t: int) -> None:
        """Capture every edge's state at the quiescent boundary after slot
        ``t`` and persist one file (in a thread, so the loop stays live)."""
        if self.local:
            busy = [e for e, queue in enumerate(self.queues) if queue.depth_items]
            if busy:
                raise RuntimeError(
                    f"snapshot at slot boundary {t + 1} found non-quiescent "
                    f"queues on edges {busy} — release capping is broken"
                )
            edges = [kernel.state_dict() for kernel in self.edge_kernels]
            adapters = [adapter.state_dict() for adapter in self.adapters]
        else:
            states = await self._collect_snapshot(t)
            if states is None:
                return
            edges, adapters = states
        state = {
            "label": self.label,
            "config": self.config.to_dict(),
            "next_slot": t + 1,
            "edges": edges,
            "adapters": adapters,
            "trading": self.trading_kernel.state_dict(),
            "arrays": self.aggregator.partial_arrays(t + 1),
        }
        path = self.config.snapshot_path
        assert path is not None  # enforced by ServeConfig validation
        await asyncio.to_thread(save_snapshot, path, state)
        self._snapshots_taken.increment()
        if self.tracer.enabled:
            self.tracer.emit(SnapshotEvent(t=t, path=str(path)))

    # -- process shards: the parent loop -----------------------------------

    def _spawn_fleet(self, start: int, stop: int) -> None:
        """Plan the run's fleet (reconfig-aware) and start its workers."""
        if self._reconfig is not None:
            self._active, self._num_workers = self._reconfig.fleet_at(
                capacity=self.num_edges,
                num_workers=self.config.num_workers,
                upto_slot=start,
            )
            self.shards = self._partition(self._active, self._num_workers)
            self._barriers = [
                b for b in self._reconfig.barriers() if start < b < stop
            ]
            for e in range(self.num_edges):
                if e not in self._active:
                    self._mark_offline(e, start)
            if len(self._active) != self.num_edges:
                self.trading_kernel.rescale_fleet(
                    len(self._active) / self.num_edges
                )
        self._handles = [
            self._spawn_worker(
                w, edges, start=start, stop=stop, replay_from=start, generation=0
            )
            for w, edges in enumerate(self.shards)
        ]
        self._owner = {e: h for h in self._handles for e in h.edges}

    def _mark_offline(self, e: int, as_of: int) -> None:
        """Record that edge ``e``'s slots from here on fold as offline."""
        payload = self._edge_payloads.get(e)
        if payload is None:
            self._edge_payloads[e] = (None, None, as_of, "offline")
        else:
            self._edge_payloads[e] = (*payload[:3], "offline")

    async def _fold_processes(self, stop: int) -> None:
        """Fold slots as the workers report them until ``stop``."""
        while True:
            self._raise_failure()
            await self._fold_ready()
            if self.completed_slot >= stop - 1:
                return
            self._check_stalls()
            await self._wait(self._until_next_stall())

    async def _fold_ready(self) -> None:
        """Fold every slot whose outcomes (or death synthesis) are complete.

        Parent-synthesized offline outcomes (degraded shards) carry no
        ingress payload and need none: their requests were never
        generated, so ``requests_in`` never saw them and the request
        identity is waived while any worker is degraded (mirrors the
        ``total_events`` leg of the soak gate).
        """
        while self.completed_slot < self._stop_slot - 1:
            t = self.completed_slot + 1
            if not self._slot_complete(t):
                return
            bucket = self._pending.pop(t, {})
            outcomes = [
                bucket[e]
                if e in bucket
                else zero_cost_outcome(t, e, self._last_models.get(e, -1))
                for e in range(self.num_edges)
            ]
            await self._fold_slot(t, outcomes, self._pending_ingress.pop(t, None))

    def _slot_complete(self, t: int) -> bool:
        bucket = self._pending.get(t, {})
        for e in range(self.num_edges):
            if e in bucket:
                continue
            owner = self._owner.get(e)
            if owner is None or owner.failed:
                continue  # inactive or degraded edge: the parent synthesizes
            # A live (or restarting — its replacement will replay) owner
            # still owes this slot.
            return False
        return True

    def _wake(self) -> None:
        """Resume the parent coroutine parked in :meth:`_wait`, if any."""
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result(None)

    async def _wait(self, timeout: float) -> None:
        """Park until a pipe, sentinel or timer callback reports, or
        ``timeout`` seconds pass."""
        loop = asyncio.get_running_loop()
        self._waiter = waiter = loop.create_future()
        timer = loop.call_later(max(timeout, 0.0), self._wake)
        try:
            await waiter
        finally:
            timer.cancel()
            self._waiter = None

    async def _until(
        self, done: Callable[[], bool], timeout: float, *, check: bool = True
    ) -> bool:
        """Wait until ``done()`` holds; ``False`` if ``timeout`` ran out.

        With ``check``, a failure raised in a callback meanwhile is
        re-raised here.
        """
        deadline = time.monotonic() + timeout
        while True:
            if check:
                self._raise_failure()
            if done():
                return True
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            await self._wait(remaining)

    def _fail(self, exc: BaseException) -> None:
        if self._failure is None:
            self._failure = exc

    def _raise_failure(self) -> None:
        if self._failure is not None:
            raise self._failure

    def _until_next_stall(self) -> float:
        """Seconds until the earliest unfinished worker counts as stalled."""
        now = time.monotonic()
        due = [
            h.last_frame + self._stall_timeout
            for h in self._handles
            if h.running and h.last_slot < self._stop_slot - 1
        ]
        return min(due, default=now + self._stall_timeout) - now

    def _broadcast(self, frame: dict, handles: Sequence[_Shard]) -> None:
        for handle in handles:
            if handle.running:
                try:
                    send_frame(handle.conn, frame)
                except (BrokenPipeError, OSError):
                    pass  # the death will surface via the sentinel

    async def _await_ready(self, handles: list[_Shard]) -> None:
        if not await self._until(
            lambda: all(h.ready or not h.running for h in handles),
            self._start_timeout,
        ):
            missing = [h.index for h in handles if not h.ready]
            raise RuntimeError(
                f"timed out waiting for shard workers {missing} to start"
            )

    async def _request_states(
        self,
        frame: dict,
        handles: list[_Shard],
        what: str,
        *,
        abort: Callable[[], bool] = lambda: False,
    ) -> dict[int, dict]:
        """Send ``frame`` to the running ``handles``; await their ``state``
        replies, by worker index.

        A worker that stops running is not waited for; ``abort()`` ends
        the wait early.
        """
        self._state_frames = states = {}
        self._broadcast(frame, handles)  # noqa: RPL012 - bounded retry backoff
        if not await self._until(
            lambda: abort()
            or all(not h.running or h.index in states for h in handles),
            self._stall_timeout,
        ):
            missing = [
                h.index for h in handles if h.running and h.index not in states
            ]
            raise RuntimeError(
                f"timed out waiting for shard workers {missing}: {what}"
            )
        return states

    # -- process management ------------------------------------------------

    def _spawn_worker(
        self,
        w: int,
        edges: Sequence[int],
        *,
        start: int,
        stop: int,
        replay_from: int,
        generation: int,
    ) -> _Shard:
        """Start one worker process and watch its pipe and sentinel."""
        ctx = _mp_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        resume = self._resume_payload(edges, replay_from)
        process = ctx.Process(
            target=_worker_main,
            args=(
                w,
                child_conn,
                self.config,
                list(edges),
                start,
                stop,
                self._faults,
                self._trace_path_for(w),
                resume,
                self._heartbeat_interval,
                self._chaos.get(w),
                replay_from,
            ),
            daemon=True,
            name=f"repro-shard-{w}",
        )
        process.start()
        # Close the child's end in the parent so a dead worker turns
        # into EOF here instead of a silent hang.
        child_conn.close()
        handle = _Shard(
            index=w,
            edges=tuple(edges),
            process=process,
            conn=parent_conn,
            generation=generation,
            live_from=start,
        )
        loop = asyncio.get_running_loop()
        loop.add_reader(parent_conn.fileno(), self._on_readable, handle)
        loop.add_reader(process.sentinel, self._on_exit, handle)
        if self.tracer.enabled:
            self.tracer.emit(
                WorkerSpawnEvent(
                    t=start, worker=w, num_edges=len(edges), generation=generation
                )
            )
        return handle

    def _trace_path_for(self, w: int) -> str | None:
        """The worker's JSONL trace target; respawns get a fresh suffix.

        :class:`~repro.obs.sinks.JsonlSink` truncates on open, so a
        respawned incarnation must not reuse its predecessor's file.
        """
        if self._shard_trace_paths is None:
            return None
        count = self._spawn_counts.get(w, 0)
        self._spawn_counts[w] = count + 1
        base = self._shard_trace_paths[w]
        return base if count == 0 else f"{base}.respawn{count}"

    def _resume_payload(
        self, edges: Sequence[int], replay_from: int
    ) -> dict | None:
        """The pickled state a (re)spawned worker restores and catches up from."""
        entries = {e: self._edge_payloads.get(e) for e in edges}
        if all(p is None for p in entries.values()) and replay_from == 0:
            return None
        resume: dict = {"edges": {}, "adapters": {}, "catchup": {}}
        for e, payload in entries.items():
            if payload is None:
                # Never checkpointed: fresh kernels, re-step from slot 0.
                resume["catchup"][e] = (0, "live")
                continue
            kernel_state, adapter_state, as_of, mode = payload
            if kernel_state is not None:
                resume["edges"][e] = kernel_state
                resume["adapters"][e] = adapter_state
            resume["catchup"][e] = (as_of, mode)
        return resume

    def _on_readable(self, handle: _Shard) -> None:
        """Loop callback: dispatch every frame buffered on a worker's pipe."""
        try:
            try:
                while handle.conn.poll():
                    self._dispatch(handle, recv_frame(handle.conn))
            except (EOFError, OSError):
                self._handle_exit(handle)
        except Exception as exc:  # noqa: BLE001 - re-raised by the run
            self._fail(exc)
        self._wake()

    def _on_exit(self, handle: _Shard) -> None:
        """Loop callback: a worker process exited (its sentinel fired)."""
        asyncio.get_running_loop().remove_reader(handle.process.sentinel)
        handle.exited = True
        try:
            if handle.running:
                for frame in drain_frames(handle.conn):
                    self._dispatch(handle, frame)
                self._handle_exit(handle)
        except Exception as exc:  # noqa: BLE001 - re-raised by the run
            self._fail(exc)
        self._wake()

    def _dispatch(self, handle: _Shard, frame: dict) -> None:
        handle.last_frame = time.monotonic()
        kind = frame["type"]
        if kind == SLOT:
            t = int(frame["t"])
            bucket = self._pending.setdefault(t, {})
            for outcome in frame["outcomes"]:
                bucket[outcome.edge] = outcome
                self._last_models[outcome.edge] = outcome.model
            ingress_payloads = frame.get("ingress")
            if ingress_payloads:
                # Stored, not merged: merging happens once at fold time so
                # a restart replay overwriting this slot cannot double-count.
                self._pending_ingress.setdefault(t, {}).update(ingress_payloads)
            handle.last_slot = max(handle.last_slot, t)
            if (
                handle.restarted
                and not handle.recovered
                and t >= handle.live_from
            ):
                handle.recovered = True
                died = self._death_ts.pop(handle.index, None)
                observe = self._on_stage_sample
                if died is not None and observe is not None:
                    observe("recovery", time.monotonic() - died)
            self._observe_steps(frame["queue_s"], frame["serve_s"])
        elif kind == READY:
            handle.ready = True
        elif kind == HEARTBEAT:
            self._heartbeats.increment()
        elif kind == STATE:
            self._state_frames[handle.index] = frame
        elif kind == RESTART_STATE:
            as_of = int(frame["next_slot"])
            for e, kernel_state in frame["edges"].items():
                self._edge_payloads[e] = (
                    kernel_state,
                    frame["adapters"][e],
                    as_of,
                    "live",
                )
        elif kind == BYE:
            handle.byed = True
        elif kind == ERROR:
            handle.error = str(frame["message"])
            handle.errored = True
            if self.config.on_worker_death == "fail":
                trail = frame.get("traceback", "")
                raise RuntimeError(
                    f"shard worker {handle.index} failed: "
                    f"{frame['message']}\n{trail}"
                )

    def _detach(self, handle: _Shard) -> None:
        """Stop reading from ``handle``: it is no longer a running worker."""
        if handle.running:
            handle.running = False
            asyncio.get_running_loop().remove_reader(handle.conn.fileno())

    def _handle_exit(self, handle: _Shard) -> None:
        if not handle.running:
            return
        self._detach(handle)
        finished = handle.last_slot >= self._stop_slot - 1
        clean = finished or (handle.byed and not handle.errored)
        if not clean:
            self._on_death(handle)

    def _on_death(self, handle: _Shard) -> None:
        """Route a worker death through the configured policy."""
        self._shard_deaths.increment()
        policy = self.config.on_worker_death
        if self.tracer.enabled:
            self.tracer.emit(
                WorkerDeathEvent(
                    t=self.completed_slot + 1,
                    worker=handle.index,
                    policy=policy,
                    message=handle.error,
                )
            )
        if policy == "fail":
            detail = f": {handle.error}" if handle.error else ""
            raise RuntimeError(
                f"shard worker {handle.index} (edges {list(handle.edges)}) "
                f"died at slot {self.completed_slot + 1}{detail}; set "
                "on_worker_death='degrade' or 'restart' to complete without it"
            )
        if self._reconfiguring:
            # The barrier respawn supersedes any healing: the dead worker's
            # edges fall back to their last checkpoint and catch up over
            # the already-folded slots.
            return
        if policy == "restart":
            used = self._restarts_used.get(handle.index, 0)
            if used < self.config.max_restarts:
                backoff = min(
                    self.config.restart_backoff_s * (2.0**used),
                    self.config.restart_backoff_max_s,
                )
                handle.restarting = True
                self._death_ts[handle.index] = time.monotonic()
                self._restart_due[handle.index] = (
                    asyncio.get_running_loop().call_later(
                        backoff, self._respawn_due, handle.index, backoff
                    )
                )
                return
        # Degrade (or a restart budget exhausted): synthesized offline
        # outcomes stand in for this shard for every remaining slot.
        handle.failed = True

    def _respawn_due(self, w: int, backoff: float) -> None:
        """Timer callback: worker ``w``'s restart backoff has run out."""
        del self._restart_due[w]
        try:
            self._respawn(w, backoff)
        except Exception as exc:  # noqa: BLE001 - re-raised by the run
            self._fail(exc)
        self._wake()

    def _respawn(self, w: int, backoff: float) -> None:
        """Respawn worker ``w`` from its last-good state at the frontier.

        The new incarnation replays ``[replay_from, released + 1)`` as
        offline outcomes — every earlier slot of this shard either was
        already folded or sits in ``_pending`` from the dead incarnation's
        reported frames (pipe FIFO guarantees anything before the last
        checkpoint made it over) — and goes live right after the current
        release frontier, so the fold never double-counts a slot.
        """
        old = self._handles[w]
        used = self._restarts_used.get(w, 0) + 1
        self._restarts_used[w] = used
        try:
            old.conn.close()
        except OSError:
            pass
        as_of = [
            payload[2]
            for payload in (self._edge_payloads.get(e) for e in old.edges)
            if payload is not None
        ]
        replay_from = max([self.completed_slot + 1, *as_of])
        start = self.clock.released + 1
        handle = self._spawn_worker(
            w,
            old.edges,
            start=start,
            stop=self._stop_slot,
            replay_from=replay_from,
            generation=old.generation + 1,
        )
        handle.restarted = True
        self._handles[w] = handle
        for e in old.edges:
            self._owner[e] = handle
        self._restarts.increment()
        if self.tracer.enabled:
            self.tracer.emit(
                WorkerRestartEvent(
                    t=start,
                    worker=w,
                    replay_from=replay_from,
                    attempt=used,
                    backoff_s=backoff,
                )
            )
        # Hand the new incarnation the current release frontier: the
        # parent only broadcasts releases when the target advances, which
        # it might never do again near the end of the horizon.
        if self.clock.released >= 0:
            self._broadcast({"type": RELEASE, "upto": self.clock.released}, [handle])

    def _check_stalls(self) -> None:
        now = time.monotonic()
        for handle in self._handles:
            if not handle.running or handle.last_slot >= self._stop_slot - 1:
                continue
            if now - handle.last_frame > self._stall_timeout:
                self._detach(handle)
                handle.process.terminate()
                self._on_death(handle)

    async def _shutdown(self) -> None:
        for timer in self._restart_due.values():
            timer.cancel()
        self._restart_due.clear()
        drain = {"type": DRAIN}
        self._broadcast(drain, self._handles)  # noqa: RPL012 - bounded retry backoff
        await self._retire(self._handles)

    async def _retire(self, handles: list[_Shard]) -> None:
        """Stop reading from ``handles``, wait for their processes to exit
        (terminating stragglers after 10 s), and close their pipes."""
        for handle in handles:
            self._detach(handle)
        await self._until(
            lambda: all(h.exited for h in handles), 10.0, check=False
        )
        loop = asyncio.get_running_loop()
        for handle in handles:
            if not handle.exited:
                loop.remove_reader(handle.process.sentinel)
                handle.exited = True
                handle.process.terminate()
            handle.process.join(timeout=5.0)
            try:
                handle.conn.close()
            except OSError:
                pass

    # -- live reconfiguration ----------------------------------------------

    async def _apply_reconfig(self, barrier: int) -> None:
        """Drain, reshape, and respawn the fleet at a quiescent barrier.

        Every slot below ``barrier`` is folded and releases were capped at
        ``barrier - 1``, so each worker's kernels are settled at state
        ``barrier``: the drain checkpoint is exact, and a worker that dies
        mid-drain falls back to its last restart checkpoint (the slots in
        between were folded from real outcomes, which the deterministic
        catch-up re-steps bit-exactly).
        """
        assert self._reconfig is not None
        handles = list(self._handles)
        # The full respawn below supersedes any pending restart tickets.
        for timer in self._restart_due.values():
            timer.cancel()
        self._restart_due.clear()
        self._death_ts.clear()
        self._reconfiguring = True
        try:
            states = await self._request_states(
                {"type": RECONFIG, "barrier": barrier},
                handles,
                f"their drain at reconfig barrier {barrier}",
            )
            await self._retire(handles)
        finally:
            self._reconfiguring = False
        for frame in states.values():
            for e, kernel_state in frame["edges"].items():
                self._edge_payloads[e] = (
                    kernel_state,
                    frame["adapters"][e],
                    barrier,
                    "live",
                )
        active = set(self._active)
        workers = self._num_workers
        old_count = len(active)
        for op in self._reconfig.ops_at(barrier):
            active, workers = apply_op(op, active, workers, self.num_edges)
            self._reconfigs.increment()
            if self.tracer.enabled:
                self.tracer.emit(
                    ReconfigAppliedEvent(
                        t=barrier,
                        op=op.kind,
                        edge=getattr(op, "edge", -1),
                        active_edges=len(active),
                        num_workers=workers,
                    )
                )
        self._active = tuple(sorted(active))
        self._num_workers = workers
        for e in range(self.num_edges):
            if e not in active:
                self._mark_offline(e, barrier)
        if len(active) != old_count:
            # Deterministic dual-state and trade-bound rescale; a factor
            # of 1.0 short-circuits, keeping no-op plans bit-exact.
            self.trading_kernel.rescale_fleet(len(active) / old_count)
        self.shards = self._partition(self._active, workers)
        new_handles = [
            self._spawn_worker(
                w,
                edges,
                start=barrier,
                stop=self._stop_slot,
                replay_from=barrier,
                generation=0,
            )
            for w, edges in enumerate(self.shards)
        ]
        self._handles[:] = new_handles
        self._owner = {e: h for h in new_handles for e in h.edges}
        await self._await_ready(new_handles)

    async def _collect_snapshot(
        self, t: int
    ) -> tuple[list[object], list[object]] | None:
        """Every worker's edge states at the boundary after slot ``t``.

        ``None`` skips this boundary.  Degraded runs are not resumable —
        once any shard is dead, snapshots are skipped (the run still
        completes under ``degrade``).  Boundaries that race a pending or
        in-flight restart are skipped too: a replaying incarnation's
        kernels are not at the boundary state.
        """
        if self._restart_due or any(
            h.failed or h.restarting for h in self._handles
        ):
            return None
        if any(h.live_from > t + 1 for h in self._handles):
            return None  # a respawned worker is still past-due
        deaths = self._shard_deaths.value
        states = await self._request_states(
            {"type": SNAPSHOT_REQUEST},
            self._handles,
            "their snapshot state",
            abort=lambda: self._shard_deaths.value != deaths,
        )
        if self._shard_deaths.value != deaths:
            return None  # a death raced the snapshot; skip persisting
        edges: list[object] = [None] * self.num_edges
        adapters: list[object] = [None] * self.num_edges
        for frame in states.values():
            for e, kernel_state in frame["edges"].items():
                edges[e] = kernel_state
            for e, adapter_state in frame["adapters"].items():
                adapters[e] = adapter_state
        missing = [e for e in range(self.num_edges) if edges[e] is None]
        if missing:
            # Never persist a torn snapshot — resuming one would silently
            # corrupt the run.
            raise RuntimeError(
                f"snapshot at slot {t + 1} is missing state for edges "
                f"{missing}; a worker exited before answering"
            )
        return edges, adapters


#: The runtime's other public names: both bind the one class.
ShardRuntime = ServeRuntime
make_runtime = ServeRuntime
runtime_from_snapshot = ServeRuntime.from_snapshot


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
