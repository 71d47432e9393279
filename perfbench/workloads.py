"""The four benchmark workloads, driven through the program's public API.

Every workload is built from one seed and runs as repeated *reps*: one rep
sets up the scenario, policies and runtime (``setup_s``), then runs the
whole horizon once (the timed region), then checks what it produced.  The
checks sit outside the timed region and never change what is timed.

``sim-fleet``, ``sim-observed`` and ``serve-saturate`` share one synthetic
:class:`~repro.spec.RunSpec`, so their digests and throughputs compare
directly.  ``serve-paced`` is an open loop on its own fleet.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.data.streams import ArrivalProcess
from repro.faults.plan import (
    DownloadFailure,
    EdgeOutage,
    FaultPlan,
    FeedbackLoss,
    MarketOutage,
    TradeRejection,
)
from repro.ingress.config import IngressConfig
from repro.obs.events import ArrivalEvent
from repro.obs.sinks import JsonlSink
from repro.obs.tracer import Tracer
from repro.serve.config import ServeConfig
from repro.serve.shard import ShardRuntime, make_runtime
from repro.sim.config import ScenarioConfig
from repro.sim.io import result_digest
from repro.sim.scenario import build_scenario
from repro.sim.simulator import Simulator
from repro.spec import RunSpec

__all__ = [
    "SIZES",
    "WORKLOADS",
    "CountersOnly",
    "Rep",
    "ServePaced",
    "ServeSaturate",
    "SimFleet",
    "SimObserved",
    "Size",
    "Workload",
    "arrival_grid",
    "in_child",
    "peak_rss_kb",
    "quarter_growth_ms",
]


@dataclass(frozen=True)
class Size:
    """Fleet dimensions for one benchmark size."""

    edges: int  # shared spec (sim-fleet, sim-observed, serve-saturate)
    horizon: int
    paced_edges: int  # serve-paced fleet
    paced_horizon: int  # slots per serve-paced rep
    slot_s: float  # serve-paced slot duration (offered rate = edges / slot_s)


SIZES = {
    # 128 edges over half a day of 15-minute slots.  The paced fleet offers
    # 64 edges per 12 ms slot, about half of what two workers sustain with
    # ingress on (see README.md).
    "full": Size(edges=128, horizon=48, paced_edges=64, paced_horizon=128, slot_s=0.012),
    # Self-test size: every code path, a second or two per workload.
    "tiny": Size(edges=8, horizon=16, paced_edges=4, paced_horizon=32, slot_s=0.01),
}


@dataclass
class Rep:
    """What one rep measured and produced."""

    setup_s: float
    run_s: float  # wall seconds of the timed region
    parent_cpu_s: float  # CPU of this process in the timed region
    child_cpu_s: float  # CPU of worker processes in the timed region
    slot_edges: int
    latencies_ms: list[float]  # one per slot: due time to delivery
    offered: int  # events offered to the edges
    served: int
    shed: int
    offline: int
    total_cost: float
    emissions_kg: float
    final_fit_kg: float
    digest: str
    errors: list[str] = field(default_factory=list)
    # Request-level accounting (serve-paced; zero elsewhere).
    requests_in: int = 0
    requests_deferred: int = 0
    requests_dropped: int = 0
    deadline_hits: int = 0
    deadline_misses: int = 0
    # serve-paced stage samples in seconds, keyed by stage name.
    stages: dict[str, list[float]] = field(default_factory=dict)
    events: dict[str, int] = field(default_factory=dict)
    # Largest peak resident set of this rep's worker processes (serve-paced).
    worker_peak_rss_kb: int = 0
    # Reference calibration time over this rep's (``run.py``): below 1
    # when the host ran slower than the reference.
    speed: float = 1.0

    @property
    def cpu_s(self) -> float:
        return self.parent_cpu_s + self.child_cpu_s


class CountersOnly(Tracer):
    """A tracer with fresh named counters and event emission off.

    The runtimes keep their accounting counters on the tracer they are
    given; ``enabled = False`` makes every event site skip, so a run with
    this tracer does the work of an untraced run.
    """

    enabled = False


def _cpu() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


def _live_cpu_s(pid: int) -> float:
    """CPU seconds a live process has used so far (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_kb(pid: int | str) -> int:
    """Peak resident set of a live process so far (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def in_child(compute):
    """``compute()``, run in a forked child process.

    Reference runs go through here so their memory never counts toward the
    benchmark process's peak resident set.  The benchmark starts no
    threads, so forking is safe, as it is for the shard runtime's workers.
    """
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)

    def target() -> None:
        try:
            send.send((True, compute()))
        except BaseException as exc:
            send.send((False, repr(exc)))
            raise

    child = context.Process(target=target)
    child.start()
    send.close()
    try:
        ok, value = receive.recv()
    finally:
        child.join()
    if not ok:
        raise RuntimeError(f"reference run failed: {value}")
    return value


#: Seed of the deployment every run simulates: topology, model profiles,
#: price and workload traces.  It is fixed on purpose.  In about 30% of
#: scenario seeds the cloud site falls outside the coastal cluster, download
#: delays roughly triple, Algorithm 1 opens a third fewer blocks, and the
#: same program runs a quarter faster, so a scenario drawn per seed made the
#: figures bimodal across seeds.
SCENARIO_SEED = 0


def _seeds(seed: int) -> tuple[int, int]:
    """Run and arrival-grid seeds derived from the workload seed."""
    run_seed, grid_seed = np.random.SeedSequence(seed).generate_state(2)
    return int(run_seed), int(grid_seed)


def _outcome_fields(result, weights) -> dict:
    return {
        "total_cost": result.total_cost(weights),
        "emissions_kg": float(result.emissions.sum()),
        "final_fit_kg": result.final_fit(),
        "digest": result_digest(result),
    }


class Workload:
    """Base: one workload's inputs, references and rep loop."""

    name = ""
    #: What ``attempted``/``failed`` count for this workload.
    unit = "slot-edges"
    #: Whether the wall clock, not the program, sets the slot rate.
    open_loop = False
    #: Whether each slot is delivered on its own, giving one latency sample
    #: per slot; a batch run delivers every slot at once.
    per_slot_latency = False
    #: Processes that time the calibration loop together: one per CPU the
    #: workload keeps busy (see ``calibrate.py``).
    calibration_processes = 1

    def __init__(self, seed: int, size: Size, workdir: Path) -> None:
        self.size = size
        self.workdir = workdir
        self.run_seed, self.grid_seed = _seeds(seed)

    def shared_spec(self) -> RunSpec:
        size = self.size
        scenario = ScenarioConfig(
            dataset="synthetic",
            num_edges=size.edges,
            horizon=size.horizon,
            num_models=4,
            seed=SCENARIO_SEED,
        )
        return RunSpec(scenario=scenario, selection="Ours", trading="Ours", seed=self.run_seed)

    def prepare(self) -> None:
        """Build inputs and reference outputs; runs once, outside timing."""

    def rep(self) -> Rep:
        raise NotImplementedError

    def close(self) -> None:
        """Remove files this workload wrote."""


class SimFleet(Workload):
    """Clean batch simulation: takes the vectorized path."""

    name = "sim-fleet"

    def prepare(self) -> None:
        self.spec = self.shared_spec()
        spec = self.spec

        def scalar_loop() -> str:
            # The scalar loop is the program's reference for the fast path.
            scenario = spec.build_scenario()
            return result_digest(Simulator.from_spec(scenario, spec).run(vectorized=False))

        self.reference = in_child(scalar_loop)

    def make_simulator(self) -> Simulator:
        return Simulator.from_spec(self.spec.build_scenario(), self.spec)

    def rep(self) -> Rep:
        started = time.perf_counter()
        sim = self.make_simulator()
        ready = time.perf_counter()
        cpu0, _ = _cpu()
        result = sim.run()
        done = time.perf_counter()
        cpu1, _ = _cpu()
        run_s = done - ready
        horizon = self.spec.scenario.horizon
        outcome = _outcome_fields(result, self.spec.scenario.weights)
        served = int(result.arrivals.sum())
        offered = self.offered(served)
        rep = Rep(
            setup_s=ready - started,
            run_s=run_s,
            parent_cpu_s=cpu1 - cpu0,
            child_cpu_s=0.0,
            slot_edges=horizon * self.spec.scenario.num_edges,
            # A batch run delivers every slot when it returns.
            latencies_ms=[run_s * 1e3],
            offered=offered,
            served=served,
            shed=0,
            offline=offered - served,
            **outcome,
        )
        rep.events = sim.tracer.event_counts()
        if rep.digest != self.reference:
            rep.errors.append(
                f"digest {rep.digest[:16]} != reference {self.reference[:16]}"
            )
        return rep

    def offered(self, served: int) -> int:
        return served


class SimObserved(SimFleet):
    """The shared spec with a live tracer, faults and delayed labels.

    Any of the three keeps the run on the scalar per-edge loop today.
    """

    name = "sim-observed"

    def prepare(self) -> None:
        base = self.shared_spec()
        size = self.size
        rng = np.random.default_rng(self.grid_seed)
        horizon, edges = size.horizon, size.edges
        outage_start = int(rng.integers(0, horizon // 2))
        plan = FaultPlan(
            (
                EdgeOutage(
                    edge=int(rng.integers(0, edges)),
                    start=outage_start,
                    end=outage_start + max(1, horizon // 8),
                ),
                FeedbackLoss(probability=0.05),
                DownloadFailure(probability=0.1),
                MarketOutage(start=horizon // 4, end=horizon // 4 + max(1, horizon // 16)),
                TradeRejection(probability=0.05),
            )
        )
        self.spec = spec = base.with_overrides(faults=plan, label_delay=2)

        def references() -> tuple[str, int]:
            # The same run without the tracer.  Offered events come from the
            # clean run, whose arrival streams faults do not touch.
            scenario = spec.build_scenario()
            observed = Simulator.from_spec(scenario, spec).run()
            clean = Simulator.from_spec(scenario, base).run()
            return result_digest(observed), int(clean.arrivals.sum())

        self.reference, self._offered = in_child(references)

    def make_simulator(self) -> Simulator:
        # A live tracer with no sinks: events are built and tallied, no I/O.
        return Simulator.from_spec(self.spec.build_scenario(), self.spec, tracer=Tracer())

    def offered(self, served: int) -> int:
        return self._offered


def _counter(tracer: Tracer, name: str) -> int:
    return int(tracer.counter(name).value)


def _accounting_errors(tracer: Tracer) -> tuple[dict[str, int], list[str]]:
    counts = {
        key: _counter(tracer, f"serve/{name}")
        for key, name in (
            ("offered", "events_in"),
            ("served", "events_served"),
            ("shed", "events_shed"),
            ("offline", "events_dropped_offline"),
        )
    }
    errors = []
    if counts["offered"] != counts["served"] + counts["shed"] + counts["offline"]:
        errors.append(f"events_in != served + shed + offline: {counts}")
    return counts, errors


class ServeSaturate(Workload):
    """The shared spec served in-process on a free-running wall clock.

    Closed loop: the runtime keeps ``pipeline_depth`` slots in flight, so a
    slot is due when it is released and delivered when it is folded.
    """

    name = "serve-saturate"
    per_slot_latency = True

    def prepare(self) -> None:
        spec = self.shared_spec()
        self.weights = spec.scenario.weights
        self.config = ServeConfig(
            scenario=spec.scenario,
            selection=spec.selection,
            trading=spec.trading,
            seed=spec.seed,
            adapter="poisson",
            virtual_clock=False,
            slot_duration=0.0,
            backpressure="block",
            num_workers=1,
        )
        self.reference = in_child(
            lambda: result_digest(Simulator.from_spec(spec.build_scenario(), spec).run())
        )

    def rep(self) -> Rep:
        started = time.perf_counter()
        tracer = CountersOnly()
        runtime = make_runtime(self.config, tracer=tracer)
        ready = time.perf_counter()
        released: dict[int, float] = {}
        folded: list[float] = []
        clock, release, fold = runtime.clock, runtime.clock.release, runtime.aggregator.fold

        async def stamped_release(upto: int) -> None:
            now = time.perf_counter()
            for t in range(clock.released + 1, upto + 1):
                released[t] = now
            await release(upto)

        def stamped_fold(t: int, outcomes) -> None:
            fold(t, outcomes)
            folded.append(time.perf_counter())

        clock.release = stamped_release
        runtime.aggregator.fold = stamped_fold
        cpu0, _ = _cpu()
        result = runtime.run()
        done = time.perf_counter()
        cpu1, _ = _cpu()
        counts, errors = _accounting_errors(tracer)
        scenario = self.config.scenario
        rep = Rep(
            setup_s=ready - started,
            run_s=done - ready,
            parent_cpu_s=cpu1 - cpu0,
            child_cpu_s=0.0,
            slot_edges=scenario.horizon * scenario.num_edges,
            latencies_ms=[(end - released[t]) * 1e3 for t, end in enumerate(folded)],
            errors=errors,
            **counts,
            **_outcome_fields(result, self.weights),
        )
        if rep.digest != self.reference:
            rep.errors.append(
                f"digest {rep.digest[:16]} != sim-fleet {self.reference[:16]}"
            )
        return rep


def arrival_grid(means: np.ndarray, seed: int) -> np.ndarray:
    """A ``(horizon, edges)`` count grid drawn from the scenario's own traffic.

    ``means`` is the scenario's ``workload_means`` (edges x horizon), the
    program's commuter workload model: Zipf skew across edges and the
    morning and evening peaks that make the grid bursty.  Each edge draws
    its counts through the program's :class:`ArrivalProcess` (Poisson
    around the mean, at least one per slot) from its own stream of ``seed``.
    """
    streams = np.random.SeedSequence(seed).spawn(len(means))
    return np.stack(
        [
            ArrivalProcess(row, np.random.default_rng(stream)).sample_slots(len(row))
            for row, stream in zip(means, streams)
        ],
        axis=1,
    )


class ServePaced(Workload):
    """Open loop: 2 worker processes paced by the wall clock, ingress on.

    Slot ``t`` is due ``t * slot_s`` after the first release and delivered
    when the parent folds it.  Arrivals replay a seeded JSONL grid.
    """

    name = "serve-paced"
    unit = "requests"
    open_loop = True
    per_slot_latency = True
    calibration_processes = 2
    # Slots left out of the latency samples at the start of each rep: the
    # first slots of a fresh fleet ran up to 5x the steady latency while
    # the workers warmed up, which a long-running service pays once.
    warmup_slots = 16
    num_workers = 2
    queue_capacity = 2048

    def prepare(self) -> None:
        size = self.size
        scenario = ScenarioConfig(
            dataset="synthetic",
            num_edges=size.paced_edges,
            horizon=size.paced_horizon,
            num_models=4,
            seed=SCENARIO_SEED,
        )
        grid = arrival_grid(build_scenario(scenario).workload_means, self.grid_seed)
        self.grid_total = int(grid.sum())
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.replay_log = self.workdir / f"paced-grid-{os.getpid()}.jsonl"
        sink = JsonlSink(self.replay_log)
        try:
            for t, row in enumerate(grid.tolist()):
                for edge, count in enumerate(row):
                    sink.write(ArrivalEvent(t=t, edge=edge, count=count))
        finally:
            sink.close()
        self.weights = scenario.weights
        self.config = ServeConfig(
            scenario=scenario,
            seed=self.run_seed,
            adapter="replay",
            replay_log=str(self.replay_log),
            virtual_clock=False,
            slot_duration=size.slot_s,
            backpressure="shed",
            queue_capacity=self.queue_capacity,
            num_workers=self.num_workers,
            ingress=IngressConfig().to_dict(),
        )
        # With nothing shed, the paced run must reproduce the lockstep
        # virtual-clock run of the same inputs exactly.
        lockstep = self.config.with_overrides(
            virtual_clock=True, backpressure="block", slot_duration=0.0
        )
        self.reference = in_child(lambda: result_digest(make_runtime(lockstep).run()))

    def close(self) -> None:
        log = getattr(self, "replay_log", None)
        if log is not None:
            log.unlink(missing_ok=True)

    def rep(self) -> Rep:
        started = time.perf_counter()
        tracer = CountersOnly()
        stages: dict[str, list[float]] = {"queue": [], "serve": [], "trade": []}
        folded: list[float] = []
        # Readings taken inside the run, while the workers are alive.  The
        # last slot is released only after this fold, so no worker is done.
        rss_fold = max(1, self.config.scenario.horizon - self.config.pipeline_depth - 1)
        marks: dict[str, float] = {}

        def observe(stage: str, seconds: float) -> None:
            # "trade" is sampled right after each slot's fold, "slot" right
            # after that with the fold-minus-release interval.
            if stage == "trade":
                folded.append(time.perf_counter())
                stages["trade"].append(seconds)
                if len(folded) == 1:
                    # The timed region starts at slot 0's fold; the CPU
                    # spent before it is worker spawn and kernel build.
                    marks["parent_cpu_s"] = _cpu()[0]
                    marks["worker_cpu_s"] = sum(
                        _live_cpu_s(w.pid) for w in multiprocessing.active_children()
                    )
                if len(folded) == rss_fold:
                    marks["worker_rss_kb"] = max(
                        peak_rss_kb(w.pid) for w in multiprocessing.active_children()
                    )
            elif stage == "slot":
                marks.setdefault("origin", folded[-1] - seconds)
            elif stage in stages:
                stages[stage].append(seconds)

        runtime = ShardRuntime(self.config, tracer=tracer, on_stage_sample=observe)
        _, child0 = _cpu()
        result = runtime.run()
        cpu1, child1 = _cpu()
        counts, errors = _accounting_errors(tracer)
        origin = marks["origin"]
        slot_s = self.size.slot_s
        warmup = self.warmup_slots
        ingress = runtime.ingress
        rep = Rep(
            # Construction plus worker spawn and ready, up to the first release.
            setup_s=origin - started,
            run_s=folded[-1] - folded[0],
            parent_cpu_s=cpu1 - marks["parent_cpu_s"],
            child_cpu_s=child1 - child0 - marks["worker_cpu_s"],
            slot_edges=(len(folded) - 1) * self.config.scenario.num_edges,
            latencies_ms=[
                (end - (origin + t * slot_s)) * 1e3
                for t, end in enumerate(folded)
                if t >= warmup
            ],
            errors=errors,
            requests_in=ingress.requests_in,
            requests_deferred=ingress.requests_deferred,
            requests_dropped=ingress.requests_dropped,
            deadline_hits=ingress.deadline_hits,
            deadline_misses=ingress.deadline_misses,
            stages=stages,
            worker_peak_rss_kb=int(marks["worker_rss_kb"]),
            **counts,
            **_outcome_fields(result, self.weights),
        )
        if not ingress.accounting_ok(rep.served, rep.shed, rep.offline):
            rep.errors.append(
                "requests_in != served + shed + offline + dropped: "
                f"{ingress.requests_in} vs {rep.served} + {rep.shed} + "
                f"{rep.offline} + {ingress.requests_dropped}"
            )
        if ingress.requests_in != self.grid_total:
            rep.errors.append(
                f"requests_in {ingress.requests_in} != grid total {self.grid_total}"
            )
        if rep.shed == 0 and rep.digest != self.reference:
            rep.errors.append(
                f"digest {rep.digest[:16]} != lockstep {self.reference[:16]}"
            )
        return rep


WORKLOADS = {cls.name: cls for cls in (SimFleet, SimObserved, ServeSaturate, ServePaced)}


def quarter_growth_ms(latencies_ms: list[float]) -> float:
    """Median latency of the last quarter of slots minus the first quarter's."""
    quarter = max(1, len(latencies_ms) // 4)
    return statistics.median(latencies_ms[-quarter:]) - statistics.median(
        latencies_ms[:quarter]
    )
