"""Wall-clock soak harness for the serving runtime.

``repro soak`` drives :class:`~repro.serve.shard.ServeRuntime` under the
deterministic load shapes of :mod:`repro.serve.load` — in the parent
process as a local shard at one worker, in worker processes above that —
and reports, per shape:

* per-stage latency quantiles (p50/p95/p99) from a streaming P² sketch,
  fed through the runtime's ``on_stage_sample`` seam —
  ``queue`` (enqueue to dequeue where the edge runs), ``serve`` (kernel step),
  ``trade`` (parent fold + allowance-trading step), and ``slot``
  (release to fold, end-to-end);
* throughput (served events per wall second);
* the accounting equation ``in == served + shed + offline``, checked
  *exactly* — a soak that leaks or double-counts events fails its run;
* under ``--chaos`` (a :class:`~repro.serve.chaos.ChaosPlan`), the
  self-healing gate: injected worker kills must be healed by supervised
  restarts (``on_worker_death`` defaults to ``"restart"`` when chaos is
  given), every arrival must still be accounted for, and the
  death-to-serving recovery latency is tracked as its own ``recovery``
  stage (p50/p95/p99 in the report);
* under ``--ingress`` (an :class:`~repro.ingress.IngressConfig`), the
  request-level accounting gate ``requests_in == served + shed + offline
  + dropped``, per-class deadline-hit rates, and deferral-latency
  quantiles as the ``deferral`` stage.  Unlike every other stage, the
  ``deferral`` sketch observes waits in units of *slots* (its ``_s`` keys
  read as slots): deferral is a scheduling decision on the slot grid, not
  a wall-clock measurement.

Reports are schema-versioned JSON (``SOAK_FORMAT_VERSION``) and project
onto :class:`~repro.bench.report.BenchReport` via
:meth:`SoakReport.to_bench_report`, so soak baselines ride the same
``repro bench --check`` comparison gate as the microbenchmarks.

The latency sketch is the P² algorithm (Jain & Chlamtac 1985): five
markers per tracked quantile, O(1) memory and update time, no sample
buffer — suitable for soaks of unbounded length.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.bench.report import BenchReport, BenchResult, machine_fingerprint
from repro.obs.tracer import Tracer
from repro.serve.chaos import ChaosPlan
from repro.serve.config import ServeConfig
from repro.serve.load import SHAPE_NAMES, make_load_grid
from repro.serve.reconfig import ReconfigPlan
from repro.serve.shard import ServeRuntime
from repro.sim.config import ScenarioConfig

if TYPE_CHECKING:  # import cycle: repro.ingress imports repro.serve
    from repro.ingress.config import IngressConfig

__all__ = [
    "DEFERRAL_STAGE",
    "SOAK_FORMAT_VERSION",
    "P2Quantile",
    "SoakReport",
    "StageStats",
    "run_soak",
    "run_soak_suite",
]

#: Format tag written into serialized soak reports; bump on breaking changes.
#: v2 added the self-healing fields (worker_deaths/restarts/reconfigs/
#: degraded_workers/recovery_ok) and the ``recovery`` latency stage.
#: v3 added the ``ingress`` request-accounting summary and the ``deferral``
#: wait stage (units: slots, not seconds).
SOAK_FORMAT_VERSION = 3

#: Latency stages a soak run always tracks, in pipeline order.
STAGES = ("queue", "serve", "trade", "slot")

#: Extra stage tracked under a restart policy: worker death to its first
#: live outcome after a supervised respawn.
RECOVERY_STAGE = "recovery"

#: Extra stage tracked under ingress: slots a released request waited past
#: its arrival slot.  The only stage whose unit is slots, not seconds.
DEFERRAL_STAGE = "deferral"

#: Quantiles every stage sketch tracks.
QUANTILES = (0.5, 0.95, 0.99)


class P2Quantile:
    """Streaming estimate of one quantile via the P² algorithm.

    Five markers track the running minimum, maximum, the target quantile,
    and its two flanking mid-quantiles; marker heights move by parabolic
    (falling back to linear) interpolation as observations arrive.  Exact
    while fewer than five observations have been seen.
    """

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self.count = 0
        self._initial: list[float] = []
        self._heights: list[float] = []
        self._positions: list[float] = []
        self._desired: list[float] = []
        self._increments = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)

    def add(self, x: float) -> None:
        """Fold one observation into the sketch."""
        self.count += 1
        if self.count <= 5:
            self._initial.append(float(x))
            if self.count == 5:
                q = self.q
                self._heights = sorted(self._initial)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [
                    1.0,
                    1.0 + 2.0 * q,
                    1.0 + 4.0 * q,
                    3.0 + 2.0 * q,
                    5.0,
                ]
            return
        heights, positions = self._heights, self._positions
        if x < heights[0]:
            heights[0] = x
            cell = 0
        elif x >= heights[4]:
            heights[4] = x
            cell = 3
        else:
            cell = 0
            while x >= heights[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        # Nudge the three interior markers toward their desired positions.
        for i in (1, 2, 3):
            drift = self._desired[i] - positions[i]
            room_up = positions[i + 1] - positions[i]
            room_down = positions[i - 1] - positions[i]
            if (drift >= 1.0 and room_up > 1.0) or (
                drift <= -1.0 and room_down < -1.0
            ):
                step = 1.0 if drift > 0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step)
            * (h[i + 1] - h[i])
            / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step)
            * (h[i] - h[i - 1])
            / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    def value(self) -> float:
        """The current quantile estimate (``nan`` before any observation)."""
        if self.count == 0:
            return float("nan")
        if self.count <= 5:
            ordered = sorted(self._initial)
            index = min(len(ordered) - 1, round(self.q * (len(ordered) - 1)))
            return ordered[int(index)]
        return self._heights[2]


class StageStats:
    """Count/mean/max plus P² quantile sketches for one pipeline stage."""

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.peak = 0.0
        self._sketches = {q: P2Quantile(q) for q in QUANTILES}

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds > self.peak:
            self.peak = seconds
        for sketch in self._sketches.values():
            sketch.add(seconds)

    def summary(self) -> dict[str, float]:
        mean = self.total / self.count if self.count else float("nan")
        payload = {"count": self.count, "mean_s": mean, "max_s": self.peak}
        for q, sketch in self._sketches.items():
            payload[f"p{int(q * 100)}_s"] = sketch.value()
        return payload


@dataclass(frozen=True)
class SoakReport:
    """One load shape's soak outcome: accounting, throughput, latency."""

    shape: str
    seed: int
    num_edges: int
    num_workers: int
    horizon: int
    total_events: int
    wall_seconds: float
    events_in: int
    events_served: int
    events_shed: int
    events_dropped_offline: int
    accounting_ok: bool
    throughput_eps: float
    stages: dict[str, dict[str, float]] = field(default_factory=dict)
    worker_deaths: int = 0
    restarts: int = 0
    reconfigs: int = 0
    degraded_workers: int = 0
    recovery_ok: bool = True
    #: Request-level accounting summary (:meth:`IngressStats.summary`)
    #: when the soak ran with an ingress tier; ``None`` otherwise.
    ingress: dict | None = None

    def to_dict(self) -> dict[str, object]:
        return {
            "format_version": SOAK_FORMAT_VERSION,
            "shape": self.shape,
            "seed": self.seed,
            "num_edges": self.num_edges,
            "num_workers": self.num_workers,
            "horizon": self.horizon,
            "total_events": self.total_events,
            "wall_seconds": self.wall_seconds,
            "events_in": self.events_in,
            "events_served": self.events_served,
            "events_shed": self.events_shed,
            "events_dropped_offline": self.events_dropped_offline,
            "accounting_ok": self.accounting_ok,
            "throughput_eps": self.throughput_eps,
            "stages": {name: dict(stats) for name, stats in self.stages.items()},
            "worker_deaths": self.worker_deaths,
            "restarts": self.restarts,
            "reconfigs": self.reconfigs,
            "degraded_workers": self.degraded_workers,
            "recovery_ok": self.recovery_ok,
            "ingress": dict(self.ingress) if self.ingress is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SoakReport":
        version = payload.get("format_version")
        if version != SOAK_FORMAT_VERSION:
            raise ValueError(
                f"unsupported soak format_version {version!r} "
                f"(this build reads {SOAK_FORMAT_VERSION})"
            )
        fields = dict(payload)
        fields.pop("format_version")
        return cls(**fields)

    def to_bench_report(self, *, mode: str = "smoke") -> BenchReport:
        """Project onto the bench schema so soaks ride the compare gate.

        Each stage quantile becomes a wall-time case (``<stage>/p95`` etc.),
        throughput and the served fraction become derived ratios — ratios
        always gate, machine-independently, so a soak baseline catches
        "the shard pipeline got slower relative to itself" anywhere.
        """
        results = []
        meta = {"shape": self.shape, "seed": self.seed}
        for stage, stats in self.stages.items():
            if stage == DEFERRAL_STAGE:
                continue  # measured in slots, not seconds — wrong unit here
            for key in ("p50_s", "p95_s", "p99_s"):
                value = stats.get(key)
                if value is None or value != value:  # missing or NaN
                    continue
                results.append(
                    BenchResult(
                        name=f"{stage}/{key.removesuffix('_s')}",
                        wall_seconds=max(float(value), 1e-9),
                        cpu_seconds=0.0,
                        rounds=1,
                        work=1.0,
                        unit="slot",
                        meta=meta,
                    )
                )
        results.append(
            BenchResult(
                name="soak/run",
                wall_seconds=max(self.wall_seconds, 1e-9),
                cpu_seconds=0.0,
                rounds=1,
                work=float(self.horizon * self.num_edges),
                unit="slot-edges",
                meta=meta,
            )
        )
        served_fraction = (
            self.events_served / self.events_in if self.events_in else 0.0
        )
        return BenchReport(
            suite=f"soak_{self.shape}",
            machine=machine_fingerprint(),
            results=tuple(results),
            ratios={
                "throughput_eps": self.throughput_eps,
                "served_fraction": served_fraction,
            },
            mode=mode,
        )


def run_soak(
    shape: str,
    *,
    num_edges: int,
    num_workers: int,
    horizon: int,
    total_events: int,
    seed: int = 0,
    slot_duration: float = 0.0,
    num_models: int = 4,
    n_test: int = 200,
    queue_capacity: int = 4096,
    chaos: ChaosPlan | None = None,
    reconfig: ReconfigPlan | None = None,
    on_worker_death: str | None = None,
    ingress: "IngressConfig | None" = None,
) -> SoakReport:
    """Soak one load shape through a wall-clock run on ``num_workers``.

    Wall clock with shedding backpressure — the production-shaped
    configuration — and ``slot_duration=0`` free-running by default so CI
    smokes are bounded by compute, not by sleeping.

    A ``chaos`` plan flips the death policy to ``"restart"`` (unless
    ``on_worker_death`` overrides it) so the soak exercises the
    self-healing path, and the report gains recovery-latency quantiles
    plus the healing tallies.  ``accounting_ok`` stays the exact equation;
    the volume leg — ``events_in`` equals the load grid's total over the
    cells whose edge is active in their slot, since a ``reconfig`` plan's
    removed edge folds offline with zero arrivals — is only waived when a
    shard genuinely degraded (its unserved slots legitimately never
    arrived).

    An ``ingress`` config mounts the request-level tier above the shape
    adapter: the report gains the ``ingress`` accounting summary, the
    ``deferral`` wait stage (units: slots), and ``accounting_ok`` also
    requires the request identity ``requests_in == served + shed +
    offline + dropped`` (waived, like the volume leg, only when a shard
    degraded — a dead worker's queued requests legitimately never
    resolved).
    """
    injecting = chaos is not None and not chaos.is_empty
    policy = on_worker_death or ("restart" if injecting else "fail")
    scenario = ScenarioConfig(
        dataset="synthetic",
        num_edges=num_edges,
        horizon=horizon,
        num_models=num_models,
        n_test=n_test,
        seed=seed,
    )
    config = ServeConfig(
        scenario=scenario,
        seed=seed,
        label=f"soak-{shape}",
        adapter="shape",
        shape=shape,
        shape_total_events=total_events,
        shape_seed=seed,
        virtual_clock=False,
        backpressure="shed",
        slot_duration=slot_duration,
        queue_capacity=queue_capacity,
        num_workers=num_workers,
        on_worker_death=policy,
        ingress=ingress.to_dict() if ingress is not None else None,
    )
    tracked = STAGES + ((RECOVERY_STAGE,) if policy == "restart" else ())
    if ingress is not None:
        tracked = tracked + (DEFERRAL_STAGE,)
    stats = {stage: StageStats() for stage in tracked}

    def observe(stage: str, seconds: float) -> None:
        stage_stats = stats.get(stage)
        if stage_stats is None:
            stage_stats = stats[stage] = StageStats()
        stage_stats.observe(seconds)

    tracer = Tracer()  # fresh counters per run; no event sinks
    runtime = ServeRuntime(
        config,
        tracer=tracer,
        on_stage_sample=observe,
        chaos=chaos,
        reconfig=reconfig,
    )
    started = time.monotonic()
    runtime.run()
    wall_seconds = time.monotonic() - started
    events_in = tracer.counter("serve/events_in").value
    events_served = tracer.counter("serve/events_served").value
    events_shed = tracer.counter("serve/events_shed").value
    events_dropped = tracer.counter("serve/events_dropped_offline").value
    worker_deaths = tracer.counter("serve/shard_deaths").value
    restarts = tracer.counter("serve/restarts").value
    reconfigs = tracer.counter("serve/reconfigs").value
    degraded = sum(1 for s in runtime.health()["shards"] if s["failed"])
    expected_in = total_events
    if reconfig is not None and not reconfig.is_empty:
        grid = make_load_grid(
            shape,
            horizon=horizon,
            num_edges=num_edges,
            total_events=total_events,
            seed=seed,
        )
        expected_in = sum(
            int(grid[t, edge])
            for t in range(horizon)
            for edge in reconfig.fleet_at(
                capacity=num_edges, num_workers=num_workers, upto_slot=t
            )[0]
        )
    ingress_summary = None
    ingress_ok = True
    volume_in = events_in
    if runtime.ingress is not None:
        ingress_summary = runtime.ingress.summary()
        ingress_ok = (
            runtime.ingress.accounting_ok(
                events_served, events_shed, events_dropped
            )
            or degraded > 0
        )
        # Thinning conserves counts, so the volume leg moves up one level:
        # every shaped event must appear as a request.
        volume_in = runtime.ingress.requests_in
    return SoakReport(
        shape=shape,
        seed=seed,
        num_edges=num_edges,
        num_workers=num_workers,
        horizon=horizon,
        total_events=total_events,
        wall_seconds=wall_seconds,
        events_in=events_in,
        events_served=events_served,
        events_shed=events_shed,
        events_dropped_offline=events_dropped,
        accounting_ok=(
            events_in == events_served + events_shed + events_dropped
            and (volume_in == expected_in or degraded > 0)
            and ingress_ok
        ),
        throughput_eps=(
            events_served / wall_seconds if wall_seconds > 0 else 0.0
        ),
        stages={stage: stat.summary() for stage, stat in stats.items()},
        worker_deaths=worker_deaths,
        restarts=restarts,
        reconfigs=reconfigs,
        degraded_workers=degraded,
        recovery_ok=(worker_deaths == 0 or degraded == 0),
        ingress=ingress_summary,
    )


def run_soak_suite(shapes: tuple[str, ...] = SHAPE_NAMES, **kwargs) -> list[SoakReport]:
    """Run :func:`run_soak` for each shape with shared sizing kwargs."""
    return [run_soak(shape, **kwargs) for shape in shapes]
