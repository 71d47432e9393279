"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sim-fleet --seed 0 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
workload repeats set-up plus one full run until ``--seconds`` have passed
(at least a few times) and reports medians over those reps.  Every rep's
outputs are checked; a failed check marks the result incorrect and the
process exits with code 1 after printing it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with every layer boundary wrapped
(``spans.py``) and prints the per-layer metrics, including the tracing
overhead between the two halves.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--size tiny`` shrinks every fleet for the self-test (``selftest.py``).
See README.md for the workloads, the metrics and what each layer should
move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: A seed kept out of tuning; run it to confirm a result on unseen inputs.
HELD_OUT_SEED = 7919

#: Calibration loop time of the reference host (``calibrate.py``), by the
#: number of loop processes run together.  Time metrics are reported at
#: that speed: each rep's times are multiplied by this over the mean of the
#: calibrations run just before and after it.  The reference host is a
#: 2-vCPU VM whose two vCPUs share about one CPU of capacity.
CALIBRATION_REF_S = {1: 0.008, 2: 0.016}

#: End-to-end metrics, in print order, with their units.
END_TO_END = {
    "setup_s": "s",
    "slot_edges_per_s": "1/s",
    "cpu_us_per_slot_edge": "us",
    "slot_latency_p50_ms": "ms",
    "served_fraction": "fraction",
    "deadline_hit_rate": "fraction",
    "peak_rss_mb": "MB",
    "total_cost": "cost",
    "total_emissions_kg": "kg",
}

#: Per-layer metrics from the traced run, with their units.  Values are per
#: rep (one full horizon) unless the name says otherwise; a layer that the
#: workload does not reach reads 0.
PER_LAYER = {
    "sim.scenario.build_s": "s",
    "data.arrival.calls": "count",
    "data.arrival.self_s": "s",
    "core.block_open.count": "count",
    "core.block_open.self_s": "s",
    "core.block_open.rows_per_batch": "rows",
    "core.fold.calls": "count",
    "core.fold.self_s": "s",
    "sim.vector.self_s": "s",
    "energy.emissions.self_s": "s",
    "sim.kernel.edge_step.calls": "count",
    "sim.kernel.edge_step.self_s": "s",
    "market.trade.calls": "count",
    "market.trade.self_s": "s",
    "market.trade.rejected": "count",
    "market.final_fit_kg": "kg",
    "obs.events": "count",
    "obs.emit.self_s": "s",
    "faults.injected": "count",
    "faults.retries": "count",
    "faults.feedback_lost": "count",
    "serve.queue.wait_p50_ms": "ms",
    "serve.queue.wait_p99_ms": "ms",
    "serve.step.p50_ms": "ms",
    "serve.step.p99_ms": "ms",
    "serve.trade.p99_ms": "ms",
    "serve.clock.release_lag_p99_ms": "ms",
    "serve.backlog_growth_ms": "ms",
    "serve.fold.self_s": "s",
    "serve.cpu.parent_s": "s",
    "serve.cpu.workers_s": "s",
    "serve.events.in": "count",
    "serve.events.shed": "count",
    "serve.events.offline": "count",
    "ingress.requests_in": "count",
    "ingress.deferred_share": "fraction",
    "ingress.dropped": "count",
    "ingress.deadline_misses": "count",
    "slot_latency.tail_ms": "ms",
    "slot_latency.samples": "count",
    "trace.overhead_pct": "%",
}


def import_program() -> None:
    """Put ``src/`` first on the path and insist the program comes from it."""
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"repro imported from {repro.__file__}, not from {SRC}")


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def machine() -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def reset_peak_rss() -> None:
    """Start this process's peak resident set afresh (Linux ``clear_refs``)."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


def peak_rss_mb(reps) -> float:
    """Peak resident set of this process or its largest worker over the reps."""
    from workloads import peak_rss_kb

    workers = max(rep.worker_peak_rss_kb for rep in reps)
    return max(peak_rss_kb("self"), workers) / 1024.0


def tail_percentile(samples: int) -> float:
    """The highest percentile with ten samples beyond it, from p50 to p99."""
    return min(99.0, max(50.0, 100.0 * (1.0 - 10.0 / samples)))


def run_reps(workload, seconds: float, min_reps: int) -> list:
    from calibrate import calibration_s

    processes = workload.calibration_processes
    reps = []
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < seconds:
        before = calibration_s(processes)
        rep = workload.rep()
        rep.speed = CALIBRATION_REF_S[processes] * 2 / (before + calibration_s(processes))
        reps.append(rep)
    return reps


def scaled(rep, seconds: float) -> float:
    """``seconds`` measured during ``rep``, at the reference host speed."""
    return seconds * rep.speed


def latencies_ms(reps) -> list[float]:
    """Slot latency samples pooled over reps, at the reference host speed."""
    return [scaled(rep, v) for rep in reps for v in rep.latencies_ms]


def end_to_end(reps, workload) -> dict[str, float]:
    offered = sum(rep.offered for rep in reps)
    served = sum(rep.served for rep in reps)
    if workload.unit == "requests":
        # Shed, offline and dropped requests all miss their deadline.
        hit_rate = sum(r.deadline_hits for r in reps) / sum(r.requests_in for r in reps)
    else:
        # Without ingress every event is due in its arrival slot.
        hit_rate = served / offered
    median = statistics.median
    return {
        "setup_s": median(scaled(rep, rep.setup_s) for rep in reps),
        # The open loop's rate is the clock's, so its run time is not scaled.
        "slot_edges_per_s": median(
            rep.slot_edges / (rep.run_s if workload.open_loop else scaled(rep, rep.run_s))
            for rep in reps
        ),
        "cpu_us_per_slot_edge": median(
            scaled(rep, rep.cpu_s) * 1e6 / rep.slot_edges for rep in reps
        ),
        "slot_latency_p50_ms": percentile(latencies_ms(reps), 50),
        "served_fraction": served / offered,
        "deadline_hit_rate": hit_rate,
        "peak_rss_mb": peak_rss_mb(reps),
        "total_cost": median(rep.total_cost for rep in reps),
        "total_emissions_kg": median(rep.emissions_kg for rep in reps),
    }


def per_layer(reps, spans, pace_lag, baseline, workload) -> dict[str, float]:
    from workloads import quarter_growth_ms

    n = len(reps)
    calls, self_s, counts = spans.calls, spans.self_s, spans.counts
    stage = {
        name: [v * 1e3 for rep in reps for v in rep.stages.get(name, [])]
        for name in ("queue", "serve", "trade")
    }
    events: dict[str, int] = {}
    for rep in reps:
        for kind, count in rep.events.items():
            events[kind] = events.get(kind, 0) + count
    if stage["serve"]:
        # Sharded workers step the kernels; their stage samples are the spans.
        step_calls, step_s = len(stage["serve"]), sum(stage["serve"]) / 1e3
    else:
        step_calls, step_s = calls["sim.kernel.edge_step"], self_s["sim.kernel.edge_step"]
    requests_in = sum(rep.requests_in for rep in reps)

    def cpu_per_slot_edge(group) -> float:
        return statistics.median(scaled(rep, rep.cpu_s) / rep.slot_edges for rep in group)

    serving = workload.name.startswith("serve")

    def serve_mean(values) -> float:
        # The batch workloads never reach the serve layer.
        return sum(values) / n if serving else 0.0

    return {
        "sim.scenario.build_s": self_s["sim.scenario.build"] / n,
        "data.arrival.calls": calls["data.arrival"] / n,
        "data.arrival.self_s": self_s["data.arrival"] / n,
        "core.block_open.count": counts["core.block_open.count"] / n,
        "core.block_open.self_s": self_s["core.block_open"] / n,
        "core.block_open.rows_per_batch": (
            counts["core.block_open.rows"] / counts["core.block_open.solves"]
            if counts["core.block_open.solves"]
            else 0.0
        ),
        "core.fold.calls": calls["core.fold"] / n,
        "core.fold.self_s": self_s["core.fold"] / n,
        "sim.vector.self_s": self_s["sim.vector"] / n,
        "energy.emissions.self_s": self_s["energy.emissions"] / n,
        "sim.kernel.edge_step.calls": step_calls / n,
        "sim.kernel.edge_step.self_s": step_s / n,
        "market.trade.calls": calls["market.trade"] / n,
        "market.trade.self_s": self_s["market.trade"] / n,
        "market.trade.rejected": counts["market.trade.rejected"] / n,
        "market.final_fit_kg": statistics.median(rep.final_fit_kg for rep in reps),
        "obs.events": sum(events.values()) / n,
        "obs.emit.self_s": self_s["obs.emit"] / n,
        "faults.injected": events.get("fault_injected", 0) / n,
        "faults.retries": events.get("retry", 0) / n,
        "faults.feedback_lost": events.get("feedback_lost", 0) / n,
        "serve.queue.wait_p50_ms": percentile(stage["queue"], 50),
        "serve.queue.wait_p99_ms": percentile(stage["queue"], 99),
        "serve.step.p50_ms": percentile(stage["serve"], 50),
        "serve.step.p99_ms": percentile(stage["serve"], 99),
        "serve.trade.p99_ms": percentile(stage["trade"], 99),
        "serve.clock.release_lag_p99_ms": (
            percentile(pace_lag.samples_ms(workload.warmup_slots), 99) if pace_lag else 0.0
        ),
        # Only an open loop can build a backlog against its schedule.
        "serve.backlog_growth_ms": (
            statistics.median(quarter_growth_ms(rep.latencies_ms) for rep in reps)
            if workload.open_loop
            else 0.0
        ),
        "serve.fold.self_s": self_s["serve.fold"] / n,
        "serve.cpu.parent_s": serve_mean(rep.parent_cpu_s for rep in reps),
        "serve.cpu.workers_s": serve_mean(rep.child_cpu_s for rep in reps),
        "serve.events.in": serve_mean(rep.offered for rep in reps),
        "serve.events.shed": serve_mean(rep.shed for rep in reps),
        "serve.events.offline": serve_mean(rep.offline for rep in reps),
        "ingress.requests_in": requests_in / n,
        "ingress.deferred_share": (
            sum(rep.requests_deferred for rep in reps) / requests_in if requests_in else 0.0
        ),
        "ingress.dropped": sum(rep.requests_dropped for rep in reps) / n,
        "ingress.deadline_misses": sum(rep.deadline_misses for rep in reps) / n,
        # Latency is measured on the untraced half, like the end-to-end
        # metrics.  A batch run delivers all its slots at once: no tail.
        "slot_latency.tail_ms": (
            percentile(latencies_ms(baseline), tail_percentile(len(latencies_ms(baseline))))
            if workload.per_slot_latency
            else 0.0
        ),
        "slot_latency.samples": sum(len(rep.latencies_ms) for rep in baseline) / len(baseline),
        "trace.overhead_pct": (cpu_per_slot_edge(reps) / cpu_per_slot_edge(baseline) - 1.0) * 100.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(HERE))
    from spans import PaceLag, Spans, install_layers
    from workloads import SIZES, WORKLOADS, quarter_growth_ms

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, SIZES[args.size], HERE / ".work")
    try:
        workload.prepare()
        # The peak resident set covers the reps, not the inputs' set-up.
        reset_peak_rss()
        if args.trace:
            baseline = run_reps(workload, args.seconds / 2, min_reps=2)
            spans = Spans()
            install_layers(spans, worker_side=not workload.open_loop)
            pace_lag = None
            if workload.open_loop:
                # Room for many reps' worker processes.
                pace_lag = PaceLag(workload.config.scenario.horizon, rows=256)
                pace_lag.install(spans)
            try:
                reps = run_reps(workload, args.seconds / 2, min_reps=2)
            finally:
                spans.restore()
            metrics = per_layer(reps, spans, pace_lag, baseline, workload)
            units = PER_LAYER
            reps = baseline + reps
        else:
            reps = run_reps(workload, args.seconds, min_reps=3)
            metrics, units = end_to_end(reps, workload), END_TO_END
    finally:
        workload.close()

    errors = [error for rep in reps for error in rep.errors]
    if workload.unit == "requests":
        attempted = sum(rep.requests_in for rep in reps)
        failed = sum(
            rep.requests_in if rep.errors else rep.deadline_misses + rep.requests_dropped
            for rep in reps
        )
    else:
        attempted = sum(rep.slot_edges for rep in reps)
        failed = sum(rep.slot_edges for rep in reps if rep.errors)

    print(f"# perfbench {args.workload} seed={args.seed} size={args.size} trace={args.trace}")
    print(f"# machine: {json.dumps(machine(), sort_keys=True)}")
    samples = sum(len(rep.latencies_ms) for rep in reps)
    print(f"# reps: {len(reps)}; {samples} slot latency samples")
    if args.trace and workload.per_slot_latency:
        tail_samples = len(latencies_ms(baseline))
        print(f"# latency tail: p{tail_percentile(tail_samples):.2f} of {tail_samples} untraced samples")
    speed = statistics.median(rep.speed for rep in reps)
    print(f"# host speed: {speed:.3f} of the reference (median over reps)")
    print(f"# digest: {reps[0].digest}")
    if workload.open_loop:
        growth = statistics.median(quarter_growth_ms(rep.latencies_ms) for rep in reps)
        if growth > 5 * SIZES[args.size].slot_s * 1e3:
            print(f"# backlog: growing, last quarter {growth:.1f} ms behind the first")
    for error in errors:
        print(f"# check failed: {error}")
    for name, unit in units.items():
        print(f"{name:<34} {metrics[name]:>16.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
