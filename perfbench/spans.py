"""Layer spans recorded from outside the program.

The traced run wraps the public function at each layer boundary of the
program, from this file, and restores the originals afterwards.  Each
wrapper records a span: calls, and self time (the span's duration minus
the part covered by nested spans).  Spans live in memory only.

A layer's name is the span name; several boundaries can feed one name
(the scalar and the batched Tsallis solves are both ``core.block_open``).

Forked worker processes inherit the wrappers but not the recorder's
memory, so only :class:`PaceLag` is installed for a sharded run's
worker side: it writes into memory shared with its forks.
"""

from __future__ import annotations

import asyncio
import functools
import multiprocessing
import os
import time
from collections import defaultdict
from typing import Callable

import repro.core.model_selection as model_selection
import repro.serve.runtime as serve_runtime
import repro.sim.scenario as sim_scenario
import repro.sim.vector as sim_vector
from repro.core.model_selection import OnlineModelSelection
from repro.data.streams import ArrivalProcess
from repro.energy.model import EnergyModel
from repro.market.ledger import AllowanceLedger
from repro.obs.tracer import Tracer
from repro.serve.clock import WallClock
from repro.serve.runtime import SlotAggregator
from repro.sim.kernel import EdgeSlotKernel, TradingSlotKernel

__all__ = ["PaceLag", "Spans", "install_layers"]

OnCall = Callable[[dict, tuple], None]


class Spans:
    """In-memory span recorder: per-name calls, self seconds, extra counts."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # One accumulator per open span: seconds covered by its children.
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(
        self, owner: object, attr: str, name: str, on_call: OnCall | None = None
    ) -> None:
        """Replace ``owner.attr`` by a recording wrapper until :meth:`restore`."""
        # The owner's own namespace, so a restore never shadows an inherited
        # attribute and a missing boundary fails loudly.
        original = vars(owner)[attr]
        stack, calls, self_s, counts = self._stack, self.calls, self.self_s, self.counts
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if on_call is not None:
                on_call(counts, args)
            stack.append(0.0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        self.patch(owner, attr, wrapper)

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every wrapped function back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class PaceLag:
    """How late :meth:`WallClock.pace` let each slot start, in every process.

    A paced clock holds slot ``t`` until ``t * slot_duration`` after its
    first ``pace`` call; the lag is how far past that time the call
    returned, because the slot was released late or the event loop woke
    late.  Each process that paces (one per shard worker) claims a row of
    a shared array on its first call and keeps there, per slot, the lag of
    the latest of its edges.
    """

    def __init__(self, horizon: int, rows: int) -> None:
        context = multiprocessing.get_context("fork")
        self.horizon = horizon
        self._rows = rows
        self._lag_s = context.RawArray("d", rows * horizon)
        self._claimed = context.Value("i", 0)

    def install(self, spans: Spans) -> None:
        original = vars(WallClock)["pace"]
        lag_s, claimed, horizon, rows = self._lag_s, self._claimed, self.horizon, self._rows
        # Per process (a fork starts from the parent's copy, pid included).
        mine = {"pid": None, "row": -1, "origin": 0.0}

        @functools.wraps(original)
        async def pace(clock, t):
            now = asyncio.get_running_loop().time
            if mine["pid"] != os.getpid():
                with claimed.get_lock():
                    row = claimed.value
                    claimed.value += 1
                # The clock's origin is the time of its first pace call.
                mine.update(pid=os.getpid(), row=row, origin=now())
            await original(clock, t)
            row = mine["row"]
            if clock.slot_duration and row < rows and t < horizon:
                lag = now() - (mine["origin"] + t * clock.slot_duration)
                cell = row * horizon + t
                lag_s[cell] = max(lag_s[cell], lag)

        spans.patch(WallClock, "pace", pace)

    def samples_ms(self, skip: int) -> list[float]:
        """Per (process, slot) lags in ms, leaving out each process's first ``skip`` slots."""
        rows = min(self._claimed.value, self._rows)
        return [
            self._lag_s[row * self.horizon + t] * 1e3
            for row in range(rows)
            for t in range(skip, self.horizon)
        ]


def _count(key: str) -> OnCall:
    def on_call(counts: dict, args: tuple) -> None:
        counts[key] += 1

    return on_call


def _solve(rows: Callable[[tuple], int]) -> OnCall:
    def on_call(counts: dict, args: tuple) -> None:
        counts["core.block_open.solves"] += 1
        counts["core.block_open.rows"] += rows(args)

    return on_call


def install_layers(spans: Spans, *, worker_side: bool) -> None:
    """Wrap every layer boundary the run can reach from this process.

    ``worker_side=False`` leaves out the layers that a sharded run executes
    only in its worker processes: forked workers would inherit the
    wrappers, pay for them, and their spans would never reach this process.
    """
    spans.wrap(sim_scenario, "build_scenario", "sim.scenario.build")
    spans.wrap(serve_runtime, "build_scenario", "sim.scenario.build")
    spans.wrap(TradingSlotKernel, "step", "market.trade")
    spans.wrap(
        AllowanceLedger, "record_rejection", "market.reject",
        _count("market.trade.rejected"),
    )
    spans.wrap(SlotAggregator, "fold", "serve.fold")
    spans.wrap(Tracer, "emit", "obs.emit")
    if not worker_side:
        return
    spans.wrap(ArrivalProcess, "sample", "data.arrival")
    spans.wrap(ArrivalProcess, "sample_slots", "data.arrival")
    spans.wrap(
        sim_vector, "tsallis_inf_probabilities_batch", "core.block_open",
        _solve(lambda args: len(args[0])),
    )
    spans.wrap(
        sim_vector, "tsallis_inf_probabilities", "core.block_open",
        _solve(lambda args: 1),
    )
    spans.wrap(
        model_selection, "tsallis_inf_probabilities", "core.block_open",
        _solve(lambda args: 1),
    )
    spans.wrap(
        OnlineModelSelection, "open_block_with", "core.block_open",
        _count("core.block_open.count"),
    )
    spans.wrap(OnlineModelSelection, "observe_block", "core.fold")
    spans.wrap(OnlineModelSelection, "observe", "core.fold")
    spans.wrap(OnlineModelSelection, "observe_lost", "core.fold")
    spans.wrap(sim_vector, "run_vectorized", "sim.vector")
    spans.wrap(EnergyModel, "slot_emissions_kg", "energy.emissions")
    spans.wrap(EnergyModel, "slot_emissions_kg_batch", "energy.emissions")
    spans.wrap(EdgeSlotKernel, "step", "sim.kernel.edge_step")
