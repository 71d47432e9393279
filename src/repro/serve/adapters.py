"""Stream adapters: where each edge's per-slot workload comes from.

Four sources, all reusing existing subsystems:

* :class:`PoissonAdapter` — synthetic arrivals from the scenario's workload
  trace via :class:`repro.data.streams.ArrivalProcess` (the simulator's own
  ``arrivals-<edge>`` stream, so serve runs see the identical workload);
* :class:`TraceReplayAdapter` — counts replayed verbatim from the
  ``arrival`` events of a recorded JSONL trace (:mod:`repro.obs`);
* :class:`ShapeAdapter` — counts from a seeded load-shape grid
  (:mod:`repro.serve.load`) for the soak harness;
* :class:`DatasetAdapter` — arrivals plus *pre-drawn* data-pool indices
  from the edge's ``data-<edge>`` stream, for dataset-backed (MNIST/CIFAR
  via :mod:`repro.nn`) serving where the adapter owns sample selection.
  The kernel skips its own draw when indices are provided, and the adapter
  consumes the same generator the kernel would have — determinism holds
  either way.

Adapters are synchronous, picklable state machines; the slot loop
(:func:`repro.serve.runtime.serve_edges`) drives them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.data.streams import ArrivalProcess
from repro.obs.sinks import read_events
from repro.serve.queues import WorkItem
from repro.sim.kernel import EdgeSlotKernel, draw_pool_indices
from repro.sim.scenario import Scenario

__all__ = [
    "DatasetAdapter",
    "PoissonAdapter",
    "ShapeAdapter",
    "StreamAdapter",
    "TraceReplayAdapter",
    "arrival_counts_from_trace",
    "make_adapters",
]


class StreamAdapter:
    """Base adapter: produces one :class:`WorkItem` per slot, in order."""

    name = "base"

    def __init__(self, edge: int) -> None:
        self.edge = int(edge)

    def next_item(self, t: int) -> WorkItem:
        """The slot-``t`` workload for this adapter's edge."""
        raise NotImplementedError

    def state_dict(self) -> dict[str, object]:
        """Picklable resume state (default: stateless)."""
        return {}

    def load_state(self, state: dict[str, object]) -> None:
        """Restore state captured by :meth:`state_dict` (default: nothing)."""


class PoissonAdapter(StreamAdapter):
    """Synthetic Poisson arrivals over the scenario's workload trace."""

    name = "poisson"

    def __init__(self, edge: int, arrivals: ArrivalProcess) -> None:
        super().__init__(edge)
        self.arrivals = arrivals

    def next_item(self, t: int) -> WorkItem:
        return WorkItem(t=t, count=self.arrivals.sample(t))

    def state_dict(self) -> dict[str, object]:
        return {"arrivals": self.arrivals}

    def load_state(self, state: dict[str, object]) -> None:
        self.arrivals = state["arrivals"]


class TraceReplayAdapter(StreamAdapter):
    """Replays recorded per-slot arrival counts from a JSONL trace.

    Stateless by construction: the count for slot ``t`` is a pure lookup,
    so snapshots need not capture anything and a restored run continues
    from any slot.
    """

    name = "replay"

    def __init__(self, edge: int, counts: np.ndarray) -> None:
        super().__init__(edge)
        self.counts = np.asarray(counts, dtype=int)

    def next_item(self, t: int) -> WorkItem:
        return WorkItem(t=t, count=int(self.counts[t]))


class ShapeAdapter(TraceReplayAdapter):
    """Replays a deterministic load-shape grid (:mod:`repro.serve.load`).

    Mechanically a :class:`TraceReplayAdapter` over a generated count
    column: stateless, snapshot-free, and rebuildable from the serve config
    alone — sharded workers derive their own columns without shipping the
    grid over the pipe.
    """

    name = "shape"


class DatasetAdapter(StreamAdapter):
    """Arrivals plus pre-drawn pool indices for dataset-backed serving.

    Shares the edge kernel's ``data-<edge>`` generator: the draw the kernel
    would have made happens here instead, one slot earlier in the pipeline
    but in the same per-edge order — the stream consumption is identical.
    """

    name = "dataset"

    def __init__(
        self,
        edge: int,
        arrivals: ArrivalProcess,
        scenario: Scenario,
        data_rng: np.random.Generator,
        class_indices: list[np.ndarray] | None,
    ) -> None:
        super().__init__(edge)
        self.arrivals = arrivals
        self.scenario = scenario
        self.data_rng = data_rng
        self.class_indices = class_indices
        self.pool_size = scenario.profiles[0].pool_size

    def next_item(self, t: int) -> WorkItem:
        count = self.arrivals.sample(t)
        indices = draw_pool_indices(
            self.scenario,
            self.edge,
            count,
            self.data_rng,
            self.pool_size,
            self.class_indices,
        )
        return WorkItem(t=t, count=count, indices=indices)

    def state_dict(self) -> dict[str, object]:
        # data_rng is the kernel's generator; pickled in the same snapshot
        # payload, the shared identity survives the round-trip.
        return {"arrivals": self.arrivals, "data_rng": self.data_rng}

    def load_state(self, state: dict[str, object]) -> None:
        self.arrivals = state["arrivals"]
        self.data_rng = state["data_rng"]


def arrival_counts_from_trace(
    path: str | Path, *, horizon: int, num_edges: int
) -> np.ndarray:
    """Extract the ``(horizon, num_edges)`` arrival-count grid from a trace.

    Every cell must be covered by exactly one ``arrival`` event — a partial
    trace cannot drive a full replay, and duplicates would mask a corrupt
    log.
    """
    counts = np.full((horizon, num_edges), -1, dtype=int)
    for event in read_events(path):
        if event.type != "arrival":
            continue
        t, edge = int(event.t), int(event.edge)
        if not (0 <= t < horizon and 0 <= edge < num_edges):
            raise ValueError(
                f"trace arrival at (t={t}, edge={edge}) is outside the "
                f"({horizon}, {num_edges}) grid"
            )
        if counts[t, edge] >= 0:
            raise ValueError(
                f"duplicate arrival event at (t={t}, edge={edge})"
            )
        counts[t, edge] = int(event.count)
    missing = int((counts < 0).sum())
    if missing:
        raise ValueError(
            f"trace covers only {counts.size - missing} of {counts.size} "
            f"(slot, edge) cells; cannot replay a partial trace"
        )
    return counts


def make_adapters(
    name: str,
    scenario: Scenario,
    arrival_processes: list[ArrivalProcess],
    edge_kernels: list[EdgeSlotKernel],
    *,
    replay_log: str | Path | None = None,
    load_counts: np.ndarray | None = None,
) -> list[StreamAdapter]:
    """Build one adapter per edge for the named source."""
    num_edges = scenario.num_edges
    if name == "shape":
        if load_counts is None:
            raise ValueError(
                'adapter "shape" requires a load grid '
                "(see repro.serve.load.make_load_grid)"
            )
        counts = np.asarray(load_counts, dtype=int)
        if counts.shape != (scenario.horizon, num_edges):
            raise ValueError(
                f"load grid shape {counts.shape} does not match "
                f"({scenario.horizon}, {num_edges})"
            )
        return [ShapeAdapter(i, counts[:, i]) for i in range(num_edges)]
    if name == "poisson":
        return [
            PoissonAdapter(i, arrival_processes[i]) for i in range(num_edges)
        ]
    if name == "replay":
        if replay_log is None:
            raise ValueError('adapter "replay" requires a trace path')
        counts = arrival_counts_from_trace(
            replay_log, horizon=scenario.horizon, num_edges=num_edges
        )
        return [
            TraceReplayAdapter(i, counts[:, i]) for i in range(num_edges)
        ]
    if name == "dataset":
        return [
            DatasetAdapter(
                i,
                arrival_processes[i],
                scenario,
                edge_kernels[i].data_rng,
                edge_kernels[i].class_indices,
            )
            for i in range(num_edges)
        ]
    raise ValueError(f"unknown adapter {name!r}")
