"""Vectorized fast path of :meth:`repro.sim.simulator.Simulator.run`.

The scalar reference loop executes ``horizon x num_edges`` full
:class:`~repro.sim.kernel.EdgeSlotKernel` steps — each one paying for a
frozen-dataclass outcome, per-field float conversions, energy-model method
dispatch, and fault/tracer bookkeeping that a clean run never uses.  This
module re-executes the *same arithmetic in the same floating-point order*
with the per-edge-slot overhead stripped out and the pure-array parts
batched, so the result is **bit-identical** to the scalar path (locked by
the pinned golden digests and by ``tests/test_vectorized.py``).

The fast path runs in two phases:

* **Phase A (selection)** resolves every edge's Algorithm-1 trajectory.
  When the whole fleet runs plain :class:`OnlineModelSelection`, this is
  *block-wise*: at each block boundary the coinciding OMD solves are
  batched through :func:`batch_block_opens`, and the opened block's full
  span of slot losses is then computed and folded in one
  :meth:`~OnlineModelSelection.observe_block` call — no per-slot
  ``select``/``observe`` round-trips at all.  Mixed or subclassed fleets
  fall back to a per-slot loop over the policies' public interface.
* **Phase B (trading)** replays the system-level sequence: selection does
  not depend on trading, so slot emissions for the whole horizon come from
  one :meth:`EnergyModel.slot_emissions_kg_batch` call, after which a lean
  per-slot loop feeds the (stateful, order-dependent) trading kernel.

Why digests are preserved (the full argument is in DESIGN.md):

* **RNG streams** — arrivals, pool draws, block sampling, and trading each
  live on their own named stream.  Pre-drawing a whole horizon of Poisson
  counts or pool indices in one vectorized call consumes a stream exactly
  as the per-slot scalar calls do (NumPy ``Generator`` methods draw
  elementwise, in order); reordering *across* streams is free because the
  streams are independent.
* **Reductions** — each per-slot loss mean stays a pairwise reduction over
  the identical contiguous values (a contiguous slice of a block-level
  gather reduces exactly like the per-slot gather); cross-edge accumulation
  is performed edge-by-edge in ascending edge order, reproducing the scalar
  loop's addition sequence per slot.
* **Block folding** — an edge's estimator is only *read* when that edge
  opens its next block, which happens strictly after the previous block's
  last slot; folding a block's losses at open time is therefore
  unobservable, and ``observe_block`` accumulates them in the same
  left-to-right Python-float order as per-slot ``observe`` calls.
* **Energy arithmetic** — :meth:`EnergyModel.slot_emissions_kg_batch`
  preserves the scalar method's operation order element by element.
* **Tsallis solves** — block openings that coincide at a slot across edges
  are solved by :func:`~repro.core.tsallis.tsallis_inf_probabilities_batch`,
  whose rows follow the scalar safeguarded-Newton trajectory bitwise.
* **Live inference** — forward passes stay per edge-slot on the slot's own
  index draw (exactly the kernel's call), so batching elsewhere never
  changes a BLAS reduction shape.

The fast path declines runs that need the per-slot machinery it strips
(tracing, fault injection, delayed labels) — those fall back to the
per-edge loop.  :func:`batch_block_opens` is not fast-path-only: every
engine batches its block openings through it — this module's two phases,
``Simulator``'s per-edge loop and the serving runtimes' slot loop
(:func:`~repro.serve.runtime.serve_edges`) — so there is one batching code
path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.model_selection import OnlineModelSelection
from repro.core.tsallis import (
    tsallis_inf_probabilities,
    tsallis_inf_probabilities_batch,
)
from repro.nn.losses import squared_label_loss
from repro.policies.selection import SelectionPolicy
from repro.sim.kernel import SlotAggregator, draw_pool_indices
from repro.sim.results import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.sim.simulator import Simulator

__all__ = ["batch_block_opens", "can_vectorize", "run_vectorized"]


def can_vectorize(sim: "Simulator") -> bool:
    """Whether ``sim`` qualifies for the vectorized fast path.

    Tracing, fault injection, and delayed label feedback all hook into the
    per-slot kernel body the fast path elides, so such runs use the scalar
    reference loop instead (bit-identical either way).  Live inference *is*
    supported: forward passes stay per edge-slot, exactly as the kernel
    issues them.
    """
    return (
        not sim.tracer.enabled
        and sim.faults.is_empty
        and sim.label_delay == 0
    )


def batch_block_opens(
    t: int, policies: Sequence[SelectionPolicy]
) -> dict[int, tuple[int, np.ndarray]]:
    """Solve the Algorithm-1 block opens due at slot ``t`` in one batch.

    Collects every plain :class:`OnlineModelSelection` in ``policies``
    whose :meth:`~OnlineModelSelection.pending_block` is set at ``t`` and,
    when there are two or more, solves their OMD steps in one
    :func:`tsallis_inf_probabilities_batch` call, whose rows are bitwise
    the scalar solves.  Returns ``{position: (block, probabilities)}`` in
    position order — empty when fewer than two are due, so a lone opening
    stays on the policy's own scalar path.  Subclasses may override the
    opening logic and never join a batch.

    Callers open each returned block with ``open_block_with(block, t, row,
    validated=True)`` (the solver already ran the simplex postcondition).
    The per-edge engines do so right before that edge's kernel step, which
    keeps trace event order and per-stream RNG draw order unchanged; the
    estimates read here are the ones ``select`` would read, because
    nothing touches an edge's policy between the start of a slot and its
    own step.
    """
    due = []
    for position, policy in enumerate(policies):
        if type(policy) is OnlineModelSelection:
            block = policy.pending_block(t)
            if block is not None:
                due.append((position, policy, block))
    if len(due) < 2:
        return {}
    probabilities = tsallis_inf_probabilities_batch(
        np.stack([policy.cumulative_estimates() for _, policy, _ in due]),
        np.array([policy.block_eta(block) for _, policy, block in due]),
    )
    return {
        position: (block, row)
        for (position, _, block), row in zip(due, probabilities)
    }


def _block_open_slots(policies: list) -> dict[int, list[tuple[int, OnlineModelSelection, int]]]:
    """Map slot -> [(edge, policy, block)] for an all-Algorithm-1 fleet.

    Block boundaries are fixed by the Theorem-1 schedule, so the slots at
    which each edge must open a block are known up front.
    """
    groups: dict[int, list[tuple[int, OnlineModelSelection, int]]] = {}
    for i, policy in enumerate(policies):
        start = 0
        for block, length in enumerate(policy.schedule.lengths):
            groups.setdefault(start, []).append((i, policy, block))
            start += int(length)
    return groups


def _open_blocks(
    t: int, group: list[tuple[int, OnlineModelSelection, int]]
) -> list[int]:
    """Open every block due at slot ``t``; return the sampled models.

    Coinciding openings go through :func:`batch_block_opens`; a single one
    uses the scalar solver, exactly what ``select`` would have run.
    Sampling each block model happens inside its policy, on its own
    ``selection-<edge>`` stream, in edge order — the same per-stream draw
    order as the per-edge engines.  Models are aligned with ``group``.
    """
    policies = [policy for _, policy, _ in group]
    opens = batch_block_opens(t, policies)
    if not opens:
        ((_, policy, block),) = group
        opens = {
            0: (
                block,
                tsallis_inf_probabilities(
                    policy.cumulative_estimates(), policy.block_eta(block)
                ),
            )
        }
    return [
        policies[j].open_block_with(block, t, row, validated=True)
        for j, (block, row) in opens.items()
    ]


def run_vectorized(sim: "Simulator") -> SimulationResult:
    """Execute ``sim`` on the fast path; bit-identical to the scalar loop."""
    scenario = sim.scenario
    horizon, num_edges = scenario.horizon, scenario.num_edges

    arrival_processes, edge_kernels, trading_kernel = sim.build_kernels()
    policies = [kernel.policy for kernel in edge_kernels]

    profiles = scenario.profiles
    loss_tables = [profile.loss_per_sample for profile in profiles]
    correct_tables = [profile.correct_per_sample for profile in profiles]
    expected_losses = scenario.expected_losses
    latencies = scenario.latencies
    latency_rows = [[float(v) for v in latencies[i]] for i in range(num_edges)]
    switch_costs = [kernel.switch_cost for kernel in edge_kernels]

    live = sim.live_inference
    losses_for: Callable[[int, np.ndarray], np.ndarray]
    if live:
        for profile in profiles:
            if profile.network is None:
                raise ValueError(
                    f"profile {profile.name!r} has no network for live inference"
                )
        if scenario.x_pool is None or scenario.y_pool is None:
            raise ValueError("scenario carries no data pool for live inference")
        x_pool, y_pool = scenario.x_pool, scenario.y_pool
        networks = [profile.network for profile in profiles]

        def losses_for(model: int, idx: np.ndarray) -> np.ndarray:
            # One forward per edge-slot on the slot's own draw — the exact
            # call the kernel makes, so BLAS sees identical batch shapes.
            proba = networks[model].predict_proba(x_pool[idx])
            return squared_label_loss(proba, y_pool[idx])

    else:

        def losses_for(model: int, idx: np.ndarray) -> np.ndarray:
            return loss_tables[model][idx]

    energy = scenario.energy
    transfer_table = energy.transfer_table_kwh()
    edge_range = np.arange(num_edges)

    # Pre-draw every stream for the whole horizon.  Each edge's arrival and
    # data streams are consumed in slot order within one vectorized call —
    # stream-identical to the scalar loop's per-slot draws.
    counts_mat = np.stack(
        [proc.sample_slots(horizon) for proc in arrival_processes]
    )
    pool_size = edge_kernels[0].pool_size
    class_indices = edge_kernels[0].class_indices
    offsets: list[list[int]] = []
    flat_indices: list[np.ndarray | None] = []
    slot_indices: list[list[np.ndarray] | None] = []
    for i in range(num_edges):
        counts = counts_mat[i]
        if class_indices is None:
            bounds = np.concatenate(([0], np.cumsum(counts)))
            offsets.append([int(v) for v in bounds])
            flat_indices.append(
                edge_kernels[i].data_rng.integers(0, pool_size, size=int(bounds[-1]))
            )
            slot_indices.append(None)
        else:
            # Two-stage class-mix draws interleave choice/integers calls per
            # slot; keep them per-slot (still in stream order per edge).
            offsets.append([])
            flat_indices.append(None)
            slot_indices.append(
                [
                    draw_pool_indices(
                        scenario, i, int(counts[t]), edge_kernels[i].data_rng,
                        pool_size, class_indices,
                    )
                    for t in range(horizon)
                ]
            )

    blockwise = all(type(policy) is OnlineModelSelection for policy in policies)

    # Results land directly in the aggregator's arrays (the fold's own
    # storage), so the run ends with the one result assembly.
    aggregator = SlotAggregator(scenario, trading_kernel)
    arrays = aggregator.arrays
    selections = arrays["selections"]
    loss_mat = np.empty((num_edges, horizon))
    correct_mat = np.empty((num_edges, horizon))
    loss_rows = [loss_mat[i] for i in range(num_edges)]
    correct_rows = [correct_mat[i] for i in range(num_edges)]

    # ``np.add.reduce`` is the kernel inside ``ndarray.sum``/``mean`` (same
    # pairwise routine, so bit-identical) minus several layers of Python
    # wrapper — worth it at ~10k reductions per run.
    reduce_add = np.add.reduce

    # Phase A — selection trajectories (independent of trading).
    if blockwise:
        # Whole blocks at a time: open at the boundary, then compute and
        # fold the block's entire slot-loss span in one observe_block call.
        open_groups = _block_open_slots(policies)
        for t in sorted(open_groups):
            group = open_groups[t]
            models = _open_blocks(t, group)
            for model, (i, policy, block) in zip(models, group):
                end = t + int(policy.schedule.lengths[block])
                latency = latency_rows[i][model]
                row_loss = loss_rows[i]
                row_correct = correct_rows[i]
                feedback: list[float] = []
                flat = flat_indices[i]
                if flat is not None and not live:
                    # One gather for the block; per-slot loss reductions run
                    # on contiguous slices of it (bitwise the same as
                    # per-slot gathers of the identical values).
                    bounds = offsets[i]
                    base = bounds[t]
                    big = flat[base : bounds[end]]
                    seg_losses = loss_tables[model][big]
                    seg_correct = correct_tables[model][big]
                    rel = np.asarray(bounds[t:end]) - base
                    # Correct counts are sums of 0/1 indicators — every
                    # partial sum is an exactly-representable integer, so the
                    # summation order cannot change the result and reduceat
                    # (not otherwise bit-stable) is safe here.
                    row_correct[t:end] = np.add.reduceat(seg_correct, rel)
                    for s in range(t, end):
                        a = bounds[s] - base
                        b = bounds[s + 1] - base
                        seg = seg_losses[a:b]
                        slot_loss = float(reduce_add(seg) / seg.size)
                        row_loss[s] = slot_loss
                        feedback.append(slot_loss + latency)
                else:
                    for s in range(t, end):
                        if flat is not None:
                            bounds = offsets[i]
                            idx = flat[bounds[s] : bounds[s + 1]]
                        else:
                            idx = slot_indices[i][s]
                        losses = losses_for(model, idx)
                        slot_loss = float(reduce_add(losses) / losses.size)
                        row_loss[s] = slot_loss
                        row_correct[s] = reduce_add(correct_tables[model][idx])
                        feedback.append(slot_loss + latency)
                policy.observe_block(block, feedback)
                selections[t:end, i] = model
    else:
        # Mixed fleet: drive the policies' public per-slot interface (block
        # openings of any plain Algorithm-1 members still batch).
        select_fns = [policy.select for policy in policies]
        observe_fns = [policy.observe for policy in policies]
        for t in range(horizon):
            for i, (block, row) in batch_block_opens(t, policies).items():
                policies[i].open_block_with(block, t, row, validated=True)
            for i in range(num_edges):
                model = select_fns[i](t)
                flat = flat_indices[i]
                if flat is not None:
                    bounds = offsets[i]
                    idx = flat[bounds[t] : bounds[t + 1]]
                else:
                    idx = slot_indices[i][t]
                losses = losses_for(model, idx)
                slot_loss = float(reduce_add(losses) / losses.size)
                observe_fns[i](t, model, slot_loss + latency_rows[i][model])
                selections[t, i] = model
                loss_rows[i][t] = slot_loss
                correct_rows[i][t] = reduce_add(correct_tables[model][idx])

    # Phase B — system-level emissions and trading.  Selections are fully
    # known, so the whole horizon's per-edge emissions come from one batch
    # call; the trading kernel itself is stateful and order-dependent, so a
    # lean per-slot loop feeds it in slot order.
    previous = np.vstack(
        [np.full((1, num_edges), -1, dtype=selections.dtype), selections[:-1]]
    )
    switches = np.not_equal(selections, previous, out=arrays["switches"])
    emissions_mat = energy.slot_emissions_kg_batch(
        selections,
        counts_mat.T,
        switches,
        transfer_table[edge_range, selections],
    )
    emissions = arrays["emissions"]
    bought, sold = arrays["bought"], arrays["sold"]
    trading_cost = arrays["trading_cost"]
    trading_step = trading_kernel.step
    # The scalar fold accumulates slot emissions edge by edge as Python
    # floats; replay that exact addition sequence.
    for t, row in enumerate(emissions_mat.tolist()):
        slot_emissions = 0.0
        for value in row:
            slot_emissions += value
        emissions[t] = slot_emissions
        bought[t], sold[t], trading_cost[t] = trading_step(t, slot_emissions)

    # Cross-edge per-slot accumulation, vectorized over slots but iterated
    # in ascending edge order — the same addition sequence per slot as the
    # scalar fold's running per-field sums.
    correct_acc = np.zeros(horizon)
    arrivals_total = arrays["arrivals_total"]
    for i in range(num_edges):
        chosen = selections[:, i]
        arrays["expected_inference"] += expected_losses[chosen]
        arrays["realized_loss"] += loss_mat[i]
        arrays["compute_cost"] += latencies[i][chosen]
        arrays["switching_cost"] += np.where(switches[:, i], switch_costs[i], 0.0)
        correct_acc += correct_mat[i]
        arrivals_total += counts_mat[i]
    # Arrival counts are truncated below at 1, so every slot serves work.
    np.divide(correct_acc, arrivals_total, out=arrays["accuracy"])
    return aggregator.result(sim.label)
